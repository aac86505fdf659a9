module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Mailbox = Dsm_sim.Mailbox
open Protocol

type message = { var : int; value : int; dot : Dot.t }
type msg = message

type t = {
  mutable cfg : config;
  me : int;
  mutable my_gen : int;  (* occupancy generation of this slot (reuse) *)
  store : Replica_store.t;
  apply_cnt : V.t;
  buffer : (int * msg) Mailbox.t;
}

let name = "Canary"

let create cfg ~me =
  if me < 0 || me >= cfg.n then
    invalid_arg "Canary.create: process id out of range";
  {
    cfg;
    me;
    my_gen = 0;
    store = Replica_store.create ~m:cfg.m;
    apply_cnt = V.create cfg.n;
    buffer = Mailbox.create ();
  }

let me t = t.me

let set_generation t ~gen =
  if gen < 0 then invalid_arg "Canary.set_generation: negative generation";
  t.my_gen <- gen

let generation t = t.my_gen

let grow t ~n =
  if n < t.cfg.n then invalid_arg "Canary.grow: cannot shrink";
  if n > t.cfg.n then begin
    t.cfg <- { t.cfg with n };
    V.grow t.apply_cnt n
  end

let write t ~var ~value =
  V.tick t.apply_cnt t.me;
  if t.my_gen > 0 then V.set_gen t.apply_cnt t.me t.my_gen;
  let dot = Dot.of_clock t.apply_cnt t.me in
  Replica_store.apply t.store ~var ~value ~dot;
  let applied =
    [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
  in
  (dot, effects ~applied ~to_send:[ Broadcast { var; value; dot } ] ())

let read t ~var = Replica_store.read t.store ~var

(* THE BUG: deliverability checks only the sender's own chain.  A write
   that causally depends on another issuer's write (its issuer read
   that value first) is applied as soon as the sender chain is gap-free
   — cross-issuer causal order is simply ignored. *)
let deliverable t ~src (m : msg) = V.get t.apply_cnt src = Dot.seq m.dot - 1

let apply_msg t ~src (m : msg) ~from_buffer =
  Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
  V.tick t.apply_cnt src;
  if Dot.gen m.dot > 0 then V.set_gen t.apply_cnt src (Dot.gen m.dot);
  { adot = m.dot; avar = m.var; avalue = m.value; afrom_buffer = from_buffer }

let drain t ~f =
  let rec go acc =
    match Mailbox.take_first t.buffer ~f with
    | Some (src, m) -> go (apply_msg t ~src m ~from_buffer:true :: acc)
    | None -> List.rev acc
  in
  go []

let receive t ~src m =
  if V.get t.apply_cnt src >= Dot.seq m.dot then no_effects (* duplicate *)
  else if deliverable t ~src m then begin
    let first = apply_msg t ~src m ~from_buffer:false in
    let f (src, m) = deliverable t ~src m in
    effects ~applied:(first :: drain t ~f) ()
  end
  else begin
    (* not a duplicate and not deliverable: the sender chain has a gap *)
    Mailbox.add t.buffer (src, m);
    waiting ~counter:src ~count:(Dot.seq m.dot - 1)
  end

let buffered t = Mailbox.length t.buffer
let buffer_high_watermark t = Mailbox.high_watermark t.buffer
let total_buffered t = Mailbox.total_buffered t.buffer
let buffer_wakeup_scans t = Mailbox.scans t.buffer
let applied_vector t = V.copy t.apply_cnt
let local_clock t = V.copy t.apply_cnt
let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

let msg_frame (_ : msg) =
  { Dsm_obs.Wire.kind = "write"; scalars = 2; dots = 1; vectors = [] }

let pp_msg ppf (m : msg) =
  Format.fprintf ppf "m(x%d, %d, %a)" (m.var + 1) m.value Dot.pp m.dot

let snapshot t = Snapshot.encode t

let restore cfg ~me s =
  let t : t = Snapshot.decode s in
  Snapshot.check_identity ~proto:"Canary" ~cfg ~me ~cfg':t.cfg ~me':t.me;
  t

(* Slot reuse (see Opt_p.adopt). The canary's own counter IS its
   apply_cnt entry, which the sponsor image carries at the retired
   occupant's final value — the adopter's writes continue from there
   automatically. *)
let adopt cfg ~me ~gen ~sponsor =
  if me < 0 || me >= cfg.n then
    invalid_arg "Canary.adopt: process id out of range";
  if gen < 1 then invalid_arg "Canary.adopt: generation must be positive";
  let s : t = Snapshot.decode sponsor in
  if s.cfg <> cfg then
    invalid_arg "Canary.adopt: snapshot from a different config";
  {
    cfg;
    me;
    my_gen = gen;
    store = s.store;
    apply_cnt = s.apply_cnt;
    buffer = Mailbox.create ();
  }
