module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Buffer = Dsm_sim.Delivery_buffer
open Protocol

type message = { var : int; value : int; dot : Dot.t; vt : V.t }

module type IMPL = sig
  include Protocol.S with type msg = message

  val deliverable : t -> src:int -> msg -> bool
end

module Make (B : Buffer.S) = struct
  type msg = message

  type t = {
    mutable cfg : config;
    me : int;
    mutable my_gen : int;  (* occupancy generation of this slot (reuse) *)
    store : Replica_store.t;
    delivered : V.t;  (* per-issuer count of writes applied here *)
    vt : V.t;  (* Fidge-Mattern clock over write-send events *)
    buffer : msg B.t;
  }

  let name = "ANBKH"

  let create cfg ~me =
    if me < 0 || me >= cfg.n then
      invalid_arg "Anbkh.create: process id out of range";
    {
      cfg;
      me;
      my_gen = 0;
      store = Replica_store.create ~m:cfg.m;
      delivered = V.create cfg.n;
      vt = V.create cfg.n;
      buffer = B.create ();
    }

  let me t = t.me

  let set_generation t ~gen =
    if gen < 0 then invalid_arg "Anbkh.set_generation: negative generation";
    t.my_gen <- gen

  let generation t = t.my_gen

  let grow t ~n =
    if n < t.cfg.n then invalid_arg "Anbkh.grow: cannot shrink";
    if n > t.cfg.n then begin
      t.cfg <- { t.cfg with n };
      V.grow t.delivered n;
      V.grow t.vt n
    end

  (* causal-broadcast wait condition as a wakeup constraint *)
  let status t ~src (m : msg) w =
    vector_wait ~applied:t.delivered ~wanted:m.vt ~n:t.cfg.n ~src w

  let deliverable t ~src m =
    status t ~src m { Buffer.resume = 0; counter = 0; count = 0 } = Buffer.Ready

  module Step = Protocol.Step (B)

  let write t ~var ~value =
    V.tick t.vt t.me;
    (* canonical-gen rule: stamp only alongside the counter advance *)
    if t.my_gen > 0 then V.set_gen t.vt t.me t.my_gen;
    let vt = V.copy t.vt in
    let dot = Dot.of_clock vt t.me in
    let m = { var; value; dot; vt } in
    Replica_store.apply t.store ~var ~value ~dot;
    V.tick t.delivered t.me;
    B.note_advance t.buffer status t ~counter:t.me
      ~count:(V.unsafe_get t.delivered t.me);
    let applied =
      [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
    in
    (dot, effects ~applied ~to_send:[ Broadcast m ] ())

  (* reads are purely local: the vector is a message-ordering device and
     does not change on reads *)
  let read t ~var = Replica_store.read t.store ~var

  let apply_msg t ~src m ~from_buffer =
    Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
    V.tick t.delivered src;
    if Dot.gen m.dot > 0 then V.set_gen t.delivered src (Dot.gen m.dot);
    B.note_advance t.buffer status t ~counter:src
      ~count:(V.unsafe_get t.delivered src);
    (* causal broadcast: absorb the sender's knowledge unconditionally —
       the source of false causality w.r.t. ↦co. [merge_into] is the
       in-place scratch merge: no intermediate vector. *)
    V.merge_into t.vt m.vt;
    { adot = m.dot; avar = m.var; avalue = m.value; afrom_buffer = from_buffer }

  let drained t ~src m = apply_msg t ~src m ~from_buffer:true

  let receive t ~src m =
    Step.receive t.buffer status t ~apply:apply_msg ~drained ~src m

  let buffered t = B.length t.buffer
  let buffer_high_watermark t = B.high_watermark t.buffer
  let total_buffered t = B.total_buffered t.buffer
  let buffer_wakeup_scans t = B.oracle_calls t.buffer
  let applied_vector t = V.copy t.delivered
  let local_clock t = V.copy t.vt

  let pp_msg ppf m =
    Format.fprintf ppf "m(x%d, %d, %a)" (m.var + 1) m.value V.pp m.vt

  let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

  let msg_frame (m : msg) =
    { Dsm_obs.Wire.kind = "write"; scalars = 2; dots = 1; vectors = [ m.vt ] }

  let snapshot t = Snapshot.encode t

  let restore cfg ~me s =
    let t : t = Snapshot.decode s in
    Snapshot.check_identity ~proto:"Anbkh" ~cfg ~me ~cfg':t.cfg ~me':t.me;
    t

  (* Slot reuse (see Opt_p.adopt): keep the sponsor's replica image,
     discard its process identity. For causal broadcast the working
     clock must still dominate everything applied locally, so the
     adopter's vt starts from the sponsor's DELIVERED counts (all of
     which the reuse gate guarantees are cluster-wide), not from the
     sponsor's send-time clock. *)
  let adopt cfg ~me ~gen ~sponsor =
    if me < 0 || me >= cfg.n then
      invalid_arg "Anbkh.adopt: process id out of range";
    if gen < 1 then invalid_arg "Anbkh.adopt: generation must be positive";
    let s : t = Snapshot.decode sponsor in
    if s.cfg <> cfg then
      invalid_arg "Anbkh.adopt: snapshot from a different config";
    {
      cfg;
      me;
      my_gen = gen;
      store = s.store;
      delivered = s.delivered;
      vt = V.copy s.delivered;
      buffer = B.create ();
    }
end

include Make (Buffer.Indexed)
module Scan = Make (Buffer.Scan)
