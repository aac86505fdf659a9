module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Buffer = Dsm_sim.Delivery_buffer
open Protocol

type message = { var : int; value : int; dot : Dot.t; wco : V.t }

module type IMPL = sig
  include Protocol.S with type msg = message

  val last_write_on : t -> var:int -> Dsm_vclock.Vector_clock.t
  val deliverable : t -> src:int -> msg -> bool
end

module Make (B : Buffer.S) = struct
  type msg = message

  type t = {
    mutable cfg : config;
    me : int;
    mutable my_gen : int;  (* occupancy generation of this slot (reuse) *)
    store : Replica_store.t;
    apply_cnt : V.t;  (* the paper's Apply *)
    write_co : V.t;  (* the paper's Write_co *)
    last_write_on : V.t array;  (* the paper's LastWriteOn *)
    buffer : msg B.t;
  }

  let name = "OptP"

  let create cfg ~me =
    if me < 0 || me >= cfg.n then
      invalid_arg "Opt_p.create: process id out of range";
    {
      cfg;
      me;
      my_gen = 0;
      store = Replica_store.create ~m:cfg.m;
      apply_cnt = V.create cfg.n;
      write_co = V.create cfg.n;
      last_write_on = Array.init cfg.m (fun _ -> V.create cfg.n);
      buffer = B.create ();
    }

  let me t = t.me

  let set_generation t ~gen =
    if gen < 0 then invalid_arg "Opt_p.set_generation: negative generation";
    t.my_gen <- gen

  let generation t = t.my_gen

  let grow t ~n =
    if n < t.cfg.n then invalid_arg "Opt_p.grow: cannot shrink";
    if n > t.cfg.n then begin
      t.cfg <- { t.cfg with n };
      V.grow t.apply_cnt n;
      V.grow t.write_co n
      (* last_write_on entries alias message vectors from their send-time
         epoch; they only feed merge_into, which pads implicit zeros, so
         they need no widening. Buffered messages re-evaluate against the
         wider view: a scan resumes below the new bound. *)
    end

  (* Figure 5, line 2, as a wakeup constraint: the first enabling event
     still missing *)
  let status t ~src (m : msg) w =
    vector_wait ~applied:t.apply_cnt ~wanted:m.wco ~n:t.cfg.n ~src w

  let deliverable t ~src m =
    status t ~src m { Buffer.resume = 0; counter = 0; count = 0 } = Buffer.Ready

  module Step = Protocol.Step (B)

  (* Figure 4: WRITE(x, v) *)
  let write t ~var ~value =
    V.tick t.write_co t.me;
    (* canonical-gen rule: the generation stamp rides the own entry
       only alongside the counter advance it describes, so lexicographic
       (gen, counter) order coincides with counter order and the dense
       gen-free path stays byte-identical for generation-0 processes *)
    if t.my_gen > 0 then V.set_gen t.write_co t.me t.my_gen;
    let wco = V.copy t.write_co in
    let dot = Dot.of_clock wco t.me in
    let m = { var; value; dot; wco } in
    Replica_store.apply t.store ~var ~value ~dot;
    V.tick t.apply_cnt t.me;
    if t.my_gen > 0 then V.set_gen t.apply_cnt t.me t.my_gen;
    B.note_advance t.buffer status t ~counter:t.me
      ~count:(V.unsafe_get t.apply_cnt t.me);
    t.last_write_on.(var) <- wco;
    let applied = [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ] in
    (dot, effects ~applied ~to_send:[ Broadcast m ] ())

  (* Figure 5: READ(x) — merge LastWriteOn[x] into Write_co in place
     ([merge_into] is the scratch merge: no intermediate vector), then
     return *)
  let read t ~var =
    V.merge_into t.write_co t.last_write_on.(var);
    Replica_store.read t.store ~var

  (* Figure 5, lines 3-5 of the synchronization thread *)
  let apply_msg t ~src m ~from_buffer =
    Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
    V.tick t.apply_cnt src;
    (* record which occupancy the applied write belongs to *)
    if Dot.gen m.dot > 0 then V.set_gen t.apply_cnt src (Dot.gen m.dot);
    B.note_advance t.buffer status t ~counter:src
      ~count:(V.unsafe_get t.apply_cnt src);
    t.last_write_on.(m.var) <- m.wco;
    { adot = m.dot; avar = m.var; avalue = m.value; afrom_buffer = from_buffer }

  let drained t ~src m = apply_msg t ~src m ~from_buffer:true

  let receive t ~src m =
    Step.receive t.buffer status t ~apply:apply_msg ~drained ~src m

  let buffered t = B.length t.buffer
  let buffer_high_watermark t = B.high_watermark t.buffer
  let total_buffered t = B.total_buffered t.buffer
  let buffer_wakeup_scans t = B.oracle_calls t.buffer
  let applied_vector t = V.copy t.apply_cnt
  let local_clock t = V.copy t.write_co
  let last_write_on t ~var =
    if var < 0 || var >= t.cfg.m then
      invalid_arg "Opt_p.last_write_on: variable out of range";
    V.copy t.last_write_on.(var)

  let pp_msg ppf m =
    Format.fprintf ppf "m(x%d, %d, %a)" (m.var + 1) m.value V.pp m.wco

  let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

  let msg_frame (m : msg) =
    { Dsm_obs.Wire.kind = "write"; scalars = 2; dots = 1; vectors = [ m.wco ] }

  let snapshot t = Snapshot.encode t

  let restore cfg ~me s =
    let t : t = Snapshot.decode s in
    Snapshot.check_identity ~proto:"Opt_p" ~cfg ~me ~cfg':t.cfg ~me':t.me;
    t

  (* Slot reuse: a NEW process takes over slot [me] at generation
     [gen], bootstrapped from a live sponsor's snapshot. It keeps the
     sponsor's replica image — store, Apply, LastWriteOn — but none of
     the sponsor's process identity: Write_co claims only the slot's
     own counter (continuing from the retired occupant's final, which
     the sponsor has fully applied thanks to the reuse gate), and the
     buffer starts empty. Its first write is then [base + 1], so dots
     never collide with the predecessor's, and receivers see
     [Apply[me] = base = wco[me] - 1] — immediately deliverable. *)
  let adopt cfg ~me ~gen ~sponsor =
    if me < 0 || me >= cfg.n then
      invalid_arg "Opt_p.adopt: process id out of range";
    if gen < 1 then invalid_arg "Opt_p.adopt: generation must be positive";
    let s : t = Snapshot.decode sponsor in
    if s.cfg <> cfg then
      invalid_arg "Opt_p.adopt: snapshot from a different config";
    let write_co = V.create cfg.n in
    let base = V.get0 s.apply_cnt me in
    if base > 0 then begin
      V.set write_co me base;
      V.set_gen write_co me (V.gen s.apply_cnt me)
    end;
    {
      cfg;
      me;
      my_gen = gen;
      store = s.store;
      apply_cnt = s.apply_cnt;
      write_co;
      last_write_on = s.last_write_on;
      buffer = B.create ();
    }
end

include Make (Buffer.Indexed)
module Scan = Make (Buffer.Scan)
