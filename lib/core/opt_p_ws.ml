module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Buffer = Dsm_sim.Delivery_buffer
open Protocol

type message = {
  var : int;
  value : int;
  dot : Dot.t;
  wco : V.t;
  prev : Dot.t option;
  can_skip : bool;
}

module type IMPL = sig
  include Protocol.S with type msg = message

  val skipped_total : t -> int
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
    apply_cnt : V.t;
    write_co : V.t;
    last_write_on : V.t array;
    buffer : msg B.t;
    mutable overwritten : Dot.Set.t;
    seen : (Dot.t, int * V.t) Hashtbl.t;  (* var and Write_co of writes seen *)
    mutable skipped_total : int;
  }

  let name = "OptP-WS"

  let create cfg ~me =
    if me < 0 || me >= cfg.n then
      invalid_arg "Opt_p_ws.create: process id out of range";
    {
      cfg;
      me;
      my_gen = 0;
      store = Replica_store.create ~m:cfg.m;
      apply_cnt = V.create cfg.n;
      write_co = V.create cfg.n;
      last_write_on = Array.init cfg.m (fun _ -> V.create cfg.n);
      buffer = B.create ();
      overwritten = Dot.Set.empty;
      seen = Hashtbl.create 64;
      skipped_total = 0;
    }

  let me t = t.me

  let set_generation t ~gen =
    if gen < 0 then
      invalid_arg "Opt_p_ws.set_generation: negative generation";
    t.my_gen <- gen

  let generation t = t.my_gen

  let grow t ~n =
    if n < t.cfg.n then invalid_arg "Opt_p_ws.grow: cannot shrink";
    if n > t.cfg.n then begin
      t.cfg <- { t.cfg with n };
      V.grow t.apply_cnt n;
      V.grow t.write_co n
      (* last_write_on / seen entries alias send-time vectors; they feed
         merge_into and V.lt, both implicit-zero tolerant. *)
    end

  (* exact interposition test: Write_co characterizes ↦co (Theorem 1) *)
  let compute_can_skip t ~var ~prev ~wco =
    match prev with
    | None -> false
    | Some prev_dot -> (
        match Hashtbl.find_opt t.seen prev_dot with
        | None -> false
        | Some (_, prev_wco) ->
            not
              (Hashtbl.fold
                 (fun _ (var'', wco'') found ->
                   found
                   || var'' <> var
                      && V.lt prev_wco wco''
                      && V.lt wco'' wco)
                 t.seen false))

  let write t ~var ~value =
    V.tick t.write_co t.me;
    (* canonical-gen rule: stamp only alongside the counter advance *)
    if t.my_gen > 0 then V.set_gen t.write_co t.me t.my_gen;
    let wco = V.copy t.write_co in
    let dot = Dot.of_clock wco t.me in
    let prev = Replica_store.last_writer t.store ~var in
    let can_skip = compute_can_skip t ~var ~prev ~wco in
    let m = { var; value; dot; wco; prev; can_skip } in
    Replica_store.apply t.store ~var ~value ~dot;
    V.tick t.apply_cnt t.me;
    if t.my_gen > 0 then V.set_gen t.apply_cnt t.me t.my_gen;
    t.last_write_on.(var) <- wco;
    Hashtbl.replace t.seen dot (var, wco);
    let applied =
      [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
    in
    (dot, effects ~applied ~to_send:[ Broadcast m ] ())

  let read t ~var =
    V.merge_into t.write_co t.last_write_on.(var);
    Replica_store.read t.store ~var

  (* OptP's wait condition as a wakeup constraint *)
  let status t ~src (m : msg) w =
    vector_wait ~applied:t.apply_cnt ~wanted:m.wco ~n:t.cfg.n ~src w

  let deliverable t ~src m =
    status t ~src m { Buffer.resume = 0; counter = 0; count = 0 } = Buffer.Ready

  (* every advance of Apply — by an apply or by a skip — flows through
     here so the buffer can wake exactly the subscribed messages *)
  let tick_apply t k =
    V.tick t.apply_cnt k;
    B.note_advance t.buffer status t ~counter:k
      ~count:(V.unsafe_get t.apply_cnt k)

  let apply_msg t ~src (m : msg) ~from_buffer =
    Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
    tick_apply t src;
    if Dot.gen m.dot > 0 then V.set_gen t.apply_cnt src (Dot.gen m.dot);
    t.last_write_on.(m.var) <- m.wco;
    Hashtbl.replace t.seen m.dot (m.var, m.wco);
    { adot = m.dot; avar = m.var; avalue = m.value; afrom_buffer = from_buffer }

  let drained t ~src m = apply_msg t ~src m ~from_buffer:true

  let deliverable_after_skip t ~src (m : msg) d =
    let bump k = V.get0 t.apply_cnt k + if k = Dot.replica d then 1 else 0 in
    let ok = ref (bump src = V.get0 m.wco src - 1) in
    for k = 0 to min t.cfg.n (V.size m.wco) - 1 do
      if k <> src && V.get m.wco k > bump k then ok := false
    done;
    !ok

  let try_skip t =
    let candidate =
      List.find_map
        (fun (src, (m : msg)) ->
          match m.prev with
          | Some d
            when m.can_skip
                 && (not (Dot.Set.mem d t.overwritten))
                 && V.get t.apply_cnt (Dot.replica d) = Dot.seq d - 1
                 && deliverable_after_skip t ~src m d ->
              Some (src, m, d)
          | Some _ | None -> None)
        (B.to_list t.buffer)
    in
    match candidate with
    | None -> None
    | Some (src, m, d) ->
        t.overwritten <- Dot.Set.add d t.overwritten;
        t.skipped_total <- t.skipped_total + 1;
        ignore
          (B.remove_all t.buffer ~f:(fun (_, (b : msg)) ->
               Dot.equal b.dot d));
        ignore
          (B.remove_all t.buffer ~f:(fun (_, (b : msg)) ->
               Dot.equal b.dot m.dot));
        tick_apply t (Dot.replica d);
        Some (apply_msg t ~src m ~from_buffer:true, d)


  (* The incoming message itself may trigger a skip at receipt time: its
     named predecessor is the issuer's next undelivered write and skipping
     it makes the message deliverable at once. In that case the write
     never waits, so its apply is NOT a write delay (Definition 3). *)
  let skip_for_incoming t ~src (m : msg) =
    match m.prev with
    | Some d
      when m.can_skip
           && (not (Dot.Set.mem d t.overwritten))
           && V.get t.apply_cnt (Dot.replica d) = Dot.seq d - 1
           && deliverable_after_skip t ~src m d ->
        t.overwritten <- Dot.Set.add d t.overwritten;
        t.skipped_total <- t.skipped_total + 1;
        ignore
          (B.remove_all t.buffer ~f:(fun (_, (b : msg)) ->
               Dot.equal b.dot d));
        tick_apply t (Dot.replica d);
        Some (apply_msg t ~src m ~from_buffer:false, d)
    | Some _ | None -> None

  let drain t =
    let rec loop () =
      let applied = B.drain t.buffer status t ~apply:drained in
      match try_skip t with
      | Some (record, d) ->
          let applied', skipped = loop () in
          (applied @ (record :: applied'), d :: skipped)
      | None -> (applied, [])
    in
    loop ()

  let receive t ~src m =
    if Dot.Set.mem m.dot t.overwritten then
      (* already logically applied by a skip: discard the late message *)
      no_effects
    else
      let w = B.wait t.buffer in
      w.resume <- 0;
      match status t ~src m w with
      | Buffer.Ready ->
          let first = apply_msg t ~src m ~from_buffer:false in
          let applied, skipped = drain t in
          effects ~applied:(first :: applied) ~skipped ()
      | (Wait | Stuck) as s -> (
          match skip_for_incoming t ~src m with
          | Some (first, d) ->
              let applied, skipped = drain t in
              effects ~applied:(first :: applied) ~skipped:(d :: skipped) ()
          | None -> (
              (* a refused skip changed nothing, so [s] and [w] still
                 hold; a buffered message changes no delivery state, so
                 no other buffered message can have become ready: no
                 drain needed *)
              B.add t.buffer s ~src m;
              match s with
              | Wait -> waiting ~counter:w.counter ~count:w.count
              | Ready | Stuck -> no_effects))

  let buffered t = B.length t.buffer
  let buffer_high_watermark t = B.high_watermark t.buffer
  let total_buffered t = B.total_buffered t.buffer
  let buffer_wakeup_scans t = B.oracle_calls t.buffer
  let applied_vector t = V.copy t.apply_cnt
  let local_clock t = V.copy t.write_co
  let skipped_total t = t.skipped_total

  let last_write_on t ~var =
    if var < 0 || var >= t.cfg.m then
      invalid_arg "Opt_p_ws.last_write_on: variable out of range";
    V.copy t.last_write_on.(var)

  let pp_msg ppf (m : msg) =
    Format.fprintf ppf "m(x%d, %d, %a%s)" (m.var + 1) m.value V.pp m.wco
      (match m.prev with
      | Some d when m.can_skip ->
          Printf.sprintf ", overwrites %s" (Dot.to_string d)
      | _ -> "")

  let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

  let msg_frame (m : msg) =
    {
      Dsm_obs.Wire.kind = "write";
      scalars = 3;  (* var, value, can_skip *)
      dots = (match m.prev with Some _ -> 2 | None -> 1);
      vectors = [ m.wco ];
    }

  let snapshot t = Snapshot.encode t

  let restore cfg ~me s =
    let t : t = Snapshot.decode s in
    Snapshot.check_identity ~proto:"Opt_p_ws" ~cfg ~me ~cfg':t.cfg
      ~me':t.me;
    t

  (* Slot reuse (see Opt_p.adopt): keep the sponsor's replica image —
     including the seen table and overwritten set, which decode
     interposition for writes already in circulation — and discard the
     sponsor's process identity. *)
  let adopt cfg ~me ~gen ~sponsor =
    if me < 0 || me >= cfg.n then
      invalid_arg "Opt_p_ws.adopt: process id out of range";
    if gen < 1 then invalid_arg "Opt_p_ws.adopt: generation must be positive";
    let s : t = Snapshot.decode sponsor in
    if s.cfg <> cfg then
      invalid_arg "Opt_p_ws.adopt: snapshot from a different config";
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
      overwritten = s.overwritten;
      seen = s.seen;
      skipped_total = 0;
    }
end

include Make (Buffer.Indexed)
module Scan = Make (Buffer.Scan)
