module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Mailbox = Dsm_sim.Mailbox
open Protocol

type message = {
  var : int;
  value : int;
  dot : Dot.t;
  vt : V.t;
  prev : Dot.t option;
  can_skip : bool;
}

type msg = message

type t = {
  mutable cfg : config;
  me : int;
  mutable my_gen : int;  (* occupancy generation of this slot (reuse) *)
  store : Replica_store.t;
  delivered : V.t;
  vclock : V.t;
  buffer : (int * msg) Mailbox.t;
  mutable overwritten : Dot.Set.t;
      (* writes logically applied by a skip; their messages are dropped *)
  seen : (Dot.t, int * V.t) Hashtbl.t;
      (* var and send-timestamp of every write applied or issued here;
         feeds the sender-side [can_skip] computation *)
  mutable skipped_total : int;
}

let name = "WS-recv"

let create cfg ~me =
  if me < 0 || me >= cfg.n then
    invalid_arg "Ws_receiver.create: process id out of range";
  {
    cfg;
    me;
    my_gen = 0;
    store = Replica_store.create ~m:cfg.m;
    delivered = V.create cfg.n;
    vclock = V.create cfg.n;
    buffer = Mailbox.create ();
    overwritten = Dot.Set.empty;
    seen = Hashtbl.create 64;
    skipped_total = 0;
  }

let me t = t.me

let set_generation t ~gen =
  if gen < 0 then
    invalid_arg "Ws_receiver.set_generation: negative generation";
  t.my_gen <- gen

let generation t = t.my_gen

let grow t ~n =
  if n < t.cfg.n then invalid_arg "Ws_receiver.grow: cannot shrink";
  if n > t.cfg.n then begin
    t.cfg <- { t.cfg with n };
    V.grow t.delivered n;
    V.grow t.vclock n
  end

(* no write w'' on another variable with prev.vt < w''.vt < w.vt;
   checked over every write this process has seen — by safety that
   includes the whole causal past of the write being sent *)
let compute_can_skip t ~var ~prev ~vt =
  match prev with
  | None -> false
  | Some prev_dot -> (
      match Hashtbl.find_opt t.seen prev_dot with
      | None -> false
      | Some (_, prev_vt) ->
          not
            (Hashtbl.fold
               (fun _ (var'', vt'') found ->
                 found
                 || var'' <> var
                    && V.lt prev_vt vt''
                    && V.lt vt'' vt)
               t.seen false))

let write t ~var ~value =
  V.tick t.vclock t.me;
  (* canonical-gen rule: stamp only alongside the counter advance *)
  if t.my_gen > 0 then V.set_gen t.vclock t.me t.my_gen;
  let vt = V.copy t.vclock in
  let dot = Dot.of_clock vt t.me in
  let prev = Replica_store.last_writer t.store ~var in
  let can_skip = compute_can_skip t ~var ~prev ~vt in
  let m = { var; value; dot; vt; prev; can_skip } in
  Replica_store.apply t.store ~var ~value ~dot;
  V.tick t.delivered t.me;
  Hashtbl.replace t.seen dot (var, vt);
  let applied =
    [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
  in
  (dot, effects ~applied ~to_send:[ Broadcast m ] ())

let read t ~var = Replica_store.read t.store ~var

(* the causal-broadcast wait condition, scanned from component 0 *)
let status t ~src (m : msg) =
  let w = { Dsm_sim.Delivery_buffer.resume = 0; counter = 0; count = 0 } in
  (vector_wait ~applied:t.delivered ~wanted:m.vt ~n:t.cfg.n ~src w, w)

let deliverable t ~src m = fst (status t ~src m) = Ready

let apply_msg t ~src (m : msg) ~from_buffer =
  Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
  V.tick t.delivered src;
  if Dot.gen m.dot > 0 then V.set_gen t.delivered src (Dot.gen m.dot);
  V.merge_into t.vclock m.vt;
  Hashtbl.replace t.seen m.dot (m.var, m.vt);
  { adot = m.dot; avar = m.var; avalue = m.value; afrom_buffer = from_buffer }

(* Is [m] from [src] deliverable once [d] is counted as applied?
   The skip and the apply of the overwriting message must be one atomic
   step: skipping [d] without immediately applying its overwriter would
   open a window in which a write depending on [d] gets applied while
   the store still holds a value older than [d] — an illegal read. *)
let deliverable_after_skip t ~src (m : msg) d =
  let bump k = V.get0 t.delivered k + if k = Dot.replica d then 1 else 0 in
  let ok = ref (bump src = V.get0 m.vt src - 1) in
  for k = 0 to min t.cfg.n (V.size m.vt) - 1 do
    if k <> src && V.get m.vt k > bump k then ok := false
  done;
  !ok

(* Find a buffered write [m] that names an undelivered immediate
   predecessor [d] on the same variable, certifies no interposition,
   and becomes deliverable once [d] is skipped. Returns the applies
   performed. *)
let try_skip t =
  let candidate =
    List.find_map
      (fun (src, (m : msg)) ->
        match m.prev with
        | Some d
          when m.can_skip
               && (not (Dot.Set.mem d t.overwritten))
               && V.get t.delivered (Dot.replica d) = Dot.seq d - 1
               && deliverable_after_skip t ~src m d ->
            Some (src, m, d)
        | Some _ | None -> None)
      (Mailbox.to_list t.buffer)
  in
  match candidate with
  | None -> None
  | Some (src, m, d) ->
      (* atomically: count d as logically applied, drop its message if
         present, and apply the overwriter *)
      V.tick t.delivered (Dot.replica d);
      t.overwritten <- Dot.Set.add d t.overwritten;
      t.skipped_total <- t.skipped_total + 1;
      ignore
        (Mailbox.remove_all t.buffer ~f:(fun (_, (b : msg)) ->
             Dot.equal b.dot d));
      ignore
        (Mailbox.remove_all t.buffer ~f:(fun (_, (b : msg)) ->
             Dot.equal b.dot m.dot));
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
         && V.get t.delivered (Dot.replica d) = Dot.seq d - 1
         && deliverable_after_skip t ~src m d ->
      V.tick t.delivered (Dot.replica d);
      t.overwritten <- Dot.Set.add d t.overwritten;
      t.skipped_total <- t.skipped_total + 1;
      ignore
        (Mailbox.remove_all t.buffer ~f:(fun (_, (b : msg)) ->
             Dot.equal b.dot d));
      Some (apply_msg t ~src m ~from_buffer:false, d)
  | Some _ | None -> None

let drain t =
  let applied = ref [] and skipped = ref [] in
  (* hoisted once per drain (the [Protocol.Step] discipline), not
     rebuilt per scan iteration *)
  let f (src, m) = deliverable t ~src m in
  let rec loop () =
    match Mailbox.take_first t.buffer ~f with
    | Some (src, m) ->
        applied := apply_msg t ~src m ~from_buffer:true :: !applied;
        loop ()
    | None -> (
        match try_skip t with
        | Some (record, d) ->
            applied := record :: !applied;
            skipped := d :: !skipped;
            loop ()
        | None -> ())
  in
  loop ();
  (List.rev !applied, List.rev !skipped)

let receive t ~src m =
  if Dot.Set.mem m.dot t.overwritten then
    (* already logically applied by a skip: discard the late message *)
    no_effects
  else if deliverable t ~src m then begin
    let first = apply_msg t ~src m ~from_buffer:false in
    let applied, skipped = drain t in
    effects ~applied:(first :: applied) ~skipped ()
  end
  else
    match skip_for_incoming t ~src m with
    | Some (first, d) ->
        let applied, skipped = drain t in
        effects ~applied:(first :: applied) ~skipped:(d :: skipped) ()
    | None ->
        (* a buffered message changes no delivery state, so no other
           buffered message can have become ready: no drain needed *)
        Mailbox.add t.buffer (src, m);
        match status t ~src m with
        | Wait, w -> waiting ~counter:w.counter ~count:w.count
        | (Ready | Stuck), _ -> no_effects

let buffered t = Mailbox.length t.buffer
let buffer_high_watermark t = Mailbox.high_watermark t.buffer
let total_buffered t = Mailbox.total_buffered t.buffer
let buffer_wakeup_scans t = Mailbox.scans t.buffer
let applied_vector t = V.copy t.delivered
let local_clock t = V.copy t.vclock
let skipped_total t = t.skipped_total

let pp_msg ppf (m : msg) =
  Format.fprintf ppf "m(x%d, %d, %a%s)" (m.var + 1) m.value V.pp m.vt
    (match m.prev with
    | Some d when m.can_skip -> Printf.sprintf ", overwrites %s" (Dot.to_string d)
    | _ -> "")

let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

let msg_frame (m : msg) =
  {
    Dsm_obs.Wire.kind = "write";
    scalars = 3;  (* var, value, can_skip *)
    dots = (match m.prev with Some _ -> 2 | None -> 1);
    vectors = [ m.vt ];
  }

let snapshot t = Snapshot.encode t

let restore cfg ~me s =
  let t : t = Snapshot.decode s in
  Snapshot.check_identity ~proto:"Ws_receiver" ~cfg ~me ~cfg':t.cfg
    ~me':t.me;
  t

(* Slot reuse (see Anbkh.adopt): keep the sponsor's replica image; the
   working clock starts from the sponsor's delivered counts so it
   dominates everything in the adopted store. *)
let adopt cfg ~me ~gen ~sponsor =
  if me < 0 || me >= cfg.n then
    invalid_arg "Ws_receiver.adopt: process id out of range";
  if gen < 1 then
    invalid_arg "Ws_receiver.adopt: generation must be positive";
  let s : t = Snapshot.decode sponsor in
  if s.cfg <> cfg then
    invalid_arg "Ws_receiver.adopt: snapshot from a different config";
  {
    cfg;
    me;
    my_gen = gen;
    store = s.store;
    delivered = s.delivered;
    vclock = V.copy s.delivered;
    buffer = Mailbox.create ();
    overwritten = s.overwritten;
    seen = s.seen;
    skipped_total = 0;
  }
