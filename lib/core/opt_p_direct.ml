module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Mailbox = Dsm_sim.Mailbox
open Protocol

type message = { var : int; value : int; dot : Dot.t; deps : Dot.t list }
type msg = message

type t = {
  mutable cfg : config;
  me : int;
  mutable my_gen : int;  (* occupancy generation of this slot (reuse) *)
  store : Replica_store.t;
  apply_cnt : V.t;
  write_co : V.t;
  last_write_on : V.t array;
  seen : (Dot.t, V.t) Hashtbl.t;
      (* Write_co of every write applied here; the decoder for
         dependency lists *)
  gen_of : (int * int, int) Hashtbl.t;
      (* (slot, seq) -> nonzero generation. Counters continue
         monotonically across slot reuse, so (slot, seq) names a write
         uniquely and its generation is derivable metadata; only
         reused-slot writes (gen > 0) need an entry. Rebuilding a
         dependency dot from counters must recover the generation,
         because [seen] is keyed by the full dot. *)
  buffer : (int * msg) Mailbox.t;
  mutable dep_entries : int;
}

let name = "OptP-direct"

let create cfg ~me =
  if me < 0 || me >= cfg.n then
    invalid_arg "Opt_p_direct.create: process id out of range";
  {
    cfg;
    me;
    my_gen = 0;
    store = Replica_store.create ~m:cfg.m;
    apply_cnt = V.create cfg.n;
    write_co = V.create cfg.n;
    last_write_on = Array.init cfg.m (fun _ -> V.create cfg.n);
    seen = Hashtbl.create 64;
    gen_of = Hashtbl.create 16;
    buffer = Mailbox.create ();
    dep_entries = 0;
  }

let me t = t.me

let set_generation t ~gen =
  if gen < 0 then
    invalid_arg "Opt_p_direct.set_generation: negative generation";
  t.my_gen <- gen

let generation t = t.my_gen

let note_gen t d =
  if Dot.gen d > 0 then
    Hashtbl.replace t.gen_of (Dot.replica d, Dot.seq d) (Dot.gen d)

let dot_at t ~replica ~seq =
  match Hashtbl.find_opt t.gen_of (replica, seq) with
  | Some gen -> Dot.make_gen ~replica ~gen ~seq
  | None -> Dot.make ~replica ~seq

let grow t ~n =
  if n < t.cfg.n then invalid_arg "Opt_p_direct.grow: cannot shrink";
  if n > t.cfg.n then begin
    t.cfg <- { t.cfg with n };
    V.grow t.apply_cnt n;
    V.grow t.write_co n
  end

(* the immediate ↦co predecessors of a write with vector [wco]: the
   per-process latest writes in its past, minus those dominated by
   another candidate *)
let immediate_deps t ~wco ~dot =
  let candidates =
    List.filter_map
      (fun p ->
        let seq = if p = t.me then V.get wco p - 1 else V.get wco p in
        if seq > 0 then Some (dot_at t ~replica:p ~seq) else None)
      (List.init t.cfg.n Fun.id)
  in
  ignore dot;
  let vector_of d =
    match Hashtbl.find_opt t.seen d with
    | Some v -> v
    | None ->
        (* every candidate is in our causal past, hence applied here *)
        assert false
  in
  List.filter
    (fun d ->
      not
        (List.exists
           (fun d' ->
             (* [seen] vectors keep their send-time width across {!grow};
                components beyond a vector's size are implicit zeros *)
             (not (Dot.equal d d'))
             && Dot.seq d <= V.get0 (vector_of d') (Dot.replica d))
           candidates))
    candidates

let write t ~var ~value =
  V.tick t.write_co t.me;
  (* canonical-gen rule: stamp only alongside the counter advance *)
  if t.my_gen > 0 then V.set_gen t.write_co t.me t.my_gen;
  let wco = V.copy t.write_co in
  let dot = Dot.of_clock wco t.me in
  note_gen t dot;
  let deps = immediate_deps t ~wco ~dot in
  t.dep_entries <- t.dep_entries + List.length deps;
  let m = { var; value; dot; deps } in
  Replica_store.apply t.store ~var ~value ~dot;
  V.tick t.apply_cnt t.me;
  if t.my_gen > 0 then V.set_gen t.apply_cnt t.me t.my_gen;
  t.last_write_on.(var) <- wco;
  Hashtbl.replace t.seen dot wco;
  let applied =
    [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
  in
  (dot, effects ~applied ~to_send:[ Broadcast m ] ())

let read t ~var =
  V.merge_into t.write_co t.last_write_on.(var);
  Replica_store.read t.store ~var

(* deliverable iff the sender chain is gap-free and every listed
   dependency has been applied — equivalent to OptP's vector test *)
let deliverable t ~src (m : msg) =
  V.get t.apply_cnt src = Dot.seq m.dot - 1
  && List.for_all
       (fun d -> V.get t.apply_cnt (Dot.replica d) >= Dot.seq d)
       m.deps

(* first missing predecessor of a message that must wait: a
   sender-chain gap names the issuer's previous write, otherwise the
   first unapplied listed dependency; [None] for a duplicate *)
let waiting_for t ~src (m : msg) =
  let a_src = V.get t.apply_cnt src in
  let seq = Dot.seq m.dot in
  if a_src >= seq then None
  else if a_src < seq - 1 then
    Some (Dot.make ~replica:src ~seq:(seq - 1))
  else
    List.find_opt
      (fun d -> V.get t.apply_cnt (Dot.replica d) < Dot.seq d)
      m.deps

(* rebuild the write's full Write_co from its dependencies' vectors *)
let reconstruct_wco t ~src (m : msg) =
  let v = V.create t.cfg.n in
  List.iter
    (fun d ->
      match Hashtbl.find_opt t.seen d with
      | Some dv -> V.merge_into v dv
      | None -> assert false (* deliverability guaranteed it applied *))
    m.deps;
  V.set v src (Dot.seq m.dot);
  if Dot.gen m.dot > 0 then V.set_gen v src (Dot.gen m.dot);
  v

let apply_msg t ~src (m : msg) ~from_buffer =
  let wco = reconstruct_wco t ~src m in
  Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
  V.tick t.apply_cnt src;
  if Dot.gen m.dot > 0 then V.set_gen t.apply_cnt src (Dot.gen m.dot);
  t.last_write_on.(m.var) <- wco;
  Hashtbl.replace t.seen m.dot wco;
  note_gen t m.dot;
  { adot = m.dot; avar = m.var; avalue = m.value; afrom_buffer = from_buffer }

(* the deliverability predicate is hoisted once per receive (the
   [Protocol.Step] discipline), not rebuilt per scan iteration *)
let drain t ~f =
  let rec go acc =
    match Mailbox.take_first t.buffer ~f with
    | Some (src, m) -> go (apply_msg t ~src m ~from_buffer:true :: acc)
    | None -> List.rev acc
  in
  go []

let receive t ~src m =
  if deliverable t ~src m then begin
    let first = apply_msg t ~src m ~from_buffer:false in
    let f (src, m) = deliverable t ~src m in
    effects ~applied:(first :: drain t ~f) ()
  end
  else begin
    Mailbox.add t.buffer (src, m);
    { no_effects with waiting_for = waiting_for t ~src m }
  end

let buffered t = Mailbox.length t.buffer
let buffer_high_watermark t = Mailbox.high_watermark t.buffer
let total_buffered t = Mailbox.total_buffered t.buffer
let buffer_wakeup_scans t = Mailbox.scans t.buffer
let applied_vector t = V.copy t.apply_cnt
let local_clock t = V.copy t.write_co
let total_dep_entries t = t.dep_entries
let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

let msg_frame (m : msg) =
  {
    Dsm_obs.Wire.kind = "write";
    scalars = 2;
    dots = 1 + List.length m.deps;
    vectors = [];
  }

let pp_msg ppf (m : msg) =
  Format.fprintf ppf "m(x%d, %d, deps={%a})" (m.var + 1) m.value
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Dot.pp)
    m.deps

let snapshot t = Snapshot.encode t

let restore cfg ~me s =
  let t : t = Snapshot.decode s in
  Snapshot.check_identity ~proto:"Opt_p_direct" ~cfg ~me ~cfg':t.cfg
    ~me':t.me;
  t

(* Slot reuse (see Opt_p.adopt): keep the sponsor's replica image
   (store, Apply, LastWriteOn, the seen/gen decoder tables), discard
   its process identity. *)
let adopt cfg ~me ~gen ~sponsor =
  if me < 0 || me >= cfg.n then
    invalid_arg "Opt_p_direct.adopt: process id out of range";
  if gen < 1 then
    invalid_arg "Opt_p_direct.adopt: generation must be positive";
  let s : t = Snapshot.decode sponsor in
  if s.cfg <> cfg then
    invalid_arg "Opt_p_direct.adopt: snapshot from a different config";
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
    seen = s.seen;
    gen_of = s.gen_of;
    buffer = Mailbox.create ();
    dep_entries = 0;
  }
