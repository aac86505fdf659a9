module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Mailbox = Dsm_sim.Mailbox
open Protocol

type item = {
  var : int;
  value : int;
  dot : Dot.t;
  covered : Dot.t list;
      (* writes this item overwrote at the sender; they are never
         propagated, and receivers account them as skips (logical
         applies immediately before this item's apply) *)
}

type message =
  | Batch of { round : int; items : item list }
  | Token of { next_round : int; idle_hops : int }
  | Parked of { holder : int }
  | Nudge

type msg = message

type t = {
  cfg : config;
  me : int;
  store : Replica_store.t;
  applied : V.t;  (* per-issuer applied-write counts, for reporting *)
  mutable next_write_seq : int;
  mutable pending : (int * item) list;
      (* (var, last item) since the previous token hold, oldest first *)
  mutable has_token : bool;
  mutable parked : bool;
  mutable known_parked_holder : int option;
  mutable expected_round : int;  (* next batch round to apply *)
  mutable held_next_round : int;
      (* round the held token will assign to the next flush; only
         meaningful while [has_token] *)
  batch_buffer : (int * msg) Mailbox.t;  (* out-of-round batches *)
  mutable skipped_total : int;
  mutable rounds_flushed : int;
}

let name = "WS-token"

let create cfg ~me =
  if me < 0 || me >= cfg.n then
    invalid_arg "Ws_token.create: process id out of range";
  {
    cfg;
    me;
    store = Replica_store.create ~m:cfg.m;
    applied = V.create cfg.n;
    next_write_seq = 1;
    pending = [];
    (* the token starts parked at process 0, and everybody knows it *)
    has_token = me = 0;
    parked = me = 0;
    known_parked_holder = Some 0;
    expected_round = 0;
    held_next_round = 0;
    batch_buffer = Mailbox.create ();
    skipped_total = 0;
    rounds_flushed = 0;
  }

let me t = t.me

(* The token ring is a static topology: round numbering and token
   routing both assume the ring order never changes, so membership
   growth is not meaningful here. *)
let grow _t ~n:_ =
  invalid_arg "Ws_token.grow: token ring topology is static"

(* Static topology also rules out slot reuse: there is no membership
   change, so a slot is never retired and never recycled. *)
let set_generation _t ~gen =
  if gen <> 0 then
    invalid_arg "Ws_token.set_generation: token ring topology is static"

let generation _t = 0

let adopt _cfg ~me:_ ~gen:_ ~sponsor:_ =
  invalid_arg "Ws_token.adopt: token ring topology is static"

let next_on_ring t = (t.me + 1) mod t.cfg.n

(* Flush: broadcast the pending batch and pass the token on. Only the
   holder calls this, and only with a non-empty pending set. *)
let flush t ~next_round =
  (* items go out in write-sequence order: the pending list is ordered
     by first touch of each variable, but an in-place overwrite can give
     an earlier slot a later dot, and receivers must apply in process
     order *)
  let items =
    List.sort
      (fun a b -> Int.compare (Dot.seq a.dot) (Dot.seq b.dot))
      (List.map snd t.pending)
  in
  t.pending <- [];
  t.rounds_flushed <- t.rounds_flushed + 1;
  if t.cfg.n = 1 then
    (* sole process: nothing to propagate and nobody to pass the token
       to; it stays parked here *)
    []
  else begin
    t.has_token <- false;
    t.parked <- false;
    [
      Broadcast (Batch { round = next_round; items });
      Unicast
        {
          dst = next_on_ring t;
          msg = Token { next_round = next_round + 1; idle_hops = 0 };
        };
    ]
  end

let write t ~var ~value =
  let dot = Dot.make ~replica:t.me ~seq:t.next_write_seq in
  t.next_write_seq <- t.next_write_seq + 1;
  Replica_store.apply t.store ~var ~value ~dot;
  V.tick t.applied t.me;
  (* sender-side overwriting: replace a pending write on the same
     variable; the replaced write is never propagated and the new item
     inherits responsibility for announcing it as covered *)
  (match List.assoc_opt var t.pending with
  | Some old ->
      let item = { var; value; dot; covered = old.covered @ [ old.dot ] } in
      t.pending <-
        List.map (fun (v, it) -> if v = var then (v, item) else (v, it))
          t.pending;
      t.skipped_total <- t.skipped_total + 1
  | None ->
      t.pending <- t.pending @ [ (var, { var; value; dot; covered = [] }) ]);
  let applied =
    [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
  in
  let to_send =
    if t.has_token && t.parked && t.expected_round = t.held_next_round then begin
      (* we hold the parked token and are up to date: propagate now *)
      let next_round = t.held_next_round in
      let sends = flush t ~next_round in
      t.expected_round <- next_round + 1;
      sends
    end
    else if t.has_token then
      (* holding the token but still missing earlier batches: the
         arrival of those batches retries the flush *)
      []
    else
      match t.known_parked_holder with
      | Some h when h <> t.me -> [ Unicast { dst = h; msg = Nudge } ]
      | Some _ | None -> []
  in
  (dot, effects ~applied ~to_send ())

let read t ~var = Replica_store.read t.store ~var

(* returns (apply records, covered dots skipped here) *)
let apply_batch t ~round items ~from_buffer =
  assert (round = t.expected_round);
  t.expected_round <- round + 1;
  let skipped =
    List.concat_map
      (fun it ->
        (* the covered writes are logically applied just before [it] *)
        List.iter
          (fun d ->
            if Dot.seq d > V.get t.applied (Dot.replica d) then
              V.set t.applied (Dot.replica d) (Dot.seq d))
          it.covered;
        it.covered)
      items
  in
  let records =
    List.map
      (fun it ->
        Replica_store.apply t.store ~var:it.var ~value:it.value ~dot:it.dot;
        V.tick t.applied (Dot.replica it.dot);
        {
          adot = it.dot;
          avar = it.var;
          avalue = it.value;
          afrom_buffer = from_buffer;
        })
      items
  in
  (records, skipped)

let drain_batches t =
  (* hoisted once per drain (the [Protocol.Step] discipline), not
     rebuilt per scan iteration; reads [t.expected_round] through [t],
     so it tracks the advancing round *)
  let f (_, m) =
    match m with
    | Batch { round; _ } -> round = t.expected_round
    | Token _ | Parked _ | Nudge -> false
  in
  let rec loop (applied, skipped) =
    match Mailbox.take_first t.batch_buffer ~f with
    | Some (_, Batch { round; items }) ->
        let records, covered = apply_batch t ~round items ~from_buffer:true in
        loop (applied @ records, skipped @ covered)
    | Some (_, (Token _ | Parked _ | Nudge)) -> assert false
    | None -> (applied, skipped)
  in
  loop ([], [])

let receive_token t ~next_round ~idle_hops =
  t.has_token <- true;
  t.held_next_round <- next_round;
  (* a flush consumes round [next_round]: hold the token until every
     earlier batch has been applied locally so our batch extends what
     our replica already shows; with in-order rounds this is immediate
     unless batches are still in flight to us *)
  if t.pending <> [] && t.expected_round = next_round then begin
    let sends = flush t ~next_round in
    (* our own batch is round [next_round], applied locally already
       variable-wise; account the round as consumed *)
    t.expected_round <- next_round + 1;
    effects ~to_send:sends ()
  end
  else if t.pending <> [] (* wait for missing batches; re-nudge ourselves
                             by parking: batches in flight will arrive and
                             [drain_batches] runs on each; we keep the
                             token meanwhile *) then begin
    t.parked <- true;
    no_effects
  end
  else if idle_hops + 1 >= t.cfg.n then begin
    t.parked <- true;
    t.known_parked_holder <- Some t.me;
    effects ~to_send:[ Broadcast (Parked { holder = t.me }) ] ()
  end
  else begin
    t.has_token <- false;
    t.parked <- false;
    effects
      ~to_send:
        [
          Unicast
            {
              dst = next_on_ring t;
              msg = Token { next_round; idle_hops = idle_hops + 1 };
            };
        ]
      ()
  end

(* retry a parked-with-pending token holder once batches catch up *)
let retry_held_token t =
  if
    t.has_token && t.parked && t.pending <> []
    && t.expected_round = t.held_next_round
  then begin
    let next_round = t.held_next_round in
    let sends = flush t ~next_round in
    t.expected_round <- next_round + 1;
    sends
  end
  else []

let receive t ~src m =
  match m with
  | Batch { round; items } ->
      if round = t.expected_round then begin
        let first, first_skipped =
          apply_batch t ~round items ~from_buffer:false
        in
        let rest, rest_skipped = drain_batches t in
        let sends = retry_held_token t in
        effects ~applied:(first @ rest)
          ~skipped:(first_skipped @ rest_skipped) ~to_send:sends ()
      end
      else begin
        Mailbox.add t.batch_buffer (src, m);
        no_effects
      end
  | Token { next_round; idle_hops } -> receive_token t ~next_round ~idle_hops
  | Parked { holder } ->
      t.known_parked_holder <- Some holder;
      if t.pending <> [] && holder <> t.me then
        effects ~to_send:[ Unicast { dst = holder; msg = Nudge } ] ()
      else no_effects
  | Nudge ->
      if t.has_token && t.parked && t.pending = [] then begin
        t.parked <- false;
        t.has_token <- false;
        effects
          ~to_send:
            [
              Unicast
                {
                  dst = next_on_ring t;
                  msg =
                    Token { next_round = t.held_next_round; idle_hops = 0 };
                };
            ]
          ()
      end
      else no_effects

let buffered t = Mailbox.length t.batch_buffer
let buffer_high_watermark t = Mailbox.high_watermark t.batch_buffer
let total_buffered t = Mailbox.total_buffered t.batch_buffer
let buffer_wakeup_scans t = Mailbox.scans t.batch_buffer
let applied_vector t = V.copy t.applied
let local_clock t = V.copy t.applied
let has_token t = t.has_token
let is_parked t = t.parked
let pending_count t = List.length t.pending
let skipped_total t = t.skipped_total
let rounds_flushed t = t.rounds_flushed

let pp_msg ppf = function
  | Batch { round; items } ->
      Format.fprintf ppf "batch(round=%d, %d items)" round
        (List.length items)
  | Token { next_round; idle_hops } ->
      Format.fprintf ppf "token(next_round=%d, idle=%d)" next_round idle_hops
  | Parked { holder } -> Format.fprintf ppf "parked(p%d)" (holder + 1)
  | Nudge -> Format.pp_print_string ppf "nudge"

let msg_writes = function
  | Batch { items; _ } -> List.map (fun it -> (it.dot, it.var, it.value)) items
  | Token _ | Parked _ | Nudge -> []

let msg_frame = function
  | Batch { items; _ } ->
      {
        Dsm_obs.Wire.kind = "batch";
        scalars = 1 + (2 * List.length items);  (* round + (var, value) each *)
        dots =
          List.fold_left (fun acc it -> acc + 1 + List.length it.covered) 0 items;
        vectors = [];
      }
  | Token _ -> { Dsm_obs.Wire.kind = "token"; scalars = 2; dots = 0; vectors = [] }
  | Parked _ ->
      { Dsm_obs.Wire.kind = "token"; scalars = 1; dots = 0; vectors = [] }
  | Nudge -> { Dsm_obs.Wire.kind = "token"; scalars = 0; dots = 0; vectors = [] }

let snapshot t = Snapshot.encode t

let restore cfg ~me s =
  let t : t = Snapshot.decode s in
  Snapshot.check_identity ~proto:"Ws_token" ~cfg ~me ~cfg':t.cfg ~me':t.me;
  t
