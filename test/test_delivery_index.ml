(* Unit tests for the counter-indexed delivery buffer, driven the way
   the protocols drive it: a little harness keeps an apply vector and a
   status oracle shaped exactly like OptP's wait condition (sender gap
   + cross-process coverage), applies ready messages, and reports every
   counter advance through [note_advance]. *)

module Di = Dsm_sim.Delivery_index
module Mailbox = Dsm_sim.Mailbox

(* a toy message: issued by [src] with sequence [seq], additionally
   requiring counter [dep_proc] >= [dep_count] *)
type msg = { src : int; seq : int; dep : (int * int) option; tag : string }

type harness = { apply : int array; buf : msg Di.t }

let make_harness n = { apply = Array.make n 0; buf = Di.create () }

(* the oracle over an apply vector; a toy message carries its source *)
let status (apply : int array) ~src:_ (m : msg) (w : Di.wait) : Di.status =
  let wait counter count =
    w.counter <- counter;
    w.count <- count;
    Di.Wait
  in
  if apply.(m.src) < m.seq - 1 then wait m.src (m.seq - 1)
  else if apply.(m.src) > m.seq - 1 then Di.Stuck
  else
    match m.dep with
    | Some (k, c) when apply.(k) < c -> wait k c
    | _ -> Di.Ready

let tick h src =
  h.apply.(src) <- h.apply.(src) + 1;
  Di.note_advance h.buf status h.apply ~counter:src ~count:h.apply.(src)

(* deliver one message directly (the "receive was deliverable" path),
   then drain the buffer to fixpoint, returning tags in apply order *)
let apply_and_drain h (m : msg) =
  tick h m.src;
  m.tag
  :: Di.drain h.buf status h.apply ~apply:(fun _ ~src m' ->
         tick h src;
         m'.tag)

(* take one ready message without applying it: a drain stopped by its
   first apply *)
exception Took of msg

let take_one buf apply =
  match Di.drain buf status apply ~apply:(fun _ ~src:_ m -> raise (Took m)) with
  | [] -> None
  | _ :: _ -> assert false
  | exception Took m -> Some m

let msg ?dep ~src ~seq tag = { src; seq; dep; tag }

(* buffer [m] as a receive does: routed by its status at receipt *)
let add_to buf apply m =
  let w = Di.wait buf in
  w.resume <- 0;
  Di.add buf (status apply ~src:m.src m w) ~src:m.src m

let add h m = add_to h.buf h.apply m
let tags l = List.map (fun (_, m) -> m.tag) l

let check_tags = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)

let test_empty () =
  let h = make_harness 2 in
  Alcotest.(check (option string))
    "take on empty" None
    (Option.map (fun m -> m.tag) (take_one h.buf h.apply));
  Alcotest.(check int) "length" 0 (Di.length h.buf);
  Alcotest.(check bool) "is_empty" true (Di.is_empty h.buf);
  Di.note_advance h.buf status h.apply ~counter:0 ~count:1;
  Alcotest.(check int) "note_advance on empty is harmless" 0
    (Di.length h.buf)

let test_single_source_chain () =
  (* the cascade case: seqs 2..6 buffered out of order, then seq 1
     arrives and everything unblocks, one wakeup per apply, in
     per-source FIFO order *)
  let h = make_harness 1 in
  List.iter
    (fun s -> add h (msg ~src:0 ~seq:s (string_of_int s)))
    [ 4; 2; 6; 3; 5 ];
  Alcotest.(check int) "all buffered" 5 (Di.length h.buf);
  Alcotest.(check (option string))
    "nothing ready before the gap fills" None
    (Option.map (fun m -> m.tag) (take_one h.buf h.apply));
  let order = apply_and_drain h (msg ~src:0 ~seq:1 "1") in
  check_tags "chained unblocking" [ "1"; "2"; "3"; "4"; "5"; "6" ] order;
  Alcotest.(check int) "buffer drained" 0 (Di.length h.buf)

let test_oldest_ready_first () =
  (* two sources ready simultaneously: insertion order (oldest first)
     must win, matching Mailbox.take_first *)
  let h = make_harness 3 in
  (* both blocked on source 2 reaching 1 *)
  add h (msg ~src:0 ~seq:1 ~dep:(2, 1) "b");
  add h (msg ~src:1 ~seq:1 ~dep:(2, 1) "c");
  let order = apply_and_drain h (msg ~src:2 ~seq:1 "a") in
  check_tags "oldest ready first" [ "a"; "b"; "c" ] order

let test_cross_source_cascade () =
  (* delivery of one message enables a chain that hops across sources:
     src1#1 -> src0#2 (dep on src1) -> src2#1 (dep on src0=2) *)
  let h = make_harness 3 in
  h.apply.(0) <- 1 (* src0#1 already applied *);
  add h (msg ~src:2 ~seq:1 ~dep:(0, 2) "third");
  add h (msg ~src:0 ~seq:2 ~dep:(1, 1) "second");
  let order = apply_and_drain h (msg ~src:1 ~seq:1 "first") in
  check_tags "cross-source cascade" [ "first"; "second"; "third" ] order

let test_re_registration () =
  (* a message blocked on two constraints re-subscribes after the first
     fires, and only completes when the second does *)
  let h = make_harness 3 in
  add h (msg ~src:0 ~seq:2 ~dep:(1, 1) "w");
  (* fill the sender gap: constraint moves from (0,1) to (1,1) *)
  let order1 = apply_and_drain h (msg ~src:0 ~seq:1 "gap") in
  check_tags "still blocked on the dep" [ "gap" ] order1;
  Alcotest.(check int) "still buffered" 1 (Di.length h.buf);
  let order2 = apply_and_drain h (msg ~src:1 ~seq:1 "dep") in
  check_tags "released by the dep" [ "dep"; "w" ] order2

let test_stuck_is_parked () =
  (* a duplicate whose sequence the counter has passed is never
     returned but still occupies the buffer, like the seed Mailbox *)
  let h = make_harness 2 in
  h.apply.(0) <- 3;
  add h (msg ~src:0 ~seq:2 "dup");
  Alcotest.(check int) "parked, still counted" 1 (Di.length h.buf);
  let order = apply_and_drain h (msg ~src:0 ~seq:4 "live") in
  check_tags "dup never applied" [ "live" ] order;
  Alcotest.(check int) "dup still parked" 1 (Di.length h.buf)

let test_remove_all () =
  let h = make_harness 2 in
  List.iter
    (fun s ->
      add h (msg ~src:0 ~seq:s (string_of_int s)))
    [ 2; 3; 4; 5 ];
  let removed = Di.remove_all h.buf ~f:(fun (_, m) -> m.seq mod 2 = 0) in
  check_tags "removed oldest-first" [ "2"; "4" ] (tags removed);
  Alcotest.(check int) "two left" 2 (Di.length h.buf);
  (* a removed message's subscription must not resurrect it *)
  let order = apply_and_drain h (msg ~src:0 ~seq:1 "1") in
  check_tags "removed seq 2 stays gone; 3 unreachable" [ "1" ] order;
  Alcotest.(check (list string))
    "survivors intact" [ "3"; "5" ]
    (tags (Di.to_list h.buf))

let test_occupancy_stats () =
  let h = make_harness 2 in
  List.iter
    (fun s ->
      add h (msg ~src:0 ~seq:s (string_of_int s)))
    [ 2; 3; 4 ];
  Alcotest.(check int) "high watermark" 3 (Di.high_watermark h.buf);
  Alcotest.(check int) "total" 3 (Di.total_buffered h.buf);
  ignore (apply_and_drain h (msg ~src:0 ~seq:1 "1"));
  Alcotest.(check int) "high watermark sticks" 3 (Di.high_watermark h.buf);
  Alcotest.(check int) "total is monotone" 3 (Di.total_buffered h.buf);
  add h (msg ~src:1 ~seq:2 "x");
  Alcotest.(check int) "total counts re-adds" 4 (Di.total_buffered h.buf);
  Di.clear h.buf;
  Alcotest.(check int) "clear empties" 0 (Di.length h.buf);
  Alcotest.(check int) "clear keeps stats" 3 (Di.high_watermark h.buf)

(* ------------------------------------------------------------------ *)
(* structure-level differential: random add/advance scripts against a
   Mailbox driven by the same status oracle                            *)
(* ------------------------------------------------------------------ *)

let test_differential_vs_mailbox () =
  let n = 4 in
  List.iter
    (fun seed ->
      let rng = Dsm_sim.Rng.create seed in
      let apply_i = Array.make n 0 and apply_m = Array.make n 0 in
      let idx = Di.create () and mb = Mailbox.create () in
      let h = { apply = apply_i; buf = idx } in
      (* per-source next sequence number to issue *)
      let next_seq = Array.make n 1 in
      (* a random script: mostly adds (sequences issued in order per
         source but buffered immediately, i.e. "arrived early"), with
         interleaved applies of whatever is ready *)
      for _ = 1 to 200 do
        if Dsm_sim.Rng.bool rng then begin
          let src = Dsm_sim.Rng.int rng n in
          let seq = next_seq.(src) in
          next_seq.(src) <- seq + 1;
          let dep =
            if Dsm_sim.Rng.bool rng then
              Some (Dsm_sim.Rng.int rng n, Dsm_sim.Rng.int rng 5)
            else None
          in
          let m = { src; seq; dep; tag = Printf.sprintf "%d#%d" src seq } in
          add h m;
          Mailbox.add mb m
        end
        else begin
          (* drain both to fixpoint and require identical apply order *)
          let drain_idx () =
            Di.drain idx status apply_i ~apply:(fun _ ~src m ->
                tick h src;
                m.tag)
          in
          let drain_mb () =
            let rec go acc =
              match
                Mailbox.take_first mb ~f:(fun m ->
                    status apply_m ~src:m.src m (Di.wait idx) = Di.Ready)
              with
              | Some m ->
                  apply_m.(m.src) <- apply_m.(m.src) + 1;
                  go (m.tag :: acc)
              | None -> List.rev acc
            in
            go []
          in
          check_tags
            (Printf.sprintf "seed %d: identical drain order" seed)
            (drain_mb ()) (drain_idx ());
          Alcotest.(check int)
            (Printf.sprintf "seed %d: identical occupancy" seed)
            (Mailbox.length mb) (Di.length idx)
        end
      done;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: identical high watermark" seed)
        (Mailbox.high_watermark mb)
        (Di.high_watermark idx);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: identical total" seed)
        (Mailbox.total_buffered mb)
        (Di.total_buffered idx);
      check_tags
        (Printf.sprintf "seed %d: identical leftovers" seed)
        (List.map (fun m -> m.tag) (Mailbox.to_list mb))
        (tags (Di.to_list idx)))
    (List.init 25 (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* reference index: random scripts against the first hash-table index *)
(* ------------------------------------------------------------------ *)

(* The index as first built: polymorphic [Hashtbl]s keyed by ids and by
   [(counter, count)] tuples, a ready list of ids looked up in [live] at
   take time, and a status closure that allocates its wait. Every protocol's buffer statistics
   ([buffer_wakeup_scans] among them) were first recorded over it, and
   every campaign commit marshals the index mid-run, so
   [Delivery_index] must match it operation for operation, across a
   [Marshal] round trip too. *)
module Reference = struct
  type status = Ready | Wait_for of { counter : int; count : int } | Stuck

  type 'a entry = { id : int; payload : 'a; mutable alive : bool }

  type 'a t = {
    mutable next_id : int;
    live : (int, 'a entry) Hashtbl.t;
    waiters : (int * int, 'a entry list ref) Hashtbl.t;
    mutable ready : int list;
    mutable high : int;
    mutable total : int;
    mutable oracle : int;
  }

  let create () =
    {
      next_id = 0;
      live = Hashtbl.create 64;
      waiters = Hashtbl.create 64;
      ready = [];
      high = 0;
      total = 0;
      oracle = 0;
    }

  let length t = Hashtbl.length t.live

  let subscribe t e ~counter ~count =
    let key = (counter, count) in
    match Hashtbl.find_opt t.waiters key with
    | Some bucket -> bucket := e :: !bucket
    | None -> Hashtbl.add t.waiters key (ref [ e ])

  let rec insert_ready id = function
    | [] -> [ id ]
    | id' :: _ as l when id < id' -> id :: l
    | id' :: rest -> id' :: insert_ready id rest

  let route t ~status ~enqueue e =
    t.oracle <- t.oracle + 1;
    match status e.payload with
    | Ready -> enqueue e.id
    | Wait_for { counter; count } -> subscribe t e ~counter ~count
    | Stuck -> ()

  let add t ~status x =
    let e = { id = t.next_id; payload = x; alive = true } in
    t.next_id <- t.next_id + 1;
    Hashtbl.add t.live e.id e;
    t.total <- t.total + 1;
    let len = Hashtbl.length t.live in
    if len > t.high then t.high <- len;
    route t ~status ~enqueue:(fun id -> t.ready <- insert_ready id t.ready) e

  let rec merge_sorted a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, (y :: _ as l) when x < y -> x :: merge_sorted xs l
    | l, y :: ys -> y :: merge_sorted l ys

  let note_advance t ~status ~counter ~count =
    let key = (counter, count) in
    match Hashtbl.find_opt t.waiters key with
    | None -> ()
    | Some bucket ->
        Hashtbl.remove t.waiters key;
        let woken = ref [] in
        List.iter
          (fun e ->
            if e.alive then
              route t ~status ~enqueue:(fun id -> woken := id :: !woken) e)
          !bucket;
        if !woken <> [] then
          t.ready <- merge_sorted (List.sort Int.compare !woken) t.ready

  let rec take_ready t ~status =
    match t.ready with
    | [] -> None
    | id :: rest -> (
        t.ready <- rest;
        match Hashtbl.find_opt t.live id with
        | None -> take_ready t ~status
        | Some e when not e.alive -> take_ready t ~status
        | Some e -> (
            t.oracle <- t.oracle + 1;
            match status e.payload with
            | Ready ->
                e.alive <- false;
                Hashtbl.remove t.live id;
                Some e.payload
            | Wait_for { counter; count } ->
                subscribe t e ~counter ~count;
                take_ready t ~status
            | Stuck -> take_ready t ~status))

  let live_entries_oldest_first t =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.live []
    |> List.sort (fun a b -> Int.compare a.id b.id)

  let to_list t = List.map (fun e -> e.payload) (live_entries_oldest_first t)

  let remove_all t ~f =
    let removed =
      List.filter (fun e -> f e.payload) (live_entries_oldest_first t)
    in
    List.iter
      (fun e ->
        e.alive <- false;
        Hashtbl.remove t.live e.id)
      removed;
    List.map (fun e -> e.payload) removed

  let high_watermark t = t.high
  let total_buffered t = t.total
  let oracle_calls t = t.oracle

  let clear t =
    Hashtbl.reset t.live;
    Hashtbl.reset t.waiters;
    t.ready <- []
end

type script_op =
  | Add of msg
  | Take  (** take one ready message and apply it *)
  | Drain  (** take and apply until nothing is ready *)
  | Advance of int  (** a counter advances outside the buffer *)
  | Remove of int  (** [remove_all] of the messages with [seq mod 3 = r] *)
  | Clear
  | Round_trip  (** marshal both buffers and go on with the copies *)

let pp_script_op = function
  | Add m ->
      Printf.sprintf "add %d#%d%s" m.src m.seq
        (match m.dep with
        | Some (k, c) -> Printf.sprintf " dep %d>=%d" k c
        | None -> "")
  | Take -> "take"
  | Drain -> "drain"
  | Advance k -> Printf.sprintf "advance %d" k
  | Remove r -> Printf.sprintf "remove seq%%3=%d" r
  | Clear -> "clear"
  | Round_trip -> "round trip"

let script_n = 3

let gen_script_op =
  QCheck2.Gen.(
    frequency
      [
        ( 8,
          map3
            (fun src seq dep ->
              Add { src; seq; dep; tag = Printf.sprintf "%d#%d" src seq })
            (int_bound (script_n - 1))
            (int_range 1 6)
            (opt (pair (int_bound (script_n - 1)) (int_range 1 6))) );
        (3, pure Take);
        (2, pure Drain);
        (2, map (fun k -> Advance k) (int_bound (script_n - 1)));
        (1, map (fun r -> Remove r) (int_bound 2));
        (1, pure Clear);
        (1, pure Round_trip);
      ])

let round_trip (x : 'a) : 'a = Marshal.from_string (Marshal.to_string x []) 0

(* the harness's oracle in the reference's terms *)
let reference_status apply m : Reference.status =
  let w = { Di.resume = 0; counter = 0; count = 0 } in
  match status apply ~src:m.src m w with
  | Di.Ready -> Ready
  | Wait -> Wait_for { counter = w.counter; count = w.count }
  | Stuck -> Stuck

(* Both buffers run the same script in lockstep over one apply vector:
   each take is compared before its apply ticks the counter, and every
   statistic and the buffered list are compared after every step. *)
let prop_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"matches the reference index" ~count:300
       ~print:QCheck2.Print.(list pp_script_op)
       QCheck2.Gen.(list_size (int_range 1 80) gen_script_op)
       (fun script ->
         let h = make_harness script_n in
         let refb = ref (Reference.create ()) and idx = ref h.buf in
         let ref_status = reference_status h.apply in
         let advance k =
           h.apply.(k) <- h.apply.(k) + 1;
           Reference.note_advance !refb ~status:ref_status ~counter:k ~count:h.apply.(k);
           Di.note_advance !idx status h.apply ~counter:k ~count:h.apply.(k)
         in
         let take () =
           let a = Reference.take_ready !refb ~status:ref_status in
           let b = take_one !idx h.apply in
           if a <> b then
             QCheck2.Test.fail_reportf "take: reference %s, index %s"
               (Option.fold ~none:"-" ~some:(fun m -> m.tag) a)
               (Option.fold ~none:"-" ~some:(fun m -> m.tag) b);
           Option.iter (fun m -> advance m.src) a;
           a <> None
         in
         let tags l = String.concat " " (List.map (fun m -> m.tag) l) in
         let same what a b =
           if a <> b then
             QCheck2.Test.fail_reportf "%s: reference %d, index %d" what a b
         in
         List.iter
           (fun op ->
             (match op with
             | Add m ->
                 Reference.add !refb ~status:ref_status m;
                 add_to !idx h.apply m
             | Take -> ignore (take ())
             | Drain -> while take () do () done
             | Advance k -> advance k
             | Remove r ->
                 let f m = m.seq mod 3 = r in
                 let a = Reference.remove_all !refb ~f in
                 let b = List.map snd (Di.remove_all !idx ~f:(fun (_, m) -> f m)) in
                 if a <> b then
                   QCheck2.Test.fail_reportf "remove_all: reference [%s], \
                                              index [%s]"
                     (tags a) (tags b)
             | Clear ->
                 Reference.clear !refb;
                 Di.clear !idx
             | Round_trip ->
                 refb := round_trip !refb;
                 idx := round_trip !idx);
             same "length" (Reference.length !refb) (Di.length !idx);
             same "high_watermark"
               (Reference.high_watermark !refb)
               (Di.high_watermark !idx);
             same "total_buffered"
               (Reference.total_buffered !refb)
               (Di.total_buffered !idx);
             same "oracle_calls"
               (Reference.oracle_calls !refb)
               (Di.oracle_calls !idx);
             let a = Reference.to_list !refb
             and b = List.map snd (Di.to_list !idx) in
             if a <> b then
               QCheck2.Test.fail_reportf "to_list: reference [%s], index [%s]"
                 (tags a) (tags b))
           script;
         true))

(* ------------------------------------------------------------------ *)
(* reference receiver: OptP, ANBKH and OptP-WS against the receive they
   were first written with                                             *)
(* ------------------------------------------------------------------ *)

module Protocol = Dsm_core.Protocol
module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot

(* what the reference reads of a wire message *)
type 'm view = {
  dot : 'm -> Dot.t;
  vec : 'm -> V.t;  (** [Write_co], or ANBKH's vector time *)
  overwrites : 'm -> Dot.t option;
      (** the write an OptP-WS message may skip, if it may skip one *)
}

(* The receive of OptP, ANBKH and OptP-WS as first written, over the
   reference index: every evaluation scans the wait condition from
   component 0, and the wakeup constraint is [waiting_for]'s, asked
   after a receive that applied and skipped nothing (the protocols now
   report it in the receive's effects). With no message that may skip, OptP-WS's receive
   is OptP's, and OptP's is ANBKH's over another vector. *)
module Reference_receiver = struct
  type 'm t = {
    mutable n : int;
    apply : V.t;
    buf : (int * 'm) Reference.t;
    mutable overwritten : Dot.Set.t;
  }

  let create n =
    {
      n;
      apply = V.create n;
      buf = Reference.create ();
      overwritten = Dot.Set.empty;
    }

  let grow r n =
    r.n <- n;
    V.grow r.apply n

  let status view r ((src, m) : int * _) : Reference.status =
    let w = view.vec m in
    let a_src = V.get0 r.apply src and w_src = V.get0 w src in
    if a_src < w_src - 1 then Wait_for { counter = src; count = w_src - 1 }
    else if a_src > w_src - 1 then Stuck
    else
      let n = min r.n (V.size w) in
      let rec scan k =
        if k >= n then Reference.Ready
        else if k <> src && V.get w k > V.get r.apply k then
          Wait_for { counter = k; count = V.get w k }
        else scan (k + 1)
      in
      scan 0

  let waiting_for view r ~src m =
    if Dot.Set.mem (view.dot m) r.overwritten then None
    else
      match status view r (src, m) with
      | Wait_for { counter; count } ->
          Some (Dot.make ~replica:counter ~seq:count)
      | Ready | Stuck -> None

  let tick view r k =
    V.tick r.apply k;
    Reference.note_advance r.buf ~status:(status view r) ~counter:k
      ~count:(V.get r.apply k)

  let apply view r ~src m ~from_buffer =
    tick view r src;
    (view.dot m, from_buffer)

  (* OptP-WS: [m] may skip [d] when [d] is its issuer's next write and
     [m] is deliverable once [d] counts as applied *)
  let skippable view r ~src m =
    match view.overwrites m with
    | Some d
      when (not (Dot.Set.mem d r.overwritten))
           && V.get r.apply (Dot.replica d) = Dot.seq d - 1 ->
        let w = view.vec m in
        let bump k = V.get0 r.apply k + if k = Dot.replica d then 1 else 0 in
        let ok = ref (bump src = V.get0 w src - 1) in
        for k = 0 to min r.n (V.size w) - 1 do
          if k <> src && V.get w k > bump k then ok := false
        done;
        if !ok then Some d else None
    | Some _ | None -> None

  let remove view r d =
    ignore (Reference.remove_all r.buf ~f:(fun (_, b) -> Dot.equal (view.dot b) d))

  let skip view r d =
    r.overwritten <- Dot.Set.add d r.overwritten;
    remove view r d

  let drain view r =
    let rec go applied skipped =
      match Reference.take_ready r.buf ~status:(status view r) with
      | Some (src, m) ->
          go (apply view r ~src m ~from_buffer:true :: applied) skipped
      | None -> (
          let candidate (src, m) =
            Option.map (fun d -> (src, m, d)) (skippable view r ~src m)
          in
          match List.find_map candidate (Reference.to_list r.buf) with
          | Some (src, m, d) ->
              skip view r d;
              remove view r (view.dot m);
              tick view r (Dot.replica d);
              go (apply view r ~src m ~from_buffer:true :: applied)
                (d :: skipped)
          | None -> (List.rev applied, List.rev skipped))
    in
    go [] []

  (* applied [(dot, from_buffer)] and skipped dots, in order *)
  let receive view r ~src m =
    if Dot.Set.mem (view.dot m) r.overwritten then ([], [])
    else
      match status view r (src, m) with
      | Ready ->
          let first = apply view r ~src m ~from_buffer:false in
          let applied, skipped = drain view r in
          (first :: applied, skipped)
      | Wait_for _ | Stuck -> (
          match skippable view r ~src m with
          | Some d ->
              skip view r d;
              tick view r (Dot.replica d);
              let first = apply view r ~src m ~from_buffer:false in
              let applied, skipped = drain view r in
              (first :: applied, d :: skipped)
          | None ->
              Reference.add r.buf ~status:(status view r) (src, m);
              ([], []))
end

let receiver_n = 4
let receiver_m = 3

(* The wire messages of three senders (processes 0-2) running the
   protocol itself: writes, reads and deliveries among themselves in a
   random order, so their vectors carry real causal pasts. The receiver
   under test is process 3. *)
let receiver = receiver_n - 1

let sender_messages (type t m)
    (module P : Protocol.S with type t = t and type msg = m) rng =
  let cfg = Protocol.config ~n:receiver_n ~m:receiver_m in
  let procs = Array.init receiver_n (fun me -> P.create cfg ~me) in
  let inbox = Array.make receiver_n [] and pool = ref [] in
  let sent src (eff : m Protocol.effects) =
    List.iter
      (function
        | Protocol.Broadcast msg ->
            pool := (src, msg) :: !pool;
            for dst = 0 to receiver - 1 do
              if dst <> src then inbox.(dst) <- inbox.(dst) @ [ (src, msg) ]
            done
        | Protocol.Unicast _ -> ())
      eff.to_send
  in
  for _ = 1 to 36 do
    let p = Random.State.int rng receiver in
    let var = Random.State.int rng receiver_m in
    match Random.State.int rng 3 with
    | 0 -> sent p (snd (P.write procs.(p) ~var ~value:(Random.State.int rng 9)))
    | 1 -> ignore (P.read procs.(p) ~var)
    | _ -> (
        match inbox.(p) with
        | [] -> ()
        | l ->
            let i = Random.State.int rng (List.length l) in
            let src, msg = List.nth l i in
            inbox.(p) <- List.filteri (fun j _ -> j <> i) l;
            sent p (P.receive procs.(p) ~src msg))
  done;
  Array.of_list (List.rev !pool)

type receiver_op = Deliver of int | Grow | Restore

(* every message once, in a random order, with duplicates, growth and
   snapshot/restore at random points *)
let receiver_script rng count =
  let order = Array.init count Fun.id in
  for i = count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  List.concat_map
    (fun i ->
      let extra =
        match Random.State.int rng 20 with
        | 0 -> [ Grow ]
        | 1 | 2 -> [ Restore ]
        | 3 | 4 | 5 -> [ Deliver (Random.State.int rng count) ]
        | _ -> []
      in
      Deliver i :: extra)
    (Array.to_list order)

let prop_reference_receiver (type t m) name
    (module P : Protocol.S with type t = t and type msg = m) (view : m view) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:200 ~print:string_of_int QCheck2.Gen.int
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let pool = sender_messages (module P) rng in
         let n = ref receiver_n in
         let cfg () = Protocol.config ~n:!n ~m:receiver_m in
         let t = ref (P.create (cfg ()) ~me:receiver) in
         let r = ref (Reference_receiver.create receiver_n) in
         let dots l = String.concat " " (List.map Dot.to_string l) in
         let wait = Option.fold ~none:"-" ~some:Dot.to_string in
         List.iter
           (function
             | Deliver i ->
                 let src, msg = pool.(i) in
                 let eff = P.receive !t ~src msg in
                 let applied =
                   List.map
                     (fun (a : Protocol.apply_record) ->
                       (a.adot, a.afrom_buffer))
                     eff.applied
                 in
                 let waits = eff.waiting_for in
                 let applied', skipped' =
                   Reference_receiver.receive view !r ~src msg
                 in
                 let waits' =
                   if applied' = [] && skipped' = [] then
                     Reference_receiver.waiting_for view !r ~src msg
                   else None
                 in
                 let what = Dot.to_string (view.dot msg) in
                 if applied <> applied' then
                   QCheck2.Test.fail_reportf "%s: applied [%s], reference [%s]"
                     what
                     (dots (List.map fst applied))
                     (dots (List.map fst applied'));
                 if eff.skipped <> skipped' then
                   QCheck2.Test.fail_reportf "%s: skipped [%s], reference [%s]"
                     what (dots eff.skipped) (dots skipped');
                 if waits <> waits' then
                   QCheck2.Test.fail_reportf "%s: waits for %s, reference %s"
                     what (wait waits) (wait waits');
                 let scans = P.buffer_wakeup_scans !t
                 and scans' = Reference.oracle_calls !r.buf in
                 if scans <> scans' then
                   QCheck2.Test.fail_reportf
                     "%s: %d wakeup scans, reference %d" what scans scans';
                 if P.buffered !t <> Reference.length !r.buf then
                   QCheck2.Test.fail_reportf "%s: %d buffered, reference %d"
                     what (P.buffered !t) (Reference.length !r.buf)
             | Grow ->
                 incr n;
                 P.grow !t ~n:!n;
                 Reference_receiver.grow !r !n
             | Restore ->
                 t := P.restore (cfg ()) ~me:receiver (P.snapshot !t);
                 r := round_trip !r)
           (receiver_script rng (Array.length pool));
         true))

let optp_view =
  {
    dot = (fun (m : Dsm_core.Opt_p.message) -> m.dot);
    vec = (fun m -> m.wco);
    overwrites = (fun _ -> None);
  }

let anbkh_view =
  {
    dot = (fun (m : Dsm_core.Anbkh.message) -> m.dot);
    vec = (fun m -> m.vt);
    overwrites = (fun _ -> None);
  }

let optp_ws_view =
  {
    dot = (fun (m : Dsm_core.Opt_p_ws.message) -> m.dot);
    vec = (fun m -> m.wco);
    overwrites = (fun m -> if m.can_skip then m.prev else None);
  }

let () =
  Alcotest.run "delivery_index"
    [
      ( "index",
        [
          Alcotest.test_case "empty buffer" `Quick test_empty;
          Alcotest.test_case "single-source chained unblocking" `Quick
            test_single_source_chain;
          Alcotest.test_case "oldest ready first" `Quick
            test_oldest_ready_first;
          Alcotest.test_case "cross-source cascade" `Quick
            test_cross_source_cascade;
          Alcotest.test_case "re-registration across constraints" `Quick
            test_re_registration;
          Alcotest.test_case "stuck messages are parked" `Quick
            test_stuck_is_parked;
          Alcotest.test_case "remove_all cancels subscriptions" `Quick
            test_remove_all;
          Alcotest.test_case "occupancy statistics" `Quick
            test_occupancy_stats;
          Alcotest.test_case "differential vs Mailbox (25 scripts)" `Quick
            test_differential_vs_mailbox;
        ] );
      ("reference", [ prop_matches_reference ]);
      ( "receiver",
        [
          prop_reference_receiver "OptP" (module Dsm_core.Opt_p) optp_view;
          prop_reference_receiver "ANBKH" (module Dsm_core.Anbkh) anbkh_view;
          prop_reference_receiver "OptP-WS" (module Dsm_core.Opt_p_ws)
            optp_ws_view;
        ] );
    ]
