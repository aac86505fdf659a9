(* The indexed event queue against its reference.

   [Event_queue.Indexed] (the calendar queue on the engine's hot path)
   and [Event_queue.Heap] (the retired pairing-heap + payload-table
   implementation, kept as the differential reference) implement the
   same signature and the same contract: pops come out in strictly
   ascending [(time, seq)] — seq being global insertion order, so ties
   in time resolve to scheduling order. The property suite drives both
   through identical random op sequences (schedules with duplicate
   times from a small discrete set, interleaved pops, clears) and
   through hold-model schedules of thousands of events in flight that
   cross the calendar's rebuckets, and demands identical observable
   traces. The walk pin bounds the calendar's two walks per operation
   on the hold model.

   The retention regression pins the tentpole's steady-state claim: a
   long schedule/pop run with a bounded number of in-flight events must
   keep the number of live payload slots bounded by that in-flight
   count (vacated cells are dummied, not retained), and [clear] must
   release every payload at once. *)

module Q = Dsm_sim.Event_queue
module Sim_time = Dsm_sim.Sim_time

let qcheck ~name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ---------------------------------------------------------------- *)
(* random op sequences                                               *)
(* ---------------------------------------------------------------- *)

type op = Push of float | Pop | Clear

(* duplicate times on purpose: a small discrete time domain makes
   same-time collisions the common case, which is exactly where the
   (time, seq) tie-break must match the reference *)
let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun k -> Push (float_of_int k *. 0.5)) (int_bound 8));
        (3, pure Pop);
        (1, pure Clear);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 200) op_gen)

(* run one implementation through the ops, folding every observable
   into a trace string: pop results (time, seq-order payload), pop on
   empty, peek_time after each op, sizes *)
let trace (module I : Q.S) ops =
  let q = I.create () in
  let buf = Buffer.create 256 in
  let payload = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Push at ->
          incr payload;
          I.schedule q ~at:(Sim_time.of_float at) !payload;
          Buffer.add_string buf (Printf.sprintf "push%d;" !payload)
      | Pop -> (
          match I.pop q with
          | Some (t, p) ->
              Buffer.add_string buf
                (Printf.sprintf "pop%.1f:%d;" (Sim_time.to_float t) p)
          | None -> Buffer.add_string buf "pop-empty;")
      | Clear ->
          I.clear q;
          Buffer.add_string buf "clear;");
      Buffer.add_string buf
        (Printf.sprintf "size%d,peek%s;" (I.size q)
           (match I.peek_time q with
           | Some t -> Printf.sprintf "%.1f" (Sim_time.to_float t)
           | None -> "-")))
    ops;
  (* drain whatever is left: full order equivalence, not just prefix *)
  let rec drain () =
    match I.pop q with
    | Some (t, p) ->
        Buffer.add_string buf
          (Printf.sprintf "drain%.1f:%d;" (Sim_time.to_float t) p);
        drain ()
    | None -> ()
  in
  drain ();
  Buffer.contents buf

let prop_differential =
  qcheck ~name:"indexed and heap drain any schedule identically" ~count:500
    ops_gen (fun ops ->
      String.equal (trace (module Q.Indexed) ops) (trace (module Q.Heap) ops))

(* ---------------------------------------------------------------- *)
(* hold-model schedules                                              *)
(* ---------------------------------------------------------------- *)

(* The hold model of event-queue studies: a few thousand events in
   flight, each pop schedules the next at the popped time plus a
   lognormal(2, 1.2) gap (the static-reorder latency), with same-instant
   bursts, pops that schedule nothing, and rare clears that refill the
   queue from the current time. The ops depend on what is popped, so
   both queues are driven in lockstep from one seed and must agree on
   every pop and peek. Targets above 1,024 and 8,192 pending events
   cross the calendar's rebucket triggers. *)
type hold = { seed : int; target : int; steps : int }

let hold_gen =
  QCheck2.Gen.(
    map3
      (fun seed target steps -> { seed; target; steps })
      (int_bound 1_000_000) (int_range 600 9_000) (int_range 2_000 12_000))

let print_hold h =
  Printf.sprintf "{seed=%d; target=%d; steps=%d}" h.seed h.target h.steps

(* drive [Indexed] and [Heap] through one hold schedule; [on_pop] sees
   every popped (time, payload) of the indexed queue *)
let hold_lockstep ?(on_pop = fun _ _ -> ()) h =
  let module R = Dsm_sim.Rng in
  let rng = R.create h.seed in
  let a = Q.Indexed.create () and b = Q.Heap.create () in
  let payload = ref 0 and now = ref 0. and ok = ref true in
  let schedule at =
    incr payload;
    let at = Sim_time.of_float at in
    Q.Indexed.schedule a ~at !payload;
    Q.Heap.schedule b ~at !payload
  in
  let gap () = R.lognormal rng ~mu:2. ~sigma:1.2 in
  let fill () =
    while Q.Indexed.size a < h.target do
      schedule (!now +. gap ())
    done
  in
  fill ();
  for _ = 1 to h.steps do
    let u = R.float rng in
    if u < 0.0003 then begin
      Q.Indexed.clear a;
      Q.Heap.clear b;
      fill ()
    end
    else begin
      (match (Q.Indexed.pop a, Q.Heap.pop b) with
      | Some (ta, pa), Some (tb, pb) ->
          if not (Sim_time.equal ta tb && pa = pb) then ok := false;
          now := Sim_time.to_float ta;
          on_pop !now pa
      | None, None -> ()
      | _ -> ok := false);
      if u < 0.05 then begin
        (* a same-instant burst *)
        let at = !now +. gap () in
        for _ = 1 to 2 + R.int rng 7 do
          schedule at
        done
      end
      else if u < 0.15 && Q.Indexed.size a > h.target / 2 then
        (* a pop that schedules nothing *)
        ()
      else schedule (!now +. gap ())
    end;
    if
      Q.Indexed.size a <> Q.Heap.size b
      || Q.Indexed.peek_time a <> Q.Heap.peek_time b
    then ok := false
  done;
  let rec drain () =
    match (Q.Indexed.pop a, Q.Heap.pop b) with
    | Some (ta, pa), Some (tb, pb) ->
        if not (Sim_time.equal ta tb && pa = pb) then ok := false;
        drain ()
    | None, None -> ()
    | _ -> ok := false
  in
  drain ();
  (!ok, a)

let prop_hold_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"hold model with lognormal gaps" ~count:30
       ~print:print_hold hold_gen (fun h -> fst (hold_lockstep h)))

(* the walk pin: on the static-reorder shape (about 4,000 events in
   flight under lognormal(2, 1.2) delays) a width taken from the span
   left hundreds of head events to a day, and inserts scanned 31.9
   entries each on this schedule (54 on a static-reorder run); the
   head's spacing keeps both walks short *)
let test_hold_walk () =
  let ok, q = hold_lockstep { seed = 1000; target = 4_000; steps = 40_000 } in
  Alcotest.(check bool) "lockstep with the reference" true ok;
  let per n = float_of_int n /. float_of_int (Q.Indexed.scheduled_total q) in
  let walk = per (Q.Indexed.insert_walk q)
  and days = per (Q.Indexed.cursor_walk q) in
  Alcotest.(check bool)
    (Printf.sprintf "insertion walk %.2f per insert under 4" walk)
    true (walk < 4.);
  Alcotest.(check bool)
    (Printf.sprintf "cursor walk %.2f per pop under 2" days)
    true (days < 2.)

(* the exn/option API pair must agree with itself on both impls *)
let prop_exn_matches_option =
  qcheck ~name:"pop_exn/next_time_exn agree with pop/peek_time" ~count:200
    ops_gen (fun ops ->
      List.for_all
        (fun (module I : Q.S) ->
          let a = I.create () and b = I.create () in
          let n = ref 0 in
          List.iter
            (fun op ->
              (match op with
              | Push at ->
                  incr n;
                  I.schedule a ~at:(Sim_time.of_float at) !n;
                  I.schedule b ~at:(Sim_time.of_float at) !n
              | Pop | Clear -> ());
              if not (I.is_empty a) then begin
                let ta = I.next_time_exn a and pa = I.pop_exn a in
                match I.pop b with
                | Some (tb, pb) ->
                    if not (Sim_time.equal ta tb && pa = pb) then
                      QCheck2.Test.fail_report "exn/option disagree"
                | None -> QCheck2.Test.fail_report "option empty, exn not"
              end)
            ops;
          I.size a = I.size b)
        [ (module Q.Indexed); (module Q.Heap) ])

(* ---------------------------------------------------------------- *)
(* steady-state retention                                            *)
(* ---------------------------------------------------------------- *)

let test_retention_bounded () =
  (* a long run that never holds more than [width] events in flight:
     live payloads must track the in-flight count exactly — the
     vacated cells of the flat heap are dummied on every pop, so
     nothing the queue has popped is still reachable through it *)
  let q = Q.create () in
  let width = 16 in
  for round = 0 to 10_000 do
    Q.schedule q
      ~at:(Sim_time.of_float (float_of_int (round mod 97)))
      (round, "payload");
    if Q.size q >= width then ignore (Q.pop_exn q)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "live payloads (%d) bounded by in-flight width"
       (Q.retained_payloads q))
    true
    (Q.retained_payloads q <= width);
  Alcotest.(check int) "retained = size in steady state" (Q.size q)
    (Q.retained_payloads q);
  (* capacity settled at a small power-of-two over the width, not at
     the 10k total it saw pass through *)
  Alcotest.(check bool)
    (Printf.sprintf "capacity (%d) bounded by the high watermark"
       (Q.capacity q))
    true
    (Q.capacity q <= 64);
  (* clear releases every payload at once *)
  Q.clear q;
  Alcotest.(check int) "clear drops to zero live payloads" 0
    (Q.retained_payloads q);
  Alcotest.(check int) "clear empties" 0 (Q.size q);
  (* and scheduling after clear still works, with seq monotone (no
     stale-order resurrection) *)
  Q.schedule q ~at:(Sim_time.of_float 1.) (1, "a");
  Q.schedule q ~at:(Sim_time.of_float 1.) (2, "b");
  Alcotest.(check bool) "same-time order survives clear" true
    (match (Q.pop q, Q.pop q) with
    | Some (_, (1, _)), Some (_, (2, _)) -> true
    | _ -> false)

let test_heap_reference_retention () =
  (* the reference keeps its payload table in lockstep too — the
     differential suite depends on both impls agreeing on
     [retained_payloads] *)
  let q = Q.Heap.create () in
  for i = 0 to 999 do
    Q.Heap.schedule q ~at:(Sim_time.of_float (float_of_int (i mod 13))) i;
    if Q.Heap.size q >= 8 then ignore (Q.Heap.pop_exn q)
  done;
  Alcotest.(check int) "heap retained = size" (Q.Heap.size q)
    (Q.Heap.retained_payloads q);
  Q.Heap.clear q;
  Alcotest.(check int) "heap clear drops payloads" 0
    (Q.Heap.retained_payloads q)

let () =
  Alcotest.run "event_queue"
    [
      ( "differential",
        [ prop_differential; prop_exn_matches_option; prop_hold_model ] );
      ( "retention",
        [
          Alcotest.test_case "indexed: live payloads bounded by in-flight"
            `Quick test_retention_bounded;
          Alcotest.test_case "heap reference keeps lockstep" `Quick
            test_heap_reference_retention;
        ] );
      ( "walks",
        [ Alcotest.test_case "hold model walks per operation" `Quick
            test_hold_walk ] );
    ]
