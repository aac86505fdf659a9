(* Tests for the runtime layer: Execution recording/queries, Sim_run
   driving, Checker verdicts (including deliberately broken runs), and
   the Experiment plumbing. *)

module Execution = Dsm_runtime.Execution
module Sim_run = Dsm_runtime.Sim_run
module Scripted_run = Dsm_runtime.Scripted_run
module Checker = Dsm_runtime.Checker
module Experiment = Dsm_runtime.Experiment
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Sim_time = Dsm_sim.Sim_time
module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock
module Operation = Dsm_memory.Operation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dot r s = Dot.make ~replica:r ~seq:s
let t f = Sim_time.of_float f

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* a tiny hand-written execution: p0 writes, p1 receives and applies,
   then reads *)
let mini_execution () =
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 7; delayed = false });
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Send { dot = dot 0 1; var = 0; value = 7 });
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Receipt { dot = dot 0 1; src = 0 });
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 7; delayed = false });
  Execution.record e ~proc:1 ~time:(t 3.)
    (Execution.Return
       { var = 0; value = Operation.Val 7; read_from = Some (dot 0 1) });
  e

let test_execution_queries () =
  let e = mini_execution () in
  check_int "events" 5 (Execution.event_count e);
  check_int "events at p0" 2 (List.length (Execution.events_of e 0));
  check_int "events at p1" 3 (List.length (Execution.events_of e 1));
  Alcotest.(check (list string)) "apply order at p1" [ "w1#1" ]
    (List.map Dot.to_string (Execution.apply_order e 1));
  check_bool "apply position" true
    (Execution.apply_position e ~proc:1 ~dot:(dot 0 1) = Some 1);
  check_bool "receipt position" true
    (Execution.receipt_position e ~proc:1 ~dot:(dot 0 1) = Some 0);
  check_bool "apply time" true
    (Execution.apply_time e ~proc:1 ~dot:(dot 0 1) = Some (t 2.));
  check_int "no delays" 0 (Execution.delay_count e);
  check_int "applies" 2 (Execution.apply_count e);
  check_int "skips" 0 (Execution.skip_count e)

let test_execution_writes_and_history () =
  let e = mini_execution () in
  (match Execution.writes e with
  | [ (d, 0, 7) ] -> check_bool "the write" true (Dot.equal d (dot 0 1))
  | _ -> Alcotest.fail "expected one write");
  let h = Execution.to_history e in
  check_int "ops" 2 (Dsm_memory.History.op_count h);
  check_bool "well-formed" true (Dsm_memory.History.validate h = Ok ())

let test_execution_apply_latencies () =
  let e = mini_execution () in
  Alcotest.(check (list (float 1e-9))) "remote apply latency 0" [ 0. ]
    (Execution.apply_latencies e)

let test_execution_rejects_bad_proc () =
  let e = Execution.create ~n:2 ~m:1 () in
  Alcotest.check_raises "record"
    (Invalid_argument "Execution.record: process id out of range")
    (fun () ->
      Execution.record e ~proc:2 ~time:(t 0.) (Execution.Skip { dot = dot 0 1 }))

let test_execution_out_of_order_own_writes_rejected () =
  let e = Execution.create ~n:1 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:0 ~time:(t 1.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 2; delayed = false });
  check_bool "to_history raises" true
    (try
       ignore (Execution.to_history e);
       false
     with Invalid_argument _ -> true)

(* Random event sequences recorded into an execution read back as a
   plain list model says they should: every kind, dots of nonzero
   generation, ⊥ and valued returns with and without a read-from, and
   on process 0, which takes most of them, often more than one 256-row
   chunk. Small dot and variable domains make repeated dots, and so
   first-match positions, the common case. *)
let rt_n = 3

let gen_rt_dot =
  QCheck2.Gen.(
    map3
      (fun replica gen seq -> Dot.make_gen ~replica ~gen ~seq)
      (int_bound (rt_n - 1))
      (frequency [ (3, pure 0); (1, int_range 1 3) ])
      (int_range 1 12))

let gen_rt_kind =
  QCheck2.Gen.(
    let var = int_bound 2 and value = int_range (-5) 40 in
    oneof
      [
        map3
          (fun dot var value -> Execution.Send { dot; var; value })
          gen_rt_dot var value;
        map2
          (fun dot src -> Execution.Receipt { dot; src })
          gen_rt_dot (int_bound (rt_n - 1));
        map2
          (fun dot waiting_for -> Execution.Blocked { dot; waiting_for })
          gen_rt_dot gen_rt_dot;
        map4
          (fun dot var value delayed ->
            Execution.Apply { dot; var; value; delayed })
          gen_rt_dot var value bool;
        map (fun dot -> Execution.Skip { dot }) gen_rt_dot;
        map3
          (fun var value read_from ->
            Execution.Return { var; value; read_from })
          var
          (oneof [ pure Operation.Bot; map (fun v -> Operation.Val v) value ])
          (option gen_rt_dot);
      ])

let gen_rt_events =
  QCheck2.Gen.(
    list_size (int_range 0 1600)
      (map3
         (fun proc k kind ->
           { Execution.proc; time = t (float_of_int k *. 0.25); kind })
         (frequency [ (5, pure 0); (1, int_bound (rt_n - 1)) ])
         (int_bound 4000) gen_rt_kind))

let print_rt_events evs =
  String.concat "\n"
    (List.map
       (fun (ev : Execution.event) ->
         Format.asprintf "p%d %a" ev.proc Execution.pp_event ev)
       evs)

let prop_execution_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"round trip against a list model" ~count:100
       ~print:print_rt_events gen_rt_events (fun evs ->
         let e = Execution.create ~n:rt_n ~m:3 () in
         List.iter
           (fun (ev : Execution.event) ->
             Execution.record e ~proc:ev.proc ~time:ev.time ev.kind)
           evs;
         let procs = List.init rt_n Fun.id in
         let of_proc p =
           List.filter (fun (ev : Execution.event) -> ev.proc = p) evs
         in
         let applies =
           List.filter_map
             (fun (ev : Execution.event) ->
               match ev.kind with
               | Execution.Apply { dot; var; value; delayed } ->
                   Some (ev.proc, dot, var, value, delayed)
               | _ -> None)
             evs
         in
         let delayed =
           List.filter_map
             (fun (p, dot, _, _, d) -> if d then Some (p, dot) else None)
             applies
         in
         let count f =
           List.length
             (List.filter (fun (ev : Execution.event) -> f ev.kind) evs)
         in
         (* the model's first matching event of [p]: position and time *)
         let first p f =
           let rec go i = function
             | [] -> None
             | (ev : Execution.event) :: rest ->
                 if f ev.kind then Some (i, ev.time) else go (i + 1) rest
           in
           go 0 (of_proc p)
         in
         let is_apply d = function
           | Execution.Apply { dot; _ } -> Dot.equal dot d
           | _ -> false
         and is_receipt d = function
           | Execution.Receipt { dot; _ } -> Dot.equal dot d
           | _ -> false
         in
         (* every dot the run names, plus one it never does *)
         let dots =
           Dot.make ~replica:0 ~seq:99
           :: List.concat_map
                (fun (ev : Execution.event) ->
                  match ev.kind with
                  | Execution.Send { dot; _ }
                  | Execution.Receipt { dot; _ }
                  | Execution.Apply { dot; _ }
                  | Execution.Skip { dot } ->
                      [ dot ]
                  | Execution.Blocked { dot; waiting_for } ->
                      [ dot; waiting_for ]
                  | Execution.Return { read_from; _ } ->
                      Option.to_list read_from)
                evs
           |> List.sort_uniq Dot.compare
         in
         let positions_agree p d =
           let a = first p (is_apply d) and r = first p (is_receipt d) in
           Execution.apply_position e ~proc:p ~dot:d = Option.map fst a
           && Execution.receipt_position e ~proc:p ~dot:d = Option.map fst r
           && Execution.apply_time e ~proc:p ~dot:d = Option.map snd a
           && Execution.receipt_time e ~proc:p ~dot:d = Option.map snd r
         in
         let checks =
           [
             ("events", Execution.events e = evs);
             ( "events_of",
               List.for_all (fun p -> Execution.events_of e p = of_proc p) procs
             );
             ("event_count", Execution.event_count e = List.length evs);
             ( "apply_order",
               List.for_all
                 (fun p ->
                   Execution.apply_order e p
                   = List.filter_map
                       (fun (q, dot, _, _, _) ->
                         if q = p then Some dot else None)
                       applies)
                 procs );
             ( "positions and times",
               List.for_all
                 (fun p -> List.for_all (positions_agree p) dots)
                 procs );
             ("delayed_applies", Execution.delayed_applies e = delayed);
             ("delay_count", Execution.delay_count e = List.length delayed);
             ( "delay_count_at",
               List.for_all
                 (fun p ->
                   Execution.delay_count_at e p
                   = List.length (List.filter (fun (q, _) -> q = p) delayed))
                 procs );
             ( "blocked_count",
               Execution.blocked_count e
               = count (function Execution.Blocked _ -> true | _ -> false) );
             ( "skip_count",
               Execution.skip_count e
               = count (function Execution.Skip _ -> true | _ -> false) );
             ("apply_count", Execution.apply_count e = List.length applies);
             (* equal dots (a replayed own apply) sort latest first *)
             ( "writes",
               Execution.writes e
               = (List.filter_map
                    (fun (p, dot, var, value, _) ->
                      if Dot.replica dot = p then Some (dot, var, value)
                      else None)
                    applies
                 |> List.rev
                 |> List.sort (fun (a, _, _) (b, _, _) -> Dot.compare a b)) );
           ]
         in
         match List.find_opt (fun (_, ok) -> not ok) checks with
         | None -> true
         | Some (name, _) ->
             QCheck2.Test.fail_reportf "%s differs from the model" name))

(* Recording copies an event into a row of a byte chunk: beyond a fresh
   chunk every 256 rows of a process, it allocates nothing, and the
   counts read the rows in place. *)
let test_execution_record_allocation () =
  let n = 4 and k = 100_000 in
  let evs =
    Array.init k (fun i ->
        let proc = i mod n and d = dot (i mod n) ((i / n) + 1) in
        let kind =
          match i mod 6 with
          | 0 -> Execution.Send { dot = d; var = 0; value = i }
          | 1 -> Execution.Receipt { dot = d; src = 1 }
          | 2 -> Execution.Blocked { dot = d; waiting_for = dot 1 1 }
          | 3 -> Execution.Apply { dot = d; var = 1; value = i; delayed = true }
          | 4 -> Execution.Skip { dot = d }
          | _ ->
              Execution.Return
                { var = 1; value = Operation.Val i; read_from = Some d }
        in
        (proc, t (float_of_int i), kind))
  in
  let e = Execution.create ~n ~m:2 () in
  let words0 = Gc.minor_words () in
  Array.iter
    (fun (proc, time, kind) -> Execution.record e ~proc ~time kind)
    evs;
  let per_event = (Gc.minor_words () -. words0) /. float_of_int k in
  check_bool
    (Printf.sprintf "%.2f minor words per recorded event, < 1" per_event)
    true (per_event < 1.);
  let words0 = Gc.minor_words () in
  let counts =
    [
      Execution.apply_count e;
      Execution.skip_count e;
      Execution.delay_count e;
      Execution.blocked_count e;
    ]
  in
  let words = Gc.minor_words () -. words0 in
  (* the events [i] with [i mod 6 = r] *)
  let in_class r = (k - r + 5) / 6 in
  Alcotest.(check (list int))
    "counts"
    [ in_class 3; in_class 4; in_class 3; in_class 2 ]
    counts;
  check_bool
    (Printf.sprintf "%.0f minor words for the four counts, < 100" words)
    true (words < 100.)

(* ------------------------------------------------------------------ *)
(* Sim_run                                                             *)
(* ------------------------------------------------------------------ *)

let small_spec = Spec.make ~n:3 ~m:2 ~ops_per_process:40 ~seed:5 ()

let test_sim_run_deterministic () =
  let run () =
    Sim_run.run (module Dsm_core.Opt_p) ~spec:small_spec
      ~latency:(Latency.Exponential { mean = 10. })
      ~seed:2 ()
  in
  let o1 = run () and o2 = run () in
  check_int "same events" (Execution.event_count o1.Sim_run.execution)
    (Execution.event_count o2.Sim_run.execution);
  check_int "same delays" (Execution.delay_count o1.Sim_run.execution)
    (Execution.delay_count o2.Sim_run.execution);
  check_bool "same histories" true
    (Dsm_memory.History.ops (Execution.to_history o1.Sim_run.execution)
    = Dsm_memory.History.ops (Execution.to_history o2.Sim_run.execution))

let test_sim_run_message_count () =
  (* every write broadcasts to n-1 destinations *)
  let o =
    Sim_run.run (module Dsm_core.Opt_p) ~spec:small_spec
      ~latency:(Latency.Constant 1.) ()
  in
  let writes = List.length (Execution.writes o.Sim_run.execution) in
  check_int "msgs = writes * (n-1)" (writes * 2) o.Sim_run.messages_sent;
  check_int "all delivered" o.Sim_run.messages_sent o.Sim_run.messages_delivered

let test_sim_run_constant_latency_no_delay_for_optp () =
  (* constant latency + broadcast at write time: messages from one
     process arrive in order everywhere and cross-process dependencies
     are always satisfied (the dependency's message left earlier and
     arrives earlier). OptP should never delay. *)
  let o =
    Sim_run.run (module Dsm_core.Opt_p)
      ~spec:(Spec.make ~n:4 ~m:3 ~ops_per_process:60 ~seed:9 ())
      ~latency:(Latency.Constant 5.) ()
  in
  check_int "no delays" 0 (Execution.delay_count o.Sim_run.execution)

let test_sim_run_fifo_flag () =
  let o =
    Sim_run.run (module Dsm_core.Anbkh) ~spec:small_spec
      ~latency:(Latency.Uniform { lo = 1.; hi = 50. })
      ~fifo:true ()
  in
  let report = Checker.check o.Sim_run.execution in
  check_bool "clean under fifo" true (Checker.is_clean report)

let test_sim_run_write_value_unique () =
  check_bool "distinct" true
    (Sim_run.write_value ~proc:1 ~seq:1 <> Sim_run.write_value ~proc:0 ~seq:1);
  check_int "encodes proc and seq" 2_000_003
    (Sim_run.write_value ~proc:2 ~seq:3)

(* ------------------------------------------------------------------ *)
(* Checker on deliberately broken executions                           *)
(* ------------------------------------------------------------------ *)

(* two writes of p0 applied in the wrong order at p1 *)
let test_checker_detects_misorder () =
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:0 ~time:(t 1.)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 2; delayed = false });
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 2; delayed = false });
  Execution.record e ~proc:1 ~time:(t 3.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  let r = Checker.check e in
  check_bool "not clean" false (Checker.is_clean r);
  check_bool "a safety violation" true
    (List.exists
       (function Checker.Safety _ -> true | _ -> false)
       r.Checker.violations)

(* a run where a write never reaches p1 *)
let test_checker_detects_lost_write () =
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  let r = Checker.check e in
  check_bool "incomplete" false r.Checker.complete;
  check_int "one lost" 1 (List.length r.Checker.lost);
  check_bool "not clean" false (Checker.is_clean r)

(* skip events legitimize missing applies *)
let test_checker_skip_is_not_lost () =
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:0 ~time:(t 1.)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 2; delayed = false });
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Skip { dot = dot 0 1 });
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 2; delayed = false });
  let r = Checker.check e in
  check_bool "incomplete (class P)" false r.Checker.complete;
  check_int "nothing lost" 0 (List.length r.Checker.lost);
  check_bool "clean" true (Checker.is_clean r);
  check_int "one skip" 1 r.Checker.skipped

(* a false 'delayed' flag without receipt is flagged *)
let test_checker_detects_bogus_delay_flag () =
  let e = Execution.create ~n:1 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = true });
  let r = Checker.check e in
  check_bool "accounting violation" true
    (List.exists
       (function
         | Checker.Immediate_apply_marked_delayed _ -> true
         | _ -> false)
       r.Checker.violations)

(* delay classification: direct construction of both classes *)
let test_checker_delay_classes () =
  let e = Execution.create ~n:2 ~m:2 () in
  (* p0 writes w1 then w2 (independent vars, no reads) *)
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:0 ~time:(t 1.)
    (Execution.Apply { dot = dot 0 2; var = 1; value = 2; delayed = false });
  (* p1 receives w2 first (its predecessor w1 missing: delaying it is
     necessary), then w1, applies w1, then w2 from the buffer *)
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Receipt { dot = dot 0 2; src = 0 });
  Execution.record e ~proc:1 ~time:(t 3.)
    (Execution.Receipt { dot = dot 0 1; src = 0 });
  Execution.record e ~proc:1 ~time:(t 3.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:1 ~time:(t 3.)
    (Execution.Apply { dot = dot 0 2; var = 1; value = 2; delayed = true });
  let r = Checker.check e in
  check_bool "clean" true (Checker.is_clean r);
  check_int "one delay" 1 r.Checker.total_delays;
  check_int "necessary" 1 r.Checker.necessary_delays;
  (match r.Checker.delays with
  | [ d ] ->
      Alcotest.(check (list string)) "blocked on w1" [ "w1#1" ]
        (List.map Dot.to_string (Checker.blocking_dots (Checker.blocking d)))
  | _ -> Alcotest.fail "expected one delay record");
  (* now an unnecessary delay: same receipt order but w1 was already
     applied when w2 arrived *)
  let e2 = Execution.create ~n:2 ~m:2 () in
  Execution.record e2 ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e2 ~proc:0 ~time:(t 1.)
    (Execution.Apply { dot = dot 0 2; var = 1; value = 2; delayed = false });
  Execution.record e2 ~proc:1 ~time:(t 2.)
    (Execution.Receipt { dot = dot 0 1; src = 0 });
  Execution.record e2 ~proc:1 ~time:(t 2.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e2 ~proc:1 ~time:(t 3.)
    (Execution.Receipt { dot = dot 0 2; src = 0 });
  (* the protocol needlessly buffers w2 and applies it later *)
  Execution.record e2 ~proc:1 ~time:(t 4.)
    (Execution.Receipt { dot = dot 1 1; src = 0 });
  Execution.record e2 ~proc:1 ~time:(t 4.)
    (Execution.Apply { dot = dot 0 2; var = 1; value = 2; delayed = true });
  let r2 = Checker.check e2 in
  check_int "unnecessary" 1 r2.Checker.unnecessary_delays;
  ignore r2.Checker.delays

(* stale read detection through a full (hand-made) execution *)
let test_checker_detects_stale_read () =
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:0 ~time:(t 1.)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 2; delayed = false });
  (* p1 reads the NEW value first (so w2 in its past), then the old *)
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Apply { dot = dot 0 1; var = 0; value = 1; delayed = false });
  Execution.record e ~proc:1 ~time:(t 2.5)
    (Execution.Apply { dot = dot 0 2; var = 0; value = 2; delayed = false });
  Execution.record e ~proc:1 ~time:(t 3.)
    (Execution.Return
       { var = 0; value = Operation.Val 2; read_from = Some (dot 0 2) });
  Execution.record e ~proc:1 ~time:(t 4.)
    (Execution.Return
       { var = 0; value = Operation.Val 1; read_from = Some (dot 0 1) });
  let r = Checker.check e in
  check_bool "illegal read found" true
    (List.exists
       (function Checker.Illegal_read _ -> true | _ -> false)
       r.Checker.violations)

(* ------------------------------------------------------------------ *)
(* Experiment plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let test_send_vectors_fidge_mattern () =
  (* hand-built execution: p0 sends w1; p1 receives it then sends w2;
     FM timestamps must be [1;0] and [1;1] *)
  let e = Execution.create ~n:2 ~m:1 () in
  Execution.record e ~proc:0 ~time:(t 0.)
    (Execution.Send { dot = dot 0 1; var = 0; value = 1 });
  Execution.record e ~proc:1 ~time:(t 1.)
    (Execution.Receipt { dot = dot 0 1; src = 0 });
  Execution.record e ~proc:1 ~time:(t 2.)
    (Execution.Send { dot = dot 1 1; var = 0; value = 2 });
  let vecs = Experiment.send_vectors e in
  Alcotest.(check (list int)) "w1 stamp" [ 1; 0 ]
    (V.to_list (Dot.Map.find (dot 0 1) vecs));
  Alcotest.(check (list int)) "w2 stamp" [ 1; 1 ]
    (V.to_list (Dot.Map.find (dot 1 1) vecs))

let test_measure_produces_metrics () =
  let r =
    Experiment.measure (module Dsm_core.Opt_p) ~spec:small_spec
      ~latency:(Latency.Exponential { mean = 10. })
      ()
  in
  check_bool "clean" true r.Experiment.clean;
  Alcotest.(check string) "name" "OptP" r.Experiment.protocol;
  check_bool "applies positive" true (r.Experiment.applies > 0);
  check_int "OptP never unnecessary" 0 r.Experiment.unnecessary

let test_tables_nonempty () =
  check_int "table 1 rows" 12
    (Dsm_stats.Table_fmt.row_count (Experiment.table1 ()));
  check_int "table 2 rows" 12
    (Dsm_stats.Table_fmt.row_count (Experiment.table2 ()));
  check_bool "figure 7 text" true (String.length (Experiment.figure7 ()) > 0)


(* experiment harness smoke tests with tiny parameters: each Q function
   must produce a well-formed table without tripping its internal
   checker audits *)
let test_experiments_smoke () =
  let seeds = [ 1 ] and ops = 30 in
  let tables =
    [
      ("q1", Experiment.q1_sweep_processes ~ns:[ 2; 3 ] ~seeds ~ops ());
      ("q2", Experiment.q2_sweep_latency_variance ~sigmas:[ 0.; 1. ] ~seeds ~ops ());
      ("q3", Experiment.q3_sweep_write_ratio ~ratios:[ 0.3; 0.7 ] ~seeds ~ops ());
      ("q4", Experiment.q4_buffer_occupancy ~seeds ~ops ());
      ("q5", Experiment.q5_apply_latency ~seeds ~ops ());
      ("q6", Experiment.q6_ws_skips ~seeds ~ops ());
      ("q7", Experiment.q7_fifo_ablation ~seeds ~ops ());
      ("q8", Experiment.q8_lossy_links ~drops:[ 0.; 0.2 ] ~seeds ~ops ());
      ("q9", Experiment.q9_divergence ~ratios:[ 0.5 ] ~seeds ~ops ());
      ("q10", Experiment.q10_metadata_size ~ns:[ 3; 4 ] ~seeds ~ops ());
      ("q11", Experiment.q11_partial_replication ~degrees:[ 3; 2 ] ~seeds ~ops ());
    ]
  in
  List.iter
    (fun (name, t) ->
      check_bool (name ^ " non-empty") true
        (Dsm_stats.Table_fmt.row_count t > 0))
    tables

let test_figures_smoke () =
  List.iter
    (fun (name, s) ->
      check_bool (name ^ " non-empty") true (String.length s > 0))
    [
      ("f1", Experiment.figure1 ());
      ("f2", Experiment.figure2 ());
      ("f3", Experiment.figure3 ());
      ("f6", Experiment.figure6 ());
      ("f7", Experiment.figure7 ());
      ("q5hist", Experiment.q5_histogram ~ops:40 ());
    ]

(* every protocol stays clean on every paper scenario schedule *)
let test_all_protocols_on_scenarios () =
  List.iter
    (fun (s : Dsm_runtime.Paper_scenarios.t) ->
      List.iter
        (fun p ->
          let o = Dsm_runtime.Paper_scenarios.run p s in
          let r = Checker.check o.Scripted_run.execution in
          check_bool (s.label ^ ": clean") true (Checker.is_clean r))
        [ (module Dsm_core.Opt_p : Dsm_core.Protocol.S);
          (module Dsm_core.Anbkh);
          (module Dsm_core.Ws_receiver);
          (module Dsm_core.Opt_p_ws);
          (module Dsm_core.Opt_p_direct) ])
    Dsm_runtime.Paper_scenarios.all


(* degenerate configurations *)
let test_single_process_run () =
  let spec = Spec.make ~n:1 ~m:2 ~ops_per_process:20 ~seed:3 () in
  List.iter
    (fun p ->
      let o =
        Sim_run.run p ~spec ~latency:(Latency.Constant 1.) ~seed:1 ()
      in
      let r = Checker.check o.Sim_run.execution in
      check_bool "clean" true (Checker.is_clean r);
      check_int "no messages with one process" 0 o.Sim_run.messages_sent)
    [ (module Dsm_core.Opt_p : Dsm_core.Protocol.S);
      (module Dsm_core.Anbkh);
      (module Dsm_core.Ws_token) ]

let test_empty_workload_run () =
  let spec = Spec.make ~n:3 ~m:2 ~ops_per_process:0 ~seed:3 () in
  let o =
    Sim_run.run (module Dsm_core.Opt_p) ~spec
      ~latency:(Latency.Constant 1.) ()
  in
  check_int "no events" 0 (Execution.event_count o.Sim_run.execution);
  let r = Checker.check o.Sim_run.execution in
  check_bool "empty run is clean" true (Checker.is_clean r);
  check_bool "and complete" true r.Checker.complete

let test_read_only_workload () =
  let spec =
    Spec.make ~n:3 ~m:2 ~ops_per_process:30 ~write_ratio:0.0 ~seed:3 ()
  in
  let o =
    Sim_run.run (module Dsm_core.Opt_p) ~spec
      ~latency:(Latency.Constant 1.) ()
  in
  check_int "no messages" 0 o.Sim_run.messages_sent;
  let r = Checker.check o.Sim_run.execution in
  check_bool "all-bot reads are legal" true (Checker.is_clean r)

(* token protocol under a scripted schedule exercises the
   control-message delay path of Scripted_run *)
let test_token_under_scripted_schedule () =
  let o =
    Dsm_runtime.Paper_scenarios.run
      (module Dsm_core.Ws_token)
      Dsm_runtime.Paper_scenarios.figure6
  in
  let r = Checker.check o.Scripted_run.execution in
  check_bool "clean" true (Checker.is_clean r)


let test_timeline_render () =
  let o =
    Dsm_runtime.Paper_scenarios.run
      (module Dsm_core.Opt_p)
      Dsm_runtime.Paper_scenarios.figure6
  in
  let s = Dsm_runtime.Timeline.render ~width:40 o.Scripted_run.execution in
  let lines = String.split_on_char '\n' s in
  (* header + 3 lanes + legend *)
  check_int "line count" 5
    (List.length (List.filter (fun l -> l <> "") lines));
  check_bool "has the delayed-apply marker" true
    (String.contains s '*');
  check_bool "has write markers" true (String.contains s 'W');
  (* lanes all have the same width *)
  let lanes =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = 'p')
      lines
  in
  check_int "three lanes" 3 (List.length lanes);
  check_bool "equal widths" true
    (match lanes with
    | first :: rest ->
        List.for_all (fun l -> String.length l = String.length first) rest
    | [] -> false)

let test_timeline_empty_execution () =
  let e = Execution.create ~n:2 ~m:1 () in
  let s = Dsm_runtime.Timeline.render ~width:20 ~legend:false e in
  check_bool "renders" true (String.length s > 0)

let test_timeline_validation () =
  let e = Execution.create ~n:1 ~m:1 () in
  Alcotest.check_raises "narrow"
    (Invalid_argument "Timeline.render: width must be >= 8") (fun () ->
      ignore (Dsm_runtime.Timeline.render ~width:4 e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runtime"
    [
      ( "execution",
        [
          Alcotest.test_case "queries" `Quick test_execution_queries;
          Alcotest.test_case "writes and history" `Quick
            test_execution_writes_and_history;
          Alcotest.test_case "apply latencies" `Quick
            test_execution_apply_latencies;
          Alcotest.test_case "bad process id" `Quick
            test_execution_rejects_bad_proc;
          Alcotest.test_case "out-of-order own writes" `Quick
            test_execution_out_of_order_own_writes_rejected;
          prop_execution_round_trip;
          Alcotest.test_case "record allocates nothing per event" `Quick
            test_execution_record_allocation;
        ] );
      ( "sim_run",
        [
          Alcotest.test_case "deterministic" `Quick test_sim_run_deterministic;
          Alcotest.test_case "message counts" `Quick test_sim_run_message_count;
          Alcotest.test_case "constant latency: OptP never delays" `Quick
            test_sim_run_constant_latency_no_delay_for_optp;
          Alcotest.test_case "fifo flag" `Quick test_sim_run_fifo_flag;
          Alcotest.test_case "unique write values" `Quick
            test_sim_run_write_value_unique;
        ] );
      ( "checker",
        [
          Alcotest.test_case "misordered applies" `Quick
            test_checker_detects_misorder;
          Alcotest.test_case "lost write" `Quick test_checker_detects_lost_write;
          Alcotest.test_case "skip is not lost" `Quick
            test_checker_skip_is_not_lost;
          Alcotest.test_case "bogus delay flag" `Quick
            test_checker_detects_bogus_delay_flag;
          Alcotest.test_case "delay classification" `Quick
            test_checker_delay_classes;
          Alcotest.test_case "stale read" `Quick test_checker_detects_stale_read;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "Fidge-Mattern send vectors" `Quick
            test_send_vectors_fidge_mattern;
          Alcotest.test_case "measure" `Quick test_measure_produces_metrics;
          Alcotest.test_case "paper tables shape" `Quick test_tables_nonempty;
          Alcotest.test_case "all experiments smoke" `Slow
            test_experiments_smoke;
          Alcotest.test_case "all figures smoke" `Quick test_figures_smoke;
          Alcotest.test_case "all protocols on all scenarios" `Quick
            test_all_protocols_on_scenarios;
          Alcotest.test_case "single process" `Quick
            test_single_process_run;
          Alcotest.test_case "empty workload" `Quick
            test_empty_workload_run;
          Alcotest.test_case "read-only workload" `Quick
            test_read_only_workload;
          Alcotest.test_case "token under scripted schedule" `Quick
            test_token_under_scripted_schedule;
          Alcotest.test_case "timeline render" `Quick test_timeline_render;
          Alcotest.test_case "timeline empty" `Quick
            test_timeline_empty_execution;
          Alcotest.test_case "timeline validation" `Quick
            test_timeline_validation;
        ] );
    ]
