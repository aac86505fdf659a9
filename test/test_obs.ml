(* Tests for the observability layer: metrics registry semantics
   (find-or-create merging, kind clashes, the inert null registry),
   span lifecycle assembly (including destinations that crash with the
   write still buffered), and the end-to-end property tying it
   together: the blocked records a run emits coincide with the
   checker's delay list, and the provenance explanation witnesses every
   OptP delay. *)

module Metrics = Dsm_obs.Metrics
module Span = Dsm_obs.Span
module Export = Dsm_obs.Export
module Execution = Dsm_runtime.Execution
module Sim_run = Dsm_runtime.Sim_run
module Checker = Dsm_runtime.Checker
module Provenance = Dsm_runtime.Provenance
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Dot = Dsm_vclock.Dot

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let dot r s = Dot.make ~replica:r ~seq:s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_merge () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "sends" in
  let b = Metrics.counter reg "sends" in
  Metrics.incr a;
  Metrics.add b 2;
  check_int "merged count via a" 3 (Metrics.counter_value a);
  check_int "merged count via b" 3 (Metrics.counter_value b);
  check_int "one row" 1 (List.length (Metrics.rows reg))

let test_labels_identity () =
  let reg = Metrics.create () in
  (* same name, same labels in a different order: one instrument *)
  let a =
    Metrics.counter reg "dropped"
      ~labels:[ ("cause", "random"); ("dir", "out") ]
  in
  let b =
    Metrics.counter reg "dropped"
      ~labels:[ ("dir", "out"); ("cause", "random") ]
  in
  (* same name, different labels: distinct instruments *)
  let c = Metrics.counter reg "dropped" ~labels:[ ("cause", "crash") ] in
  Metrics.incr a;
  Metrics.incr b;
  Metrics.incr c;
  check_int "label-equal merged" 2 (Metrics.counter_value a);
  check_int "label-distinct separate" 1 (Metrics.counter_value c);
  check_int "two rows" 2 (List.length (Metrics.rows reg))

let test_kind_clash () =
  let reg = Metrics.create () in
  let (_ : Metrics.counter) = Metrics.counter reg "net_sends" in
  check_bool "gauge under a counter name raises" true
    (try
       let (_ : Metrics.gauge) = Metrics.gauge reg "net_sends" in
       false
     with Invalid_argument _ -> true);
  check_bool "histogram under a counter name raises" true
    (try
       let (_ : Metrics.histogram) =
         Metrics.histogram reg "net_sends" ~lo:0. ~hi:1. ~bins:2
       in
       false
     with Invalid_argument _ -> true)

let test_null_registry_inert () =
  let reg = Metrics.null () in
  check_bool "disabled" false (Metrics.enabled reg);
  let c = Metrics.counter reg "x" in
  let g = Metrics.gauge reg "y" in
  let h = Metrics.histogram reg "z" ~lo:0. ~hi:10. ~bins:4 in
  Metrics.incr c;
  Metrics.add c 41;
  Metrics.set g 7;
  Metrics.observe h 3.5;
  check_int "counter never records" 0 (Metrics.counter_value c);
  check_int "gauge never records" 0 (Metrics.gauge_max g);
  check_int "histogram never records" 0 (Metrics.histogram_count h);
  check_int "no rows" 0 (List.length (Metrics.rows reg))

let test_gauge_watermark () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "buffer_len" in
  Metrics.set g 3;
  Metrics.set g 9;
  Metrics.set g 2;
  check_int "current" 2 (Metrics.gauge_value g);
  check_int "high watermark" 9 (Metrics.gauge_max g)

let test_histogram_merge_and_stats () =
  let reg = Metrics.create () in
  let a =
    Metrics.histogram reg "wait" ~labels:[ ("proto", "OptP") ] ~lo:0.
      ~hi:100. ~bins:10
  in
  (* re-registration with different binning: first registration wins,
     observations land in the same instrument *)
  let b =
    Metrics.histogram reg "wait" ~labels:[ ("proto", "OptP") ] ~lo:0.
      ~hi:5. ~bins:2
  in
  check_float "empty mean is 0" 0. (Metrics.histogram_mean a);
  Metrics.observe a 10.;
  Metrics.observe b 30.;
  check_int "merged count" 2 (Metrics.histogram_count a);
  check_float "sum" 40. (Metrics.histogram_sum b);
  check_float "max" 30. (Metrics.histogram_max a);
  check_float "mean" 20. (Metrics.histogram_mean b);
  check_int "one row" 1 (List.length (Metrics.rows reg))

let test_rows_and_json () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "first");
  Metrics.set (Metrics.gauge reg "second") 4;
  Metrics.observe (Metrics.histogram reg "third" ~lo:0. ~hi:1. ~bins:2) 0.5;
  (match Metrics.rows reg with
  | [ (n1, [], Metrics.Counter_v 1);
      (n2, [], Metrics.Gauge_v { current = 4; max = 4 });
      (n3, [], Metrics.Histogram_v { count = 1; _ }) ] ->
      Alcotest.(check (list string))
        "registration order" [ "first"; "second"; "third" ] [ n1; n2; n3 ]
  | _ -> Alcotest.fail "unexpected rows shape");
  let json = Metrics.to_json reg in
  check_bool "json mentions every instrument" true
    (List.for_all
       (fun name -> contains ~sub:("\"" ^ name ^ "\"") json)
       [ "first"; "second"; "third" ])

(* ------------------------------------------------------------------ *)
(* Span lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

(* one write w1#1 by p0: applied immediately at p1, buffered then
   applied at p2, and still sitting in p3's buffer (p3 crashed) *)
let crashed_dest_collector () =
  let c = Span.collector () in
  let sink = Span.sink c in
  sink (Span.Issue { dot = dot 0 1; proc = 0; var = 0; value = 7; at = 0. });
  sink (Span.Receipt { dot = dot 0 1; dst = 1; at = 5. });
  sink (Span.Apply { dot = dot 0 1; dst = 1; at = 5.; delayed = false });
  sink (Span.Receipt { dot = dot 0 1; dst = 2; at = 6. });
  sink
    (Span.Blocked { dot = dot 0 1; dst = 2; waiting_for = dot 1 9; at = 6. });
  sink (Span.Apply { dot = dot 0 1; dst = 2; at = 11.; delayed = true });
  sink (Span.Receipt { dot = dot 0 1; dst = 3; at = 7. });
  sink
    (Span.Blocked { dot = dot 0 1; dst = 3; waiting_for = dot 1 9; at = 7. });
  c

let test_span_lifecycle () =
  let c = crashed_dest_collector () in
  check_int "one span" 1 (Span.span_count c);
  check_int "two blocked records" 2 (Span.blocked_count c);
  match Span.find c (dot 0 1) with
  | None -> Alcotest.fail "span not found by dot"
  | Some s ->
      check_int "issuer" 0 (Span.issuer s);
      check_int "var" 0 (Span.var s);
      check_int "value" 7 (Span.value s);
      check_float "issued_at" 0. (Span.issued_at s);
      check_bool "issue seen" true (Span.issue_seen s);
      check_int "three destinations" 3 (List.length (Span.dests s));
      (match Span.dests s with
      | [ d1; d2; d3 ] ->
          check_int "dest order" 1 d1.Span.dst;
          check_bool "p1 immediate" true
            (d1.Span.applied_at = Some 5. && not d1.Span.delayed);
          check_bool "p2 blocked then applied" true
            (d2.Span.blocked_on = Some (dot 1 9, 6.)
            && d2.Span.applied_at = Some 11.
            && d2.Span.delayed);
          check_bool "p3 never closes" true
            (d3.Span.applied_at = None && d3.Span.skipped_at = None)
      | _ -> Alcotest.fail "expected exactly three dests");
      check_bool "span is open" true (Span.is_open s);
      (match Span.open_dests s with
      | [ d ] -> check_int "the crashed destination" 3 d.Span.dst
      | _ -> Alcotest.fail "expected exactly one open dest")

let test_span_truncated_issue () =
  (* ring-buffer traces can evict the issue event; the collector
     reconstructs the span from the first receipt *)
  let c = Span.collector () in
  let sink = Span.sink c in
  sink (Span.Receipt { dot = dot 2 4; dst = 0; at = 40. });
  sink (Span.Apply { dot = dot 2 4; dst = 0; at = 40.; delayed = false });
  match Span.find c (dot 2 4) with
  | None -> Alcotest.fail "span not reconstructed"
  | Some s ->
      check_bool "issue not seen" false (Span.issue_seen s);
      check_int "issuer from dot" 2 (Span.issuer s);
      check_int "unknown var" (-1) (Span.var s);
      check_bool "closed" false (Span.is_open s)

let test_exporters_smoke () =
  let c = crashed_dest_collector () in
  let b = Buffer.create 256 in
  Export.jsonl b (Span.spans c);
  let jsonl = Buffer.contents b in
  check_int "one jsonl line" 1
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)));
  Buffer.clear b;
  Export.chrome b ~n:4 ~end_time:20. (Span.spans c);
  let chrome = Buffer.contents b in
  check_bool "chrome doc is a trace-event array" true
    (String.length chrome > 2 && chrome.[0] = '[');
  check_bool "blocked slice names the missing dot" true
    (contains ~sub:"w2#9" chrome)

(* ------------------------------------------------------------------ *)
(* End to end: blocked records vs checker delays, and explain          *)
(* ------------------------------------------------------------------ *)

let delayed_spec = Spec.make ~n:4 ~m:3 ~ops_per_process:40 ~seed:3 ()
let spread = Latency.Uniform { lo = 1.; hi = 80. }

let test_blocked_records_match_checker_delays () =
  let o =
    Sim_run.run (module Dsm_core.Opt_p) ~spec:delayed_spec ~latency:spread
      ~seed:2 ()
  in
  let report = Checker.check o.Sim_run.execution in
  check_bool "clean" true (Checker.is_clean report);
  check_bool "the run actually delays something" true
    (report.Checker.total_delays > 0);
  let sort = List.sort_uniq compare in
  let blocked =
    sort
      (List.filter_map
         (fun (e : Execution.event) ->
           match e.kind with
           | Execution.Blocked { dot; _ } -> Some (e.proc, Dot.to_string dot)
           | _ -> None)
         (Execution.events o.Sim_run.execution))
  in
  let delays =
    sort
      (List.map
         (fun (d : Checker.delay) -> (d.Checker.dproc, Dot.to_string d.Checker.ddot))
         report.Checker.delays)
  in
  check_bool "blocked set = checker delay set" true (blocked = delays)

let test_explain_witnesses_every_optp_delay () =
  let o =
    Sim_run.run (module Dsm_core.Opt_p) ~spec:delayed_spec ~latency:spread
      ~seed:2 ()
  in
  let report = Checker.check o.Sim_run.execution in
  let ex = Provenance.explain o.Sim_run.execution report in
  check_int "row per delay" report.Checker.total_delays ex.Provenance.total;
  check_int "all necessary (Theorem 4)" 0 ex.Provenance.unnecessary;
  check_int "all attributed" ex.Provenance.total ex.Provenance.attributed;
  check_int "all witnessed" ex.Provenance.total ex.Provenance.witnessed;
  List.iter
    (fun (r : Provenance.delay_explanation) ->
      check_bool "claim inside ground-truth blockers" true
        r.Provenance.eagrees;
      check_bool "wait is non-negative" true
        (match r.Provenance.ewait with Some w -> w >= 0. | None -> false))
    ex.Provenance.rows

let test_provenance_spans_cover_the_run () =
  let o =
    Sim_run.run (module Dsm_core.Opt_p) ~spec:delayed_spec ~latency:spread
      ~seed:2 ()
  in
  let c = Provenance.spans o.Sim_run.execution in
  check_int "one span per write"
    (List.length (Execution.writes o.Sim_run.execution))
    (Span.span_count c);
  check_int "blocked records carried over"
    (Execution.blocked_count o.Sim_run.execution)
    (Span.blocked_count c);
  check_bool "reliable delivery closes every span" true
    (List.for_all (fun s -> not (Span.is_open s)) (Span.spans c))

let test_run_identical_with_live_registry () =
  (* the acceptance property behind the null registry: observation
     must not move the simulation *)
  let run metrics =
    Sim_run.run (module Dsm_core.Opt_p) ~spec:delayed_spec ~latency:spread
      ~seed:2 ~metrics ()
  in
  let o0 = run (Metrics.null ()) in
  let live = Metrics.create () in
  let o1 = run live in
  check_float "same end time" o0.Sim_run.end_time o1.Sim_run.end_time;
  check_int "same messages" o0.Sim_run.messages_sent o1.Sim_run.messages_sent;
  check_int "same events"
    (Execution.event_count o0.Sim_run.execution)
    (Execution.event_count o1.Sim_run.execution);
  check_bool "live registry saw traffic" true
    (List.exists
       (fun (name, _, v) ->
         name = "net_sends"
         && match v with
            | Metrics.Counter_v c -> c = o1.Sim_run.messages_sent
            | _ -> false)
       (Metrics.rows live))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter merge" `Quick test_counter_merge;
          Alcotest.test_case "label identity" `Quick test_labels_identity;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "null registry inert" `Quick
            test_null_registry_inert;
          Alcotest.test_case "gauge watermark" `Quick test_gauge_watermark;
          Alcotest.test_case "histogram merge and stats" `Quick
            test_histogram_merge_and_stats;
          Alcotest.test_case "rows and json" `Quick test_rows_and_json;
        ] );
      ( "spans",
        [
          Alcotest.test_case "lifecycle with crashed destination" `Quick
            test_span_lifecycle;
          Alcotest.test_case "truncated issue" `Quick
            test_span_truncated_issue;
          Alcotest.test_case "exporters smoke" `Quick test_exporters_smoke;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "blocked records = checker delays" `Quick
            test_blocked_records_match_checker_delays;
          Alcotest.test_case "explain witnesses OptP delays" `Quick
            test_explain_witnesses_every_optp_delay;
          Alcotest.test_case "spans cover the run" `Quick
            test_provenance_spans_cover_the_run;
          Alcotest.test_case "observation does not move the run" `Quick
            test_run_identical_with_live_registry;
        ] );
    ]
