(* Integration tests around the paper's worked example Ĥ₁ and its
   figure schedules: every protocol run is audited by the checker, and
   the figure-specific claims (who delays what, and whether the delay
   was necessary) are asserted exactly as the paper states them. *)

module PS = Dsm_runtime.Paper_scenarios
module Scripted_run = Dsm_runtime.Scripted_run
module Checker = Dsm_runtime.Checker
module Execution = Dsm_runtime.Execution
module Dot = Dsm_vclock.Dot

let optp = (module Dsm_core.Opt_p : Dsm_core.Protocol.S)
let anbkh = (module Dsm_core.Anbkh : Dsm_core.Protocol.S)

let check_clean label report =
  Alcotest.(check bool)
    (label ^ ": no safety/legality violations")
    true
    (Checker.is_clean report)

let test_h1_reference_valid () =
  match Dsm_memory.History.validate PS.h1_reference with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reference Ĥ₁ is ill-formed"

let test_h1_is_causally_consistent () =
  let co = Dsm_memory.Causal_order.compute PS.h1_reference in
  Alcotest.(check bool)
    "Ĥ₁ is causally consistent" true
    (Dsm_memory.Legality.is_causally_consistent co)

(* every scenario, under OptP, must reconstruct exactly Ĥ₁ *)
let test_scenarios_reproduce_h1_optp () =
  List.iter
    (fun (s : PS.t) ->
      if s.label = PS.figure3.label then ()
        (* figure 3 issues p3's ops later; same Ĥ₁ either way *)
      else begin
        let outcome = PS.run optp s in
        Alcotest.(check bool)
          (s.label ^ ": OptP history = Ĥ₁")
          true
          (PS.h1_matches outcome.history)
      end)
    PS.all

let test_figure3_anbkh_reproduces_h1 () =
  let outcome = PS.run anbkh PS.figure3 in
  Alcotest.(check bool)
    "figure 3 under ANBKH yields Ĥ₁" true
    (PS.h1_matches outcome.history)

let delays_at outcome proc =
  Execution.delay_count_at outcome.Scripted_run.execution proc

(* Figure 1 run (1): nothing is delayed anywhere *)
let test_figure1_run1_no_delay () =
  let outcome = PS.run optp PS.figure1_run1 in
  let report = Checker.check outcome.execution in
  check_clean "fig1.1" report;
  Alcotest.(check int) "no delays at all" 0 report.total_delays

(* Figure 1 run (2) = Figure 6: exactly one delay, at p3, necessary *)
let test_figure6_optp_one_necessary_delay () =
  let outcome = PS.run optp PS.figure6 in
  let report = Checker.check outcome.execution in
  check_clean "fig6" report;
  Alcotest.(check int) "one delay in the run" 1 report.total_delays;
  Alcotest.(check int) "the delay is at p3" 1 (delays_at outcome 2);
  Alcotest.(check int) "necessary" 1 report.necessary_delays;
  Alcotest.(check int) "no unnecessary delays (Theorem 4)" 0
    report.unnecessary_delays;
  (* and the delayed write is w2(x2)b, blocked by w1(x1)a *)
  match report.delays with
  | [ d ] ->
      Alcotest.(check bool) "delayed write is b" true (Dot.equal d.ddot PS.w2b);
      Alcotest.(check (list string))
        "blocked by exactly a"
        [ Dot.to_string PS.w1a ]
        (List.map Dot.to_string (Checker.blocking_dots (Checker.blocking d)))
  | _ -> Alcotest.fail "expected exactly one delay record"

(* In figure 6, OptP applies b at p3 before c arrives: b's apply must
   precede c's apply in p3's sequence *)
let test_figure6_b_applied_before_c () =
  let outcome = PS.run optp PS.figure6 in
  let pos dot =
    match Execution.apply_position outcome.execution ~proc:2 ~dot with
    | Some p -> p
    | None -> Alcotest.fail "missing apply at p3"
  in
  Alcotest.(check bool) "apply(b) < apply(c) at p3" true (pos PS.w2b < pos PS.w1c)

(* Figure 3: ANBKH delays b at p3 until c — and once a has been applied
   the remaining wait is unnecessary; OptP on the same schedule applies
   b right after a *)
let test_figure3_anbkh_false_causality () =
  let outcome = PS.run anbkh PS.figure3 in
  let report = Checker.check outcome.execution in
  check_clean "fig3 anbkh" report;
  Alcotest.(check int) "one delay, at p3" 1 (delays_at outcome 2);
  let pos dot =
    match Execution.apply_position outcome.execution ~proc:2 ~dot with
    | Some p -> p
    | None -> Alcotest.fail "missing apply at p3"
  in
  Alcotest.(check bool) "ANBKH applies c before b at p3" true
    (pos PS.w1c < pos PS.w2b)

let test_figure3_optp_no_extra_wait () =
  let outcome = PS.run optp PS.figure3 in
  let report = Checker.check outcome.execution in
  check_clean "fig3 optp" report;
  Alcotest.(check int) "OptP: every delay necessary" 0
    report.unnecessary_delays;
  let pos dot =
    match Execution.apply_position outcome.execution ~proc:2 ~dot with
    | Some p -> p
    | None -> Alcotest.fail "missing apply at p3"
  in
  Alcotest.(check bool) "OptP applies b before c at p3" true
    (pos PS.w2b < pos PS.w1c)

(* Figure 2: the causal-delivery protocol performs one unnecessary
   delay; OptP performs none *)
let test_figure2_unnecessary_delay () =
  let anbkh_outcome = PS.run anbkh PS.figure2 in
  let anbkh_report = Checker.check anbkh_outcome.execution in
  check_clean "fig2 anbkh" anbkh_report;
  Alcotest.(check int) "ANBKH: one delay" 1 anbkh_report.total_delays;
  Alcotest.(check int) "ANBKH: it is unnecessary" 1
    anbkh_report.unnecessary_delays;
  let optp_outcome = PS.run optp PS.figure2 in
  let optp_report = Checker.check optp_outcome.execution in
  check_clean "fig2 optp" optp_report;
  Alcotest.(check int) "OptP: no delay at all" 0 optp_report.total_delays

(* both protocols are complete (class 𝒫) on every scenario *)
let test_completeness () =
  List.iter
    (fun (s : PS.t) ->
      List.iter
        (fun p ->
          let outcome = PS.run p s in
          let report = Checker.check outcome.execution in
          Alcotest.(check bool)
            (s.label ^ ": complete")
            true report.complete)
        [ optp; anbkh ])
    PS.all


(* the remaining protocols on the figure schedules, with their
   distinctive outcomes asserted *)

let ws_recv = (module Dsm_core.Ws_receiver : Dsm_core.Protocol.S)
let optp_ws = (module Dsm_core.Opt_p_ws : Dsm_core.Protocol.S)
let optp_direct = (module Dsm_core.Opt_p_direct : Dsm_core.Protocol.S)

(* OptP-direct must mirror OptP exactly on every scenario *)
let test_direct_mirrors_optp_on_scenarios () =
  List.iter
    (fun (s : PS.t) ->
      let o1 = PS.run optp s in
      let o2 = PS.run optp_direct s in
      Alcotest.(check bool)
        (s.label ^ ": same history")
        true
        (Dsm_memory.History.ops o1.history
        = Dsm_memory.History.ops o2.history);
      Alcotest.(check int)
        (s.label ^ ": same delay count")
        (Execution.delay_count o1.execution)
        (Execution.delay_count o2.execution))
    PS.all

(* In figure 2, b is the FIRST write on x2, so writing semantics has
   nothing to overwrite: WS-recv behaves exactly like ANBKH (one
   unnecessary delay), OptP-WS exactly like OptP (none) *)
let test_figure2_ws_variants () =
  let r_ws = Checker.check (PS.run ws_recv PS.figure2).execution in
  Alcotest.(check int) "WS-recv: one unnecessary delay" 1
    r_ws.Checker.unnecessary_delays;
  Alcotest.(check int) "WS-recv: no skips possible" 0 r_ws.Checker.skipped;
  let r_ows = Checker.check (PS.run optp_ws PS.figure2).execution in
  Alcotest.(check int) "OptP-WS: no delays" 0 r_ows.Checker.total_delays;
  Alcotest.(check int) "OptP-WS: no skips" 0 r_ows.Checker.skipped

(* In figure 6's schedule, c (the second write of p1 on x1) arrives at
   p3 last; under writing semantics nothing is skippable there either
   because a was applied long before c arrives (no pending overwrite
   pair ever forms). All variants stay complete. *)
let test_figure6_ws_variants_complete () =
  List.iter
    (fun p ->
      let r = Checker.check (PS.run p PS.figure6).execution in
      Alcotest.(check bool) "clean" true (Checker.is_clean r);
      Alcotest.(check bool) "complete" true r.Checker.complete)
    [ ws_recv; optp_ws ]

let () =
  Alcotest.run "paper_scenarios"
    [
      ( "h1",
        [
          Alcotest.test_case "reference history is well-formed" `Quick
            test_h1_reference_valid;
          Alcotest.test_case "reference history is causally consistent"
            `Quick test_h1_is_causally_consistent;
          Alcotest.test_case "scenarios reproduce Ĥ₁ under OptP" `Quick
            test_scenarios_reproduce_h1_optp;
          Alcotest.test_case "figure 3 reproduces Ĥ₁ under ANBKH" `Quick
            test_figure3_anbkh_reproduces_h1;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 1 run (1): no delay" `Quick
            test_figure1_run1_no_delay;
          Alcotest.test_case "figure 6: one necessary delay at p3" `Quick
            test_figure6_optp_one_necessary_delay;
          Alcotest.test_case "figure 6: b applied before c at p3" `Quick
            test_figure6_b_applied_before_c;
          Alcotest.test_case "figure 3: ANBKH false causality" `Quick
            test_figure3_anbkh_false_causality;
          Alcotest.test_case "figure 3: OptP does not wait for c" `Quick
            test_figure3_optp_no_extra_wait;
          Alcotest.test_case "figure 2: unnecessary delay vs none" `Quick
            test_figure2_unnecessary_delay;
          Alcotest.test_case "completeness on all scenarios" `Quick
            test_completeness;
          Alcotest.test_case "OptP-direct mirrors OptP" `Quick
            test_direct_mirrors_optp_on_scenarios;
          Alcotest.test_case "figure 2 under WS variants" `Quick
            test_figure2_ws_variants;
          Alcotest.test_case "figure 6 WS variants complete" `Quick
            test_figure6_ws_variants_complete;
        ] );
    ]
