(* Tests for the session-guarantee auditor: causal histories satisfy
   all four guarantees; crafted anomalies are pinned to the right
   guarantee. *)

module Operation = Dsm_memory.Operation
module Local_history = Dsm_memory.Local_history
module History = Dsm_memory.History
module Causal_order = Dsm_memory.Causal_order
module SG = Dsm_memory.Session_guarantees
module Dot = Dsm_vclock.Dot

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let co_of locals = Causal_order.compute (History.of_locals locals)

let test_h1_all_hold () =
  let p1 = Local_history.create ~proc:0 () in
  let wa = Local_history.add_write p1 ~var:0 ~value:0 in
  let _ = Local_history.add_write p1 ~var:0 ~value:2 in
  let p2 = Local_history.create ~proc:1 () in
  let _ =
    Local_history.add_read p2 ~var:0 ~value:(Operation.Val 0)
      ~read_from:(Some wa.Operation.wdot)
  in
  let _ = Local_history.add_write p2 ~var:1 ~value:1 in
  let co = co_of [ p1; p2 ] in
  check_bool "all guarantees hold on (a prefix of) H1" true (SG.all_hold co)

(* RYW: p0 writes x, then reads an older (other-process) value *)
let test_ryw_violation () =
  let p0 = Local_history.create ~proc:0 () in
  let w_old = Local_history.add_write p0 ~var:0 ~value:1 in
  let p1 = Local_history.create ~proc:1 () in
  let _ =
    Local_history.add_read p1 ~var:0 ~value:(Operation.Val 1)
      ~read_from:(Some w_old.Operation.wdot)
  in
  let w_new = Local_history.add_write p1 ~var:0 ~value:2 in
  let _ =
    Local_history.add_read p1 ~var:0 ~value:(Operation.Val 1)
      ~read_from:(Some w_old.Operation.wdot)
  in
  ignore w_new;
  let co = co_of [ p0; p1 ] in
  check_bool "RYW broken" false (SG.holds co SG.Read_your_writes);
  (* and the anomaly is also a legality violation (causal memory
     implies RYW) *)
  check_bool "also causally inconsistent" false
    (Dsm_memory.Legality.is_causally_consistent co)

(* RYW: write then read ⊥ *)
let test_ryw_bot_violation () =
  let p0 = Local_history.create ~proc:0 () in
  let _ = Local_history.add_write p0 ~var:0 ~value:1 in
  let _ =
    Local_history.add_read p0 ~var:0 ~value:Operation.Bot ~read_from:None
  in
  let co = co_of [ p0 ] in
  check_bool "RYW broken by bot" false (SG.holds co SG.Read_your_writes)

(* MR: two reads of the same variable going causally backwards *)
let test_mr_violation () =
  let p0 = Local_history.create ~proc:0 () in
  let w1 = Local_history.add_write p0 ~var:0 ~value:1 in
  let w2 = Local_history.add_write p0 ~var:0 ~value:2 in
  let p1 = Local_history.create ~proc:1 () in
  let _ =
    Local_history.add_read p1 ~var:0 ~value:(Operation.Val 2)
      ~read_from:(Some w2.Operation.wdot)
  in
  let _ =
    Local_history.add_read p1 ~var:0 ~value:(Operation.Val 1)
      ~read_from:(Some w1.Operation.wdot)
  in
  let co = co_of [ p0; p1 ] in
  check_bool "MR broken" false (SG.holds co SG.Monotonic_reads);
  (match SG.check co with
  | [ v ] -> check_bool "flagged as MR" true (v.SG.guarantee = SG.Monotonic_reads)
  | l -> check_int "exactly one violation" 1 (List.length l))

(* reading concurrent writes in some order is NOT a violation *)
let test_concurrent_reads_ok () =
  let p0 = Local_history.create ~proc:0 () in
  let w1 = Local_history.add_write p0 ~var:0 ~value:1 in
  let p1 = Local_history.create ~proc:1 () in
  let w2 = Local_history.add_write p1 ~var:0 ~value:2 in
  let p2 = Local_history.create ~proc:2 () in
  let _ =
    Local_history.add_read p2 ~var:0 ~value:(Operation.Val 2)
      ~read_from:(Some w2.Operation.wdot)
  in
  let _ =
    Local_history.add_read p2 ~var:0 ~value:(Operation.Val 1)
      ~read_from:(Some w1.Operation.wdot)
  in
  let co = co_of [ p0; p1; p2 ] in
  check_bool "concurrent flip-flop allowed by MR" true
    (SG.holds co SG.Monotonic_reads)

(* protocol runs: causal protocols satisfy all four guarantees *)
let prop_protocol_runs_satisfy_guarantees =
  qcheck_case ~count:15 "every protocol run satisfies all four guarantees"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let spec =
        Dsm_workload.Spec.make ~n:3 ~m:4 ~ops_per_process:50 ~seed ()
      in
      List.for_all
        (fun p ->
          let o =
            Dsm_runtime.Sim_run.run p ~spec
              ~latency:(Dsm_sim.Latency.Lognormal { mu = 2.0; sigma = 1.0 })
              ~seed:(seed + 1) ()
          in
          SG.all_hold
            (Causal_order.compute
               (Dsm_runtime.Execution.to_history o.Dsm_runtime.Sim_run.execution)))
        [ (module Dsm_core.Opt_p : Dsm_core.Protocol.S);
          (module Dsm_core.Anbkh);
          (module Dsm_core.Ws_receiver);
          (module Dsm_core.Opt_p_ws);
          (module Dsm_core.Ws_token) ])

let () =
  Alcotest.run "session_guarantees"
    [
      ( "session_guarantees",
        [
          Alcotest.test_case "H1 prefix: all hold" `Quick test_h1_all_hold;
          Alcotest.test_case "RYW violation (stale)" `Quick
            test_ryw_violation;
          Alcotest.test_case "RYW violation (bot)" `Quick
            test_ryw_bot_violation;
          Alcotest.test_case "MR violation" `Quick test_mr_violation;
          Alcotest.test_case "concurrent reads allowed" `Quick
            test_concurrent_reads_ok;
          prop_protocol_runs_satisfy_guarantees;
        ] );
    ]
