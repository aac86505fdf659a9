(* The timed protocol wrapper must be a pure observer: a wrapped run is
   byte-identical to an unwrapped one under every driver the benchmark
   stacks, and the benchmark's nemesis case is exactly Nemesis.run. *)

open Cases

let wrapped () =
  let module T = Timed.Make (Dsm_core.Opt_p) () in
  (Protocol.Packed (module T), (module T : Timed.TIMED))

let small_static seed =
  {
    (static_input seed) with
    spec =
      Spec.make ~n:5 ~m:4 ~ops_per_process:40 ~write_ratio:0.5
        ~var_dist:(Spec.Zipf_vars 1.2) ~seed ();
  }

let small_lossy seed =
  let i = lossy_input seed in
  { i with spec = { i.spec with ops_per_process = 30 } }

let events d = Execution.events (execution d)

let check_identical level input () =
  let plain = drive optp level input (null_observers ()) in
  let p, (module T) = wrapped () in
  let timed = drive p level input (null_observers ()) in
  Alcotest.(check bool) "same events" true (events plain = events timed);
  Alcotest.(check int) "same engine steps" (engine_steps plain)
    (engine_steps timed);
  (match (plain, timed) with
  | Churn_out a, Churn_out b ->
      Alcotest.(check bool) "same final states" true
        (a.final_states = b.final_states);
      Alcotest.(check int) "same frames" a.frames_sent b.frames_sent;
      Alcotest.(check int) "same commits" a.commits b.commits
  | Campaign_out a, Campaign_out b ->
      Alcotest.(check bool) "same final states" true
        (a.final_states = b.final_states);
      Alcotest.(check int) "same commits" a.commits b.commits
  | Reliable_out a, Reliable_out b ->
      Alcotest.(check int) "same frames" a.frames_sent b.frames_sent
  | Sim_out a, Sim_out b ->
      Alcotest.(check int) "same messages" a.messages_sent b.messages_sent
  | _ -> Alcotest.fail "driver mismatch");
  Alcotest.(check bool) "receives timed" true (T.counters.receives > 0);
  Alcotest.(check bool) "writes timed" true (T.counters.writes > 0)

(* the kept states' own buffer counters agree with the wrapper's *)
let states_counters () =
  let p, (module T) = wrapped () in
  ignore (drive p Sim (small_static 11) (null_observers ()));
  let buffered =
    List.fold_left (fun acc s -> acc + T.total_buffered s) 0 (T.states ())
  in
  Alcotest.(check int) "one state per process" 5 (List.length (T.states ()));
  Alcotest.(check int) "buffered receives" buffered
    T.counters.receives_buffered

let nemesis_parity () =
  List.iter
    (fun seed ->
      let input = nemesis_input seed in
      let ours = judge (run_case Nemesis_swarm input (null_observers ())) in
      let r = Nemesis.run (Nemesis.random_schedule ~seed ()) in
      match r.outcome with
      | None -> Alcotest.fail "nemesis run stuck"
      | Some o ->
          let theirs =
            judge
              {
                driven = Churn_out o;
                report = o.report;
                ops = 0;
              }
          in
          Alcotest.(check string) "same digest" theirs.digest ours.digest;
          Alcotest.(check int) "accepted" 0 ours.failures)
    [ 1000; 1001; 1002; 1003 ]

let () =
  let identical name level input =
    Alcotest.test_case name `Quick (check_identical level input)
  in
  Alcotest.run "perfbench"
    [
      ( "timed wrapper",
        [
          identical "Sim_run byte-identical" Sim (small_static 7);
          identical "Reliable_run byte-identical" Reliable
            { (small_static 8) with faults = (small_lossy 8).faults };
          identical "Fault_campaign byte-identical" Campaign (small_lossy 10);
          identical "Churn_campaign byte-identical" Churn (small_lossy 9);
          Alcotest.test_case "kept states' counters" `Quick states_counters;
        ] );
      ( "cases",
        [ Alcotest.test_case "nemesis case is Nemesis.run" `Quick nemesis_parity ]
      );
    ]
