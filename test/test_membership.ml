(* Dynamic membership: epoch-stamped views, growable protocol state,
   incarnation quarantine, and full churn campaigns.

   Five layers, bottom-up:
   - [Membership] slot state machine: legal transitions bump the epoch,
     illegal ones raise;
   - [Protocol.S.grow] + snapshot/restore across an epoch change: a
     snapshot taken at width n restores at width n and grows to n' > n
     with implicit-zero new components, for every growable protocol;
   - [Reliable_channel] corruption healing (checksums + retransmission)
     and stale-incarnation quarantine (zombie frames acked, counted,
     never delivered);
   - a scripted churn campaign — one fresh join, one graceful leave,
     one crash-rejoin — with every verdict inspected;
   - the acceptance campaign (3 joins, 2 leaves, 1 crash-rejoin with
     observed stale-incarnation traffic) plus a randomized sweep
     asserting clean, converged, leak-free runs with OptP's Theorem 4
     accounting intact across epochs. *)

module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Fault_plan = Dsm_sim.Fault_plan
module Sim_time = Dsm_sim.Sim_time
module Latency = Dsm_sim.Latency
module Rng = Dsm_sim.Rng
module Protocol = Dsm_core.Protocol
module V = Dsm_vclock.Vector_clock
module Spec = Dsm_workload.Spec
module Membership = Dsm_runtime.Membership
module Churn_campaign = Dsm_runtime.Churn_campaign
module Checker = Dsm_runtime.Checker
module Execution = Dsm_runtime.Execution
module Dot = Dsm_vclock.Dot

let t0 = Sim_time.zero

(* ---------------------------------------------------------------- *)
(* membership slot state machine                                     *)
(* ---------------------------------------------------------------- *)

let test_membership_transitions () =
  let ms = Membership.create ~universe:6 ~initial:[ 0; 1; 2 ] () in
  Alcotest.(check int) "epoch 0" 0 (Membership.epoch ms);
  Alcotest.(check (list int)) "initial active" [ 0; 1; 2 ]
    (Membership.active ms);
  Alcotest.(check (option int)) "incarnation 0" (Some 0)
    (Membership.incarnation ms 1);
  Alcotest.(check bool) "free slot not member" false
    (Membership.is_member ms 4);
  (* fresh join *)
  Membership.join ms ~at:t0 4;
  Alcotest.(check int) "epoch bumped" 1 (Membership.epoch ms);
  Alcotest.(check (list int)) "joined" [ 0; 1; 2; 4 ] (Membership.active ms);
  Alcotest.(check (option int)) "fresh incarnation" (Some 0)
    (Membership.incarnation ms 4);
  (* crash keeps membership, drops activity *)
  Membership.crash ms ~at:t0 1;
  Alcotest.(check bool) "crashed inactive" false (Membership.is_active ms 1);
  Alcotest.(check bool) "crashed still member" true
    (Membership.is_member ms 1);
  (* plain recovery keeps the incarnation *)
  Membership.recover ms ~at:t0 1;
  Alcotest.(check (option int)) "recover keeps incarnation" (Some 0)
    (Membership.incarnation ms 1);
  (* crash-rejoin bumps it *)
  Membership.crash ms ~at:t0 2;
  Membership.join ms ~at:t0 2;
  Alcotest.(check (option int)) "rejoin bumps incarnation" (Some 1)
    (Membership.incarnation ms 2);
  (* graceful leave retires the slot *)
  Membership.leave ms ~at:t0 0;
  Alcotest.(check bool) "left inactive" false (Membership.is_active ms 0);
  Alcotest.(check bool) "left not member" false (Membership.is_member ms 0);
  Alcotest.(check bool) "left was ever member" true
    (Membership.ever_member ms 0);
  Alcotest.(check int) "six transitions, six epochs" 6 (Membership.epoch ms);
  Alcotest.(check int) "history records all" 6
    (List.length (Membership.history ms));
  (* illegal transitions raise *)
  Alcotest.check_raises "rejoin retired slot"
    (Invalid_argument "Membership.join: slot was retired by a leave")
    (fun () -> Membership.join ms ~at:t0 0);
  Alcotest.check_raises "join live member"
    (Invalid_argument "Membership.join: slot is already a live member")
    (fun () -> Membership.join ms ~at:t0 1);
  Alcotest.check_raises "leave free slot"
    (Invalid_argument "Membership.leave: slot is not a live member")
    (fun () -> Membership.leave ms ~at:t0 5);
  Alcotest.check_raises "crash free slot"
    (Invalid_argument "Membership.crash: slot is not a live member")
    (fun () -> Membership.crash ms ~at:t0 5);
  Alcotest.check_raises "recover active member"
    (Invalid_argument "Membership.recover: slot is not a crashed member")
    (fun () -> Membership.recover ms ~at:t0 1)

(* ---------------------------------------------------------------- *)
(* protocol grow + snapshot/restore across an epoch change           *)
(* ---------------------------------------------------------------- *)

let growable_protocols : (string * Protocol.packed) list =
  [
    ("OptP", Protocol.Packed (module Dsm_core.Opt_p));
    ("ANBKH", Protocol.Packed (module Dsm_core.Anbkh));
    ("OptP-WS", Protocol.Packed (module Dsm_core.Opt_p_ws));
    ("WS-recv", Protocol.Packed (module Dsm_core.Ws_receiver));
    ("OptP-direct", Protocol.Packed (module Dsm_core.Opt_p_direct));
  ]

let grow_roundtrip_one pname (pack : Protocol.packed) =
  match pack with
  | Protocol.Packed (module P) ->
      let ctx s = pname ^ ": " ^ s in
      let cfg3 = Protocol.config ~n:3 ~m:2 in
      let p0 = P.create cfg3 ~me:0 in
      ignore (P.write p0 ~var:0 ~value:7);
      ignore (P.write p0 ~var:1 ~value:8);
      (* snapshot at width 3, restore at width 3 *)
      let image = P.snapshot p0 in
      let p0' = P.restore cfg3 ~me:0 image in
      Alcotest.(check bool)
        (ctx "restore preserves applied vector")
        true
        (V.equal (P.applied_vector p0) (P.applied_vector p0'));
      (* an epoch change grows the view: width 3 -> 5 *)
      P.grow p0' ~n:5;
      Alcotest.(check int) (ctx "grown width") 5
        (V.size (P.applied_vector p0'));
      Alcotest.(check int)
        (ctx "new components are implicit zeros")
        0
        (V.get (P.applied_vector p0') 4);
      (* the old components survive the growth *)
      let grown = V.to_array (P.applied_vector p0') in
      Alcotest.(check (array int))
        (ctx "old components preserved")
        (V.to_array (P.applied_vector p0))
        (Array.sub grown 0 3);
      (* writes after the growth still work, and a snapshot taken at
         the new width restores at the new width *)
      ignore (P.write p0' ~var:0 ~value:9);
      let cfg5 = Protocol.config ~n:5 ~m:2 in
      let image5 = P.snapshot p0' in
      let p0'' = P.restore cfg5 ~me:0 image5 in
      Alcotest.(check bool)
        (ctx "post-growth snapshot round-trips")
        true
        (V.equal (P.applied_vector p0') (P.applied_vector p0''));
      (* shrinking is forbidden *)
      (try
         P.grow p0' ~n:3;
         Alcotest.fail (ctx "grow to a smaller width must raise")
       with Invalid_argument _ -> ())

let test_grow_snapshot_roundtrip () =
  List.iter (fun (pname, pack) -> grow_roundtrip_one pname pack)
    growable_protocols

let test_grow_static_topologies_refuse () =
  let cfg = Protocol.config ~n:3 ~m:2 in
  let t = Dsm_core.Ws_token.create cfg ~me:0 in
  try
    Dsm_core.Ws_token.grow t ~n:5;
    Alcotest.fail "token ring grow must raise"
  with Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* channel: corruption healing and stale-incarnation quarantine      *)
(* ---------------------------------------------------------------- *)

let test_corruption_heals () =
  let engine = Engine.create () in
  let rng = Rng.create 11 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Uniform { lo = 1.; hi = 20. })
      ~faults:{ Network.drop = 0.; duplicate = 0.; corrupt = 0.4 }
      ~mangle:Reliable_channel.corrupt_frame ()
  in
  let ch = Reliable_channel.create ~engine ~network:net ~rng () in
  let got = ref [] in
  Reliable_channel.set_handler ch 1 (fun ~src:_ ~at:_ v -> got := v :: !got);
  Reliable_channel.set_handler ch 0 (fun ~src:_ ~at:_ _ -> ());
  for i = 1 to 50 do
    Reliable_channel.send ch ~src:0 ~dst:1 i
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "all delivered exactly once" 50 (List.length !got);
  Alcotest.(check (list int))
    "each exactly once"
    (List.init 50 (fun i -> i + 1))
    (List.sort_uniq compare !got);
  Alcotest.(check bool) "corrupt frames were seen and dropped" true
    (Reliable_channel.corrupt_dropped ch > 0);
  Alcotest.(check bool) "network counted the mangles" true
    (Network.messages_corrupted net > 0)

let test_stale_incarnation_quarantine () =
  let engine = Engine.create () in
  let rng = Rng.create 12 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 10.)
      ()
  in
  let ch =
    Reliable_channel.create ~engine ~network:net ~retransmit_after:50. ()
  in
  let delivered = ref 0 in
  Reliable_channel.set_handler ch 1 (fun ~src:_ ~at:_ _ -> incr delivered);
  Reliable_channel.set_handler ch 0 (fun ~src:_ ~at:_ _ -> ());
  (* the link is cut, so the original transmissions are lost at send;
     only retransmissions can arrive *)
  Network.partition net [ [ 0 ]; [ 1 ] ];
  Reliable_channel.send ch ~src:0 ~dst:1 42;
  Reliable_channel.send ch ~src:0 ~dst:1 43;
  (* p0 "crashes and rejoins" before any frame got through: the frames
     above now belong to its previous incarnation *)
  Engine.schedule_after engine 25. (fun () ->
      Reliable_channel.bump_incarnation ch 0);
  Engine.schedule_after engine 30. (fun () -> Network.heal_all net);
  ignore (Engine.run engine);
  Alcotest.(check int) "zombie frames never delivered" 0 !delivered;
  Alcotest.(check int) "both quarantined" 2
    (Reliable_channel.stale_quarantined ch);
  (* quarantine acked the frames, so the retransmission timers died and
     the engine drained — reaching this line is the liveness assertion *)
  Alcotest.(check int) "nothing left unacked" 0 (Reliable_channel.unacked ch)

(* The campaign's ghost-dot scan counts what it should on a hand-made
   execution: a second apply of one dot at one process, and each send or
   apply whose binding differs from the first seen for the dot. A dot of
   another generation, an apply at another process, and receipts, skips
   and reads count nothing. *)
let test_ghost_dot_scan () =
  let e = Execution.create ~n:3 ~m:2 () in
  let at = ref 0. in
  let record proc kind =
    at := !at +. 1.;
    Execution.record e ~proc ~time:(Sim_time.of_float !at) kind
  in
  let w1 = Dot.make ~replica:0 ~seq:1
  and w1' = Dot.make_gen ~replica:0 ~gen:1 ~seq:1
  and w2 = Dot.make ~replica:1 ~seq:1 in
  let apply proc dot var value =
    record proc (Execution.Apply { dot; var; value; delayed = false })
  in
  apply 0 w1 0 5;
  record 0 (Execution.Send { dot = w1; var = 0; value = 5 });
  record 1 (Execution.Receipt { dot = w1; src = 0 });
  apply 1 w1 0 5;
  apply 1 w1 0 5 (* applied twice at p2: one leak *);
  apply 2 w1 0 6 (* another value: one leak *);
  apply 2 w1' 0 7 (* another generation: a dot of its own *);
  record 2 (Execution.Skip { dot = w1 });
  apply 1 w2 1 3;
  record 1 (Execution.Send { dot = w2; var = 0; value = 3 })
  (* another variable: one leak *);
  record 0
    (Execution.Return
       { var = 1; value = Dsm_memory.Operation.Val 4; read_from = Some w2 });
  Alcotest.(check int) "leaks" 3 (Churn_campaign.count_quarantine_leaks e)

(* ---------------------------------------------------------------- *)
(* scripted churn campaign                                           *)
(* ---------------------------------------------------------------- *)

let mk_spec ~universe ~seed =
  Spec.make ~n:universe ~m:3 ~ops_per_process:25 ~write_ratio:0.5
    ~think:(Latency.Exponential { mean = 10. })
    ~seed ()

let exp_latency = Latency.Exponential { mean = 8. }

let scripted_plan =
  Fault_plan.make
    [
      (* slot 4 joins fresh at t=80 *)
      Fault_plan.Join { proc = 4; at = Sim_time.of_float 80. };
      (* slot 1 crashes at t=120 and rejoins (fresh incarnation) at 220 *)
      Fault_plan.Crash { proc = 1; at = Sim_time.of_float 120. };
      Fault_plan.Join { proc = 1; at = Sim_time.of_float 220. };
      (* slot 2 departs gracefully at t=300 *)
      Fault_plan.Leave { proc = 2; at = Sim_time.of_float 300. };
    ]

let run_scripted (module P : Protocol.S) seed =
  Churn_campaign.run
    (module P)
    ~spec:(mk_spec ~universe:6 ~seed)
    ~latency:exp_latency ~plan:scripted_plan ~initial:4 ~seed ()

let test_scripted_campaign () =
  let o = run_scripted (module Dsm_core.Opt_p) 3 in
  Alcotest.(check int) "one fresh join" 1 o.Churn_campaign.joins;
  Alcotest.(check int) "one rejoin" 1 o.Churn_campaign.rejoins;
  Alcotest.(check int) "one leave" 1 o.Churn_campaign.leaves;
  Alcotest.(check (list int)) "final view" [ 0; 1; 3; 4 ]
    o.Churn_campaign.active_at_end;
  Alcotest.(check int) "four view changes, four epochs" 4
    o.Churn_campaign.final_epoch;
  Alcotest.(check bool) "clean" true o.Churn_campaign.clean;
  Alcotest.(check bool) "live replicas converged" true
    o.Churn_campaign.live_equal;
  Alcotest.(check int) "no quarantine leaks" 0
    o.Churn_campaign.quarantine_leaks;
  Alcotest.(check int) "no safety violations" 0
    (List.length o.Churn_campaign.report.Checker.violations);
  Alcotest.(check int) "Theorem 4 across epochs: no unnecessary delays" 0
    o.Churn_campaign.report.Checker.unnecessary_delays;
  Alcotest.(check bool) "sponsor transferred state" true
    (o.Churn_campaign.transfer_bytes > 0);
  (* every catch-up episode converged *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d catch-up converged" (c.Churn_campaign.cproc + 1))
        true
        (c.Churn_campaign.converged_at <> None))
    o.Churn_campaign.catch_ups

let test_scripted_campaign_anbkh () =
  let o = run_scripted (module Dsm_core.Anbkh) 4 in
  Alcotest.(check bool) "clean" true o.Churn_campaign.clean;
  Alcotest.(check bool) "live replicas converged" true
    o.Churn_campaign.live_equal;
  Alcotest.(check int) "no quarantine leaks" 0
    o.Churn_campaign.quarantine_leaks

(* churn plans are refused by the static harness *)
let test_fault_campaign_refuses_churn () =
  try
    ignore
      (Dsm_runtime.Fault_campaign.run
         (module Dsm_core.Opt_p)
         ~spec:(mk_spec ~universe:6 ~seed:1)
         ~latency:exp_latency ~plan:scripted_plan ());
    Alcotest.fail "Fault_campaign must refuse churn plans"
  with Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* the acceptance campaign                                           *)
(* ---------------------------------------------------------------- *)

let test_acceptance_campaign () =
  (* 3 joins, 2 leaves, 1 crash-rejoin over a 12-slot universe. Lossy
     links plus a long retransmission timeout keep pre-crash frames of
     the rejoiner unacknowledged across its downtime, so their
     retransmissions arrive under the superseded incarnation and must
     be quarantined. *)
  let plan =
    Fault_plan.random_churn (Rng.create 1002) ~initial:6 ~n:12 ~horizon:400.
      ~joins:3 ~leaves:2 ~rejoins:1 ()
  in
  let o =
    Churn_campaign.run
      (module Dsm_core.Opt_p)
      ~spec:(mk_spec ~universe:12 ~seed:2)
      ~latency:exp_latency
      ~faults:{ Network.drop = 0.2; duplicate = 0.05; corrupt = 0.05 }
      ~plan ~initial:6 ~retransmit_after:60. ~seed:2 ()
  in
  Alcotest.(check int) "3 joins" 3 o.Churn_campaign.joins;
  Alcotest.(check int) "2 leaves" 2 o.Churn_campaign.leaves;
  Alcotest.(check int) "1 crash-rejoin" 1 o.Churn_campaign.rejoins;
  Alcotest.(check bool) "stale-incarnation traffic observed" true
    (o.Churn_campaign.chan_stale_quarantined > 0
    || o.Churn_campaign.net_stale_dropped > 0);
  Alcotest.(check bool) "corrupt frames observed and healed" true
    (o.Churn_campaign.corrupt_dropped > 0);
  Alcotest.(check bool) "clean across all epochs" true o.Churn_campaign.clean;
  Alcotest.(check bool) "live replicas converged" true
    o.Churn_campaign.live_equal;
  Alcotest.(check int) "zero quarantine leaks into Apply" 0
    o.Churn_campaign.quarantine_leaks;
  Alcotest.(check int) "Theorem 4: no unnecessary delays" 0
    o.Churn_campaign.report.Checker.unnecessary_delays

let sweep_one (pack : Protocol.packed) seed =
  match pack with
  | Protocol.Packed (module P) ->
      let plan =
        Fault_plan.random_churn
          (Rng.create (7919 * seed))
          ~initial:4 ~n:8 ~horizon:350.
          ~joins:(1 + (seed mod 3))
          ~leaves:(seed mod 2)
          ~rejoins:(seed mod 2)
          ()
      in
      let o =
        Churn_campaign.run
          (module P)
          ~spec:(mk_spec ~universe:8 ~seed)
          ~latency:exp_latency ~plan ~initial:4 ~seed ()
      in
      let ctx s = Printf.sprintf "%s seed %d: %s" P.name seed s in
      Alcotest.(check bool) (ctx "clean") true o.Churn_campaign.clean;
      Alcotest.(check bool) (ctx "live_equal") true o.Churn_campaign.live_equal;
      Alcotest.(check int) (ctx "no leaks") 0 o.Churn_campaign.quarantine_leaks;
      if P.name = "OptP" then
        Alcotest.(check int)
          (ctx "no unnecessary delays")
          0 o.Churn_campaign.report.Checker.unnecessary_delays

let test_random_churn_sweep () =
  List.iter
    (fun pack -> List.iter (sweep_one pack) (List.init 8 (fun i -> i + 1)))
    [
      Protocol.Packed (module Dsm_core.Opt_p);
      Protocol.Packed (module Dsm_core.Anbkh);
    ]

let () =
  Alcotest.run "membership"
    [
      ( "membership view",
        [
          Alcotest.test_case "slot state machine" `Quick
            test_membership_transitions;
        ] );
      ( "growable state",
        [
          Alcotest.test_case "grow + snapshot/restore across epochs" `Quick
            test_grow_snapshot_roundtrip;
          Alcotest.test_case "static topology refuses" `Quick
            test_grow_static_topologies_refuse;
        ] );
      ( "channel hardening",
        [
          Alcotest.test_case "corruption heals" `Quick test_corruption_heals;
          Alcotest.test_case "stale incarnation quarantine" `Quick
            test_stale_incarnation_quarantine;
          Alcotest.test_case "ghost-dot scan" `Quick test_ghost_dot_scan;
        ] );
      ( "churn campaigns",
        [
          Alcotest.test_case "scripted join/leave/rejoin, OptP" `Quick
            test_scripted_campaign;
          Alcotest.test_case "scripted join/leave/rejoin, ANBKH" `Quick
            test_scripted_campaign_anbkh;
          Alcotest.test_case "fault campaign refuses churn" `Quick
            test_fault_campaign_refuses_churn;
          Alcotest.test_case "acceptance: 3 joins, 2 leaves, 1 rejoin" `Quick
            test_acceptance_campaign;
          Alcotest.test_case "random churn sweep" `Quick
            test_random_churn_sweep;
        ] );
    ]
