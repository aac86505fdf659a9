(* Crash–recovery and partition tolerance.

   Five layers, bottom-up:
   - [Network] partition/crash-mark semantics and the informative
     no-handler failure;
   - [Reliable_channel] under extreme faults (drop=0.9, duplicate=0.5):
     exactly-once delivery, quiescence, backoff stats, and the
     crash-abort hook;
   - [Protocol.S.snapshot]/[restore] round-trips for every protocol;
   - full static crash-recovery campaigns ([Churn_campaign] with every
     slot a member from time 0): a fixed-seed schedule on every
     [dune runtest] (tier-1 exercises recovery), the scripted 8-replica
     acceptance campaign, and a property sweep over random
     crash/partition schedules asserting that recovered replicas end
     with the same [Apply]/[Write_co] vectors and store as replicas
     that never crashed;
   - the durable write log under [Replica_host]: a restore rebuilds the
     log as last committed, in the same order, and the bytes commits
     write grow linearly with the run. *)

module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Fault_plan = Dsm_sim.Fault_plan
module Sim_time = Dsm_sim.Sim_time
module Latency = Dsm_sim.Latency
module Rng = Dsm_sim.Rng
module Protocol = Dsm_core.Protocol
module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Spec = Dsm_workload.Spec
module Churn_campaign = Dsm_runtime.Churn_campaign
module Checker = Dsm_runtime.Checker
module Replica_host = Dsm_runtime.Replica_host

let flat_latency = Latency.Uniform { lo = 1.; hi = 20. }

(* ---------------------------------------------------------------- *)
(* network: partitions, crash marks, no-handler error                *)
(* ---------------------------------------------------------------- *)

let test_partition_drops () =
  let engine = Engine.create () in
  let rng = Rng.create 7 in
  let net =
    Network.create ~engine ~rng ~n:4
      ~latency:(fun ~src:_ ~dst:_ -> flat_latency)
      ()
  in
  let got = ref [] in
  for dst = 0 to 3 do
    Network.set_handler net dst (fun ~src ~at:_ v ->
        got := (src, dst, v) :: !got)
  done;
  Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "0-2 cut" true (Network.is_cut net ~a:0 ~b:2);
  Alcotest.(check bool) "0-1 open" false (Network.is_cut net ~a:0 ~b:1);
  Network.send net ~src:0 ~dst:1 1;  (* same side: delivered *)
  Network.send net ~src:0 ~dst:2 2;  (* across: dropped *)
  Network.send net ~src:3 ~dst:1 3;  (* across: dropped *)
  ignore (Engine.run engine);
  Alcotest.(check int) "partition drops" 2
    (Network.messages_partition_dropped net);
  Alcotest.(check int) "delivered" 1 (Network.messages_delivered net);
  Network.heal_all net;
  Network.send net ~src:0 ~dst:2 4;
  ignore (Engine.run engine);
  Alcotest.(check int) "delivered after heal" 2
    (Network.messages_delivered net);
  (* in-flight messages survive a cut made after the send *)
  Network.send net ~src:0 ~dst:2 5;
  Network.cut net ~a:0 ~b:2;
  ignore (Engine.run engine);
  Alcotest.(check int) "on-the-wire message still arrives" 3
    (Network.messages_delivered net)

let test_crash_marks () =
  let engine = Engine.create () in
  let rng = Rng.create 8 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> flat_latency)
      ()
  in
  let got = ref 0 in
  Network.set_handler net 0 (fun ~src:_ ~at:_ _ -> incr got);
  Network.set_handler net 1 (fun ~src:_ ~at:_ _ -> incr got);
  Network.mark_crashed net 1;
  Network.send net ~src:0 ~dst:1 1;
  ignore (Engine.run engine);
  (* delivery to a crashed process: counted silent drop, not an error *)
  Alcotest.(check int) "crash drops" 1 (Network.messages_crash_dropped net);
  Alcotest.(check int) "nothing delivered" 0 !got;
  Network.mark_recovered net 1;
  Network.send net ~src:0 ~dst:1 2;
  ignore (Engine.run engine);
  Alcotest.(check int) "delivered after recovery" 1 !got

let test_no_handler_error () =
  let engine = Engine.create () in
  let rng = Rng.create 9 in
  let net =
    Network.create ~engine ~rng ~n:3
      ~latency:(fun ~src:_ ~dst:_ -> flat_latency)
      ()
  in
  Network.send net ~src:2 ~dst:1 42;
  (match Engine.run engine with
  | exception Network.No_handler { dst; src; at } ->
      Alcotest.(check int) "dst" 1 dst;
      Alcotest.(check int) "src" 2 src;
      Alcotest.(check bool) "timestamp positive" true
        (Sim_time.to_float at > 0.)
  | _ -> Alcotest.fail "expected Network.No_handler")

(* ---------------------------------------------------------------- *)
(* reliable channel under extreme faults                             *)
(* ---------------------------------------------------------------- *)

let test_extreme_faults () =
  let engine = Engine.create () in
  let rng = Rng.create 101 in
  let net =
    Network.create ~engine ~rng ~n:3
      ~latency:(fun ~src:_ ~dst:_ -> flat_latency)
      ~faults:{ Network.drop = 0.9; duplicate = 0.5; corrupt = 0. }
      ()
  in
  let channel =
    Reliable_channel.create ~engine ~network:net ~retransmit_after:30. ~rng
      ()
  in
  let deliveries = Hashtbl.create 64 in
  for dst = 0 to 2 do
    Reliable_channel.set_handler channel dst (fun ~src ~at:_ v ->
        let k = (src, dst, v) in
        Hashtbl.replace deliveries k (1 + Option.value ~default:0
                                            (Hashtbl.find_opt deliveries k)))
  done;
  let sent = ref [] in
  for i = 1 to 40 do
    let src = i mod 3 in
    let dst = (i + 1) mod 3 in
    sent := (src, dst, i) :: !sent;
    Reliable_channel.send channel ~src ~dst i
  done;
  (* quiescence despite drop=0.9: every payload eventually acked *)
  (match Engine.run ~max_steps:5_000_000 engine with
  | Engine.Drained -> ()
  | _ -> Alcotest.fail "did not quiesce under extreme faults");
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        "delivered exactly once" (Some 1)
        (Hashtbl.find_opt deliveries k))
    !sent;
  Alcotest.(check int) "exactly-once count" 40
    (Reliable_channel.payloads_delivered channel);
  Alcotest.(check bool) "retransmissions happened" true
    (Reliable_channel.retransmissions channel > 0);
  Alcotest.(check int) "unacked reaches 0" 0
    (Reliable_channel.unacked channel);
  Alcotest.(check int) "nothing aborted" 0 (Reliable_channel.aborted channel)

(* abort_peer stops retransmission toward a crashed process: without
   it, the engine would never drain (the partitioned frames are dropped
   forever and the timers re-arm at the backoff cap for eternity) *)
let test_abort_peer () =
  let engine = Engine.create () in
  let rng = Rng.create 55 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> flat_latency)
      ()
  in
  let channel =
    Reliable_channel.create ~engine ~network:net ~retransmit_after:10. ()
  in
  Reliable_channel.set_handler channel 0 (fun ~src:_ ~at:_ _ -> ());
  Reliable_channel.set_handler channel 1 (fun ~src:_ ~at:_ _ -> ());
  Network.mark_crashed net 1;
  Reliable_channel.send channel ~src:0 ~dst:1 1;
  Reliable_channel.send channel ~src:0 ~dst:1 2;
  (* let a few retransmissions burn, bounded run *)
  ignore (Engine.run ~until:(Sim_time.of_float 200.) engine);
  Alcotest.(check int) "both unacked" 2 (Reliable_channel.unacked channel);
  let n_aborted = Reliable_channel.abort_peer channel ~peer:1 in
  Alcotest.(check int) "two payloads aborted" 2 n_aborted;
  Alcotest.(check int) "unacked zero after abort" 0
    (Reliable_channel.unacked channel);
  (match Engine.run ~max_steps:100_000 engine with
  | Engine.Drained -> ()
  | _ -> Alcotest.fail "abort_peer must let the engine drain")

(* the first retransmission interval is unchanged (seed-compatible):
   with default settings and no rng, a single retransmission fires at
   exactly retransmit_after after the send *)
let test_backoff_growth () =
  let engine = Engine.create () in
  let rng = Rng.create 56 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 1.)
      ()
  in
  let channel =
    Reliable_channel.create ~engine ~network:net ~retransmit_after:10.
      ~backoff:2. ~backoff_cap:40. ()
  in
  Reliable_channel.set_handler channel 0 (fun ~src:_ ~at:_ _ -> ());
  Reliable_channel.set_handler channel 1 (fun ~src:_ ~at:_ _ -> ());
  Network.cut net ~a:0 ~b:1;
  Reliable_channel.send channel ~src:0 ~dst:1 7;
  (* intervals: 10, 20, 40, 40 (capped), ... -> retransmissions at
     t=10,30,70,110,150 *)
  ignore (Engine.run ~until:(Sim_time.of_float 111.) engine);
  Alcotest.(check int) "capped exponential schedule" 4
    (Reliable_channel.retransmissions channel);
  ignore (Reliable_channel.abort_peer channel ~peer:1);
  ignore (Engine.run engine)

(* ---------------------------------------------------------------- *)
(* snapshot / restore round-trips                                    *)
(* ---------------------------------------------------------------- *)

let exchange (type pt pm)
    (module P : Protocol.S with type t = pt and type msg = pm) =
  (* a 3-process hand-run: p0 writes twice, p1 receives one of them *)
  let cfg = Protocol.config ~n:3 ~m:2 in
  let p0 = P.create cfg ~me:0 and p1 = P.create cfg ~me:1 in
  let msgs = ref [] in
  let step proto ~var ~value =
    let _, (eff : pm Protocol.effects) = P.write proto ~var ~value in
    List.iter
      (function
        | Protocol.Broadcast m -> msgs := m :: !msgs
        | Protocol.Unicast { msg; _ } -> msgs := msg :: !msgs)
      eff.to_send
  in
  step p0 ~var:0 ~value:11;
  step p0 ~var:1 ~value:12;
  (match List.rev !msgs with
  | first :: _ -> ignore (P.receive p1 ~src:0 first)
  | [] -> ());
  (p0, p1, cfg)

let snapshot_case (name, pack) =
  let run () =
    match pack with
    | Protocol.Packed (module P) ->
        let p0, p1, cfg = exchange (module P) in
        let image = P.snapshot p1 in
        let r = P.restore cfg ~me:1 image in
        Alcotest.(check (array int))
          "Apply preserved"
          (V.to_array (P.applied_vector p1))
          (V.to_array (P.applied_vector r));
        Alcotest.(check (array int))
          "clock preserved"
          (V.to_array (P.local_clock p1))
          (V.to_array (P.local_clock r));
        Alcotest.(check int) "pending buffer preserved" (P.buffered p1)
          (P.buffered r);
        for var = 0 to 1 do
          Alcotest.(check bool)
            (Printf.sprintf "store var %d preserved" var)
            true
            (P.read p1 ~var = P.read r ~var)
        done;
        (* the image is a deep copy: mutating the origin after the
           snapshot must not leak into the restored state *)
        let before = V.to_array (P.applied_vector r) in
        ignore (P.write p1 ~var:0 ~value:99);
        Alcotest.(check (array int))
          "no sharing with the live state" before
          (V.to_array (P.applied_vector r));
        (* identity guards *)
        (try
           ignore (P.restore cfg ~me:2 image);
           Alcotest.fail "restore with wrong process must fail"
         with Invalid_argument _ -> ());
        (try
           ignore (P.restore (Protocol.config ~n:4 ~m:2) ~me:1 image);
           Alcotest.fail "restore with wrong config must fail"
         with Invalid_argument _ -> ());
        ignore p0
  in
  Alcotest.test_case name `Quick run

let all_protocols =
  [
    ("OptP", Protocol.Packed (module Dsm_core.Opt_p));
    ("OptP/scan", Protocol.Packed (module Dsm_core.Opt_p.Scan));
    ("ANBKH", Protocol.Packed (module Dsm_core.Anbkh));
    ("OptP-WS", Protocol.Packed (module Dsm_core.Opt_p_ws));
    ("WS-recv", Protocol.Packed (module Dsm_core.Ws_receiver));
    ("WS-token", Protocol.Packed (module Dsm_core.Ws_token));
    ("OptP-direct", Protocol.Packed (module Dsm_core.Opt_p_direct));
  ]

let test_partial_snapshot () =
  let module Pp = Dsm_core.Opt_p_partial in
  let repl = Dsm_core.Replication.ring ~n:3 ~m:4 ~degree:2 in
  let p = Pp.create repl ~me:0 in
  let var =
    List.hd (Dsm_core.Replication.vars_of repl ~proc:0)
  in
  ignore (Pp.write p ~var ~value:5);
  let image = Pp.snapshot p in
  let r = Pp.restore repl ~me:0 image in
  Alcotest.(check bool) "matrix preserved" true
    (Array.map V.to_array (Pp.applied_matrix p)
    = Array.map V.to_array (Pp.applied_matrix r));
  Alcotest.(check bool) "read preserved" true
    (Pp.read p ~var = Pp.read r ~var);
  try
    ignore (Pp.restore repl ~me:1 image);
    Alcotest.fail "restore with wrong process must fail"
  with Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* fault plans                                                       *)
(* ---------------------------------------------------------------- *)

let test_plan_validation () =
  let t f = Sim_time.of_float f in
  let ok =
    Fault_plan.make
      [
        Fault_plan.Recover { proc = 1; at = t 300. };
        Fault_plan.Crash { proc = 1; at = t 100. };
        Fault_plan.Cut { groups = [ [ 0 ]; [ 1; 2 ] ]; at = t 50. };
        Fault_plan.Heal { at = t 200. };
      ]
  in
  Fault_plan.validate ~n:3 ok;
  Alcotest.(check (list int)) "nobody down at end" []
    (Fault_plan.down_at_end ok);
  Alcotest.(check (list int)) "down at end" [ 2 ]
    (Fault_plan.down_at_end
       (Fault_plan.make [ Fault_plan.Crash { proc = 2; at = t 10. } ]));
  let bad =
    Fault_plan.make
      [
        Fault_plan.Crash { proc = 0; at = t 10. };
        Fault_plan.Crash { proc = 0; at = t 20. };
      ]
  in
  (try
     Fault_plan.validate ~n:3 bad;
     Alcotest.fail "double crash must be rejected"
   with Invalid_argument _ -> ());
  (try
     Fault_plan.validate ~n:2
       [ Fault_plan.Recover { proc = 0; at = t 5. } ];
     Alcotest.fail "recovery of a live process must be rejected"
   with Invalid_argument _ -> ());
  (* random plans are always valid *)
  let rng = Rng.create 4242 in
  for _ = 1 to 50 do
    let plan =
      Fault_plan.random rng ~n:6 ~horizon:1000. ~crashes:2 ~partitions:2 ()
    in
    Fault_plan.validate ~n:6 plan
  done

(* ---------------------------------------------------------------- *)
(* crash-recovery campaigns                                          *)
(* ---------------------------------------------------------------- *)

let small_plan =
  let t f = Sim_time.of_float f in
  Fault_plan.make
    [
      Fault_plan.Crash { proc = 1; at = t 120. };
      Fault_plan.Cut { groups = [ [ 0; 1 ]; [ 2; 3 ] ]; at = t 150. };
      Fault_plan.Heal { at = t 260. };
      Fault_plan.Recover { proc = 1; at = t 320. };
    ]

let small_spec seed =
  Spec.make ~n:4 ~m:3 ~ops_per_process:40 ~write_ratio:0.5
    ~think:(Latency.Exponential { mean = 10. })
    ~seed ()

(* a static campaign: every slot of the spec is a member from time 0 *)
let campaign (module P : Protocol.S) ?faults ?metrics ~spec ~latency ~plan
    ~seed () =
  Churn_campaign.run
    (module P)
    ~spec ~latency ?faults ~plan ~initial:spec.Spec.n ~seed ?metrics ()

let check_campaign ?(optimal = true) name (o : Churn_campaign.outcome) =
  let ctx s = Printf.sprintf "%s: %s" name s in
  Alcotest.(check bool)
    (ctx "causally consistent (checker clean modulo down replicas)")
    true o.clean;
  (* Theorem 4 is OptP's property; ANBKH produces false-causality
     delays by design, crash or no crash *)
  if optimal then
    Alcotest.(check int)
      (ctx "no unnecessary delays despite recovery")
      0 o.report.Checker.unnecessary_delays;
  Alcotest.(check bool) (ctx "live replicas converged") true o.live_equal;
  List.iter
    (fun (c : Churn_campaign.catch_up) ->
      Alcotest.(check bool)
        (ctx (Printf.sprintf "p%d recovered" (c.cproc + 1)))
        true
        (c.ckind = Churn_campaign.Recover);
      Alcotest.(check bool)
        (ctx (Printf.sprintf "p%d caught up" (c.cproc + 1)))
        true
        (c.converged_at <> None))
    o.catch_ups

(* the tier-1 fixed-seed schedule: every `dune runtest` exercises a
   crash, a partition, recovery and anti-entropy *)
let test_fixed_campaign_optp () =
  let metrics = Dsm_obs.Metrics.create () in
  let o =
    campaign
      (module Dsm_core.Opt_p)
      ~spec:(small_spec 11)
      ~latency:(Latency.Exponential { mean = 8. })
      ~plan:small_plan ~seed:3 ~metrics ()
  in
  check_campaign "OptP fixed" o;
  Alcotest.(check int) "one recovery" 1 (List.length o.catch_ups);
  Alcotest.(check bool) "sync traffic happened" true (o.sync_requests > 0);
  Alcotest.(check bool) "partition dropped frames" true
    (o.net_partition_dropped > 0);
  let c = List.hd o.catch_ups in
  Alcotest.(check (option (float 0.))) "crash time recorded" (Some 120.)
    c.crashed_at;
  (* the rollback-depth histogram sees the one restore *)
  match
    List.find_map
      (fun (name, _, v) ->
        if name = "campaign_rollback_depth" then Some v else None)
      (Dsm_obs.Metrics.rows metrics)
  with
  | Some (Dsm_obs.Metrics.Histogram_v { count; sum; _ }) ->
      Alcotest.(check int) "one rollback observed" 1 count;
      Alcotest.(check (float 0.)) "rollback depth"
        (float_of_int c.rolled_back) sum
  | _ -> Alcotest.fail "campaign_rollback_depth not registered"

let test_fixed_campaign_anbkh () =
  let o =
    campaign
      (module Dsm_core.Anbkh)
      ~spec:(small_spec 12)
      ~latency:(Latency.Exponential { mean = 8. })
      ~plan:small_plan ~seed:4 ()
  in
  check_campaign ~optimal:false "ANBKH fixed" o

(* the acceptance schedule ({!Dsm_runtime.Experiment.acceptance_plan}):
   8 replicas, 2 crash mid-run, a 500-time-unit partition, heal,
   recover, quiesce *)
let test_acceptance_campaign () =
  let o = Dsm_runtime.Experiment.acceptance_campaign () in
  check_campaign "acceptance" o;
  Alcotest.(check (list int)) "everyone lives at the end"
    (List.init 8 Fun.id) o.active_at_end;
  Alcotest.(check int) "two recoveries" 2 (List.length o.catch_ups);
  Alcotest.(check int) "all 8 replicas compared" 8
    (List.length o.final_states);
  Alcotest.(check bool) "anti-entropy replayed writes" true
    (o.replayed_writes > 0);
  Alcotest.(check bool) "partition was felt" true
    (o.net_partition_dropped > 0);
  Alcotest.(check bool) "crashes were felt" true
    (o.net_crash_dropped > 0 || o.aborted_payloads > 0)

(* property: random crash/partition schedules; a recovered replica's
   Write_co/Apply equal those of a never-crashed replica after
   quiescence + settle *)
let test_random_campaigns () =
  let rng = Rng.create 777 in
  for seed = 1 to 12 do
    let n = 4 + (seed mod 3) in
    let crashes = 1 + (seed mod 2) in
    let plan =
      Fault_plan.random rng ~n ~horizon:600. ~crashes ~partitions:1 ()
    in
    let spec =
      Spec.make ~n ~m:3 ~ops_per_process:30 ~write_ratio:0.5
        ~think:(Latency.Exponential { mean = 12. })
        ~seed ()
    in
    let o =
      campaign
        (module Dsm_core.Opt_p)
        ~spec
        ~latency:(Latency.Exponential { mean = 9. })
        ~plan ~seed:(seed * 13) ()
    in
    let name = Printf.sprintf "random seed %d" seed in
    check_campaign name o;
    (* explicit satellite assertion: recovered vs never-crashed *)
    let crashed_procs =
      List.map (fun (c : Churn_campaign.catch_up) -> c.cproc) o.catch_ups
    in
    let witness =
      List.find_opt
        (fun (s : Churn_campaign.replica_state) ->
          not (List.mem s.sproc crashed_procs))
        o.final_states
    in
    match witness with
    | None -> ()
    | Some w ->
        List.iter
          (fun (s : Churn_campaign.replica_state) ->
            if List.mem s.sproc crashed_procs then begin
              Alcotest.(check (array int))
                (name ^ ": recovered Apply = never-crashed Apply")
                w.sapplied s.sapplied;
              Alcotest.(check (array int))
                (name ^ ": recovered Write_co = never-crashed Write_co")
                w.sclock s.sclock;
              Alcotest.(check bool)
                (name ^ ": recovered store = never-crashed store")
                true
                (s.sstore = w.sstore)
            end)
          o.final_states
  done

(* a process that never recovers: the campaign still checks clean, the
   corpse is excused from completeness *)
let test_unrecovered_crash () =
  let t f = Sim_time.of_float f in
  let plan =
    Fault_plan.make [ Fault_plan.Crash { proc = 3; at = t 150. } ]
  in
  let o =
    campaign
      (module Dsm_core.Opt_p)
      ~spec:(small_spec 21)
      ~latency:(Latency.Exponential { mean = 8. })
      ~plan ~seed:9 ()
  in
  Alcotest.(check (list int)) "p4 stays down" [ 0; 1; 2 ] o.active_at_end;
  Alcotest.(check bool) "still clean" true o.clean;
  Alcotest.(check bool) "live replicas still converge" true o.live_equal;
  Alcotest.(check int) "three live states" 3 (List.length o.final_states)

(* regression: a permanently-crashed process whose pre-crash broadcasts
   were partially lost (drop faults) must neither keep the simulation
   alive forever — acks to the corpse are crash-dropped, so its send
   queue is abandoned at crash time — nor leave the survivors diverged:
   live-replica gossip re-disseminates whatever any of them applied *)
let test_permanent_crash_lossy () =
  let spec =
    Spec.make ~n:6 ~m:4 ~ops_per_process:40 ~write_ratio:0.5
      ~think:(Latency.Exponential { mean = 10. })
      ~seed:7 ()
  in
  let t f = Sim_time.of_float f in
  let plan =
    Fault_plan.make
      [
        Fault_plan.Crash { proc = 2; at = t 200. };
        Fault_plan.Crash { proc = 4; at = t 250. };
        Fault_plan.Cut { groups = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]; at = t 300. };
        Fault_plan.Heal { at = t 500. };
        Fault_plan.Recover { proc = 2; at = t 600. };
      ]
  in
  let o =
    campaign
      (module Dsm_core.Opt_p)
      ~spec
      ~latency:(Latency.Exponential { mean = 12. })
      ~faults:{ Network.drop = 0.15; duplicate = 0.; corrupt = 0. }
      ~plan ~seed:7 ()
  in
  check_campaign "permanent crash + lossy links" o;
  Alcotest.(check (list int)) "p5 stays down" [ 0; 1; 2; 3; 5 ]
    o.active_at_end;
  Alcotest.(check int) "one recovery" 1 (List.length o.catch_ups);
  Alcotest.(check int) "five live states" 5 (List.length o.final_states);
  Alcotest.(check bool) "the corpse's send queue was abandoned" true
    (o.aborted_payloads > 0)

(* ---------------------------------------------------------------- *)
(* the durable write log                                             *)
(* ---------------------------------------------------------------- *)

(* One step of the restore-equivalence property, applied to slot 0 of a
   three-slot OptP host. *)
type log_op =
  | Write of int  (** slot 0 writes this value *)
  | Peer_write of int * int
      (** that peer writes this value, then the engine drains: slot 0
          logs what it receives *)
  | Sync
      (** slot 0 asks its peers for what it misses, then the engine
          drains: replies replay through the durable delivery path *)
  | Commit
  | Crash_restore
  | Reset  (** empty the log and drop the durable state *)
  | Reclaim
      (** drop the entries every slot has applied, as a soak barrier
          does, without committing *)

let pp_log_op = function
  | Write v -> Printf.sprintf "write %d" v
  | Peer_write (p, v) -> Printf.sprintf "p%d writes %d" (p + 1) v
  | Sync -> "sync"
  | Commit -> "commit"
  | Crash_restore -> "crash+restore"
  | Reset -> "reset"
  | Reclaim -> "reclaim"

let gen_log_op =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun v -> Write v) (int_range 1 999));
        ( 4,
          map2 (fun p v -> Peer_write (p, v)) (int_range 1 2) (int_range 1 999)
        );
        (1, pure Sync);
        (3, pure Commit);
        (2, pure Crash_restore);
        (1, pure Reset);
        (1, pure Reclaim);
      ])

(* Built as [Soak.run] builds its host, with duplicating links. *)
let optp_host () =
  let module P = Dsm_core.Opt_p in
  let n = 3 and m = 2 in
  let engine = Engine.create () in
  let rng = Rng.create 17 in
  let network =
    Replica_host.network
      (module P)
      ~engine ~rng ~n ~latency:flat_latency
      ~faults:{ Network.drop = 0.; duplicate = 0.2; corrupt = 0. }
      ~wire:(Dsm_obs.Wire.null ()) ()
  in
  let channel =
    Reliable_channel.create ~engine ~network ~retransmit_after:50. ~rng ()
  in
  let membership =
    Dsm_runtime.Membership.create ~universe:n ~initial:[ 0; 1; 2 ] ()
  in
  let host =
    Replica_host.create
      (module P)
      ~engine ~network ~channel ~membership
      ~execution:(Dsm_runtime.Execution.create ~n ~m ())
      ~m ~width:n
      ~initial:(fun id -> Some (P.create (Protocol.config ~n ~m) ~me:id))
      ~sync_rounds:2 ~sync_every:50. ~metrics:(Dsm_obs.Metrics.null ())
  in
  (engine, host)

(* After every restore, slot 0's log holds the bindings of the table it
   held at its last commit, in the same [Hashtbl.to_seq] order: the
   session tier's at-most-once probe takes the first match of that
   order. A reset drops the durable state with the log, so a restore
   before the next commit starts empty. *)
let prop_restore_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"restore rebuilds the committed log" ~count:200
       ~print:QCheck2.Print.(list pp_log_op)
       QCheck2.Gen.(list_size (int_range 1 60) gen_log_op)
       (fun ops ->
         let engine, host = optp_host () in
         let slots = host.Replica_host.slots in
         let slot = slots.(0) in
         let drain () =
           Replica_host.drain engine ~max_steps:200_000
             "restore-equivalence run"
         in
         let bindings tbl = List.of_seq (Hashtbl.to_seq tbl) in
         let committed = ref (Hashtbl.create 256) in
         List.for_all
           (function
             | Write value ->
                 ignore (Replica_host.write host slot ~var:(value mod 2) ~value);
                 true
             | Peer_write (p, value) ->
                 ignore
                   (Replica_host.write host slots.(p) ~var:(value mod 2) ~value);
                 drain ();
                 true
             | Sync ->
                 Replica_host.sync_request host slot;
                 drain ();
                 true
             | Commit ->
                 Replica_host.commit host slot;
                 committed := Hashtbl.copy slot.log;
                 true
             | Crash_restore ->
                 Replica_host.crash host slot;
                 Replica_host.bump_incarnation host 0;
                 slot.down <- false;
                 ignore (Replica_host.restore host slot);
                 bindings slot.log = bindings !committed
             | Reset ->
                 Replica_host.reset_log slot;
                 committed := Hashtbl.create 256;
                 true
             | Reclaim ->
                 let common =
                   Array.init 3 (fun u ->
                       Array.fold_left
                         (fun acc s ->
                           min acc (V.get0 (Replica_host.applied host s) u))
                         max_int slots)
                 in
                 ignore (Replica_host.reclaim_log slot ~below:common);
                 true)
           ops))

(* [dsm-sim run -n 4 -m 3 --seed 3 --latency exp:8 --crash 1@120:320
   --ops N] commits after every local write. Each commit appends only
   what it logged since the last, so doubling the run about doubles the
   bytes its commits write; a commit that re-encoded the whole log
   would make them grow with the square of the run (x3.87 here). *)
let test_durability_growth () =
  let t f = Sim_time.of_float f in
  let plan =
    Fault_plan.make
      [
        Fault_plan.Crash { proc = 1; at = t 120. };
        Fault_plan.Recover { proc = 1; at = t 320. };
      ]
  in
  let bytes ops =
    let spec = Spec.make ~n:4 ~m:3 ~ops_per_process:ops ~seed:3 () in
    (campaign
       (module Dsm_core.Opt_p)
       ~spec
       ~latency:(Latency.Exponential { mean = 8. })
       ~plan ~seed:3 ())
      .snapshot_bytes
  in
  let short = bytes 100 and long = bytes 200 in
  Alcotest.(check bool)
    (Printf.sprintf "%d B at 100 ops, %d B at 200: less than x2.5" short long)
    true
    (float_of_int long < 2.5 *. float_of_int short)

let () =
  Alcotest.run "recovery"
    [
      ( "network faults",
        [
          Alcotest.test_case "partition drops at send time" `Quick
            test_partition_drops;
          Alcotest.test_case "crashed delivery is a counted drop" `Quick
            test_crash_marks;
          Alcotest.test_case "no-handler error carries context" `Quick
            test_no_handler_error;
        ] );
      ( "reliable channel",
        [
          Alcotest.test_case "exactly-once under drop=0.9 dup=0.5" `Quick
            test_extreme_faults;
          Alcotest.test_case "abort_peer stops retransmission" `Quick
            test_abort_peer;
          Alcotest.test_case "capped exponential backoff" `Quick
            test_backoff_growth;
        ] );
      ("snapshot/restore", List.map snapshot_case all_protocols
                           @ [
                               Alcotest.test_case "OptP-partial" `Quick
                                 test_partial_snapshot;
                             ]);
      ( "fault plans",
        [ Alcotest.test_case "validation + random" `Quick
            test_plan_validation ] );
      ( "campaigns",
        [
          Alcotest.test_case "fixed seed, OptP" `Quick
            test_fixed_campaign_optp;
          Alcotest.test_case "fixed seed, ANBKH" `Quick
            test_fixed_campaign_anbkh;
          Alcotest.test_case "8 replicas, 2 crashes, 500-unit partition"
            `Quick test_acceptance_campaign;
          Alcotest.test_case "random schedules converge" `Quick
            test_random_campaigns;
          Alcotest.test_case "unrecovered crash is excused" `Quick
            test_unrecovered_crash;
          Alcotest.test_case "permanent crash under lossy links" `Quick
            test_permanent_crash_lossy;
        ] );
      ( "durable log",
        [
          prop_restore_equivalence;
          Alcotest.test_case "commit bytes grow linearly" `Quick
            test_durability_growth;
        ] );
    ]
