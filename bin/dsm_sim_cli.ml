(* dsm-sim — command-line driver for the causal-DSM simulator.

   Subcommands:
     run      simulate a workload under one protocol and audit the run
     report   run with the full observability stack and emit one report
     explain  run, then print the provenance of every write delay
     nemesis  adversarial combined-fault campaigns, swarm + shrinker
     plan     validate a fault plan and show which driver runs it
     tables   regenerate the paper's tables and figures
     sweep    run a quantitative experiment (Q1..Q6)
     graph    emit the write causality graph of a run (Graphviz)
     bench    benchmark-artifact tooling (bench diff OLD NEW)

   Examples:
     dsm-sim run --protocol optp -n 6 -m 8 --ops 200 --write-ratio 0.6
     dsm-sim run --protocol anbkh --latency lognormal:2.3,1.0 --seed 3
     dsm-sim run --trace-out run.json --trace-format chrome --metrics-out m.json
     dsm-sim run --wire --wire-out wire.json
     dsm-sim report --protocol optp -n 8 --json > report.json
     dsm-sim bench diff BENCH_old.json BENCH_new.json --fail-over 2.0
     dsm-sim explain --protocol anbkh --seed 3
     dsm-sim tables --section T1
     dsm-sim sweep --experiment q2   (q1..q11)
     dsm-sim graph -n 4 --ops 20
     dsm-sim nemesis                 (scenario corpus)
     dsm-sim nemesis --swarm 64 --seed 7 --shrink --out min.json
     dsm-sim nemesis --replay min.json *)

open Cmdliner

module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Experiment = Dsm_runtime.Experiment
module Checker = Dsm_runtime.Checker
module Sim_run = Dsm_runtime.Sim_run
module Provenance = Dsm_runtime.Provenance
module Metrics = Dsm_obs.Metrics

(* ---------------------------------------------------------------- *)
(* shared argument parsing                                           *)
(* ---------------------------------------------------------------- *)

let protocol_of_string = function
  | "optp" -> Ok (module Dsm_core.Opt_p : Dsm_core.Protocol.S)
  | "anbkh" -> Ok (module Dsm_core.Anbkh : Dsm_core.Protocol.S)
  | "ws-recv" -> Ok (module Dsm_core.Ws_receiver : Dsm_core.Protocol.S)
  | "optp-ws" -> Ok (module Dsm_core.Opt_p_ws : Dsm_core.Protocol.S)
  | "ws-token" -> Ok (module Dsm_core.Ws_token : Dsm_core.Protocol.S)
  | "optp-direct" -> Ok (module Dsm_core.Opt_p_direct : Dsm_core.Protocol.S)
  | s ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown protocol %S (expected optp | anbkh | ws-recv | \
              optp-ws | ws-token | optp-direct)"
             s))

let protocol_conv =
  Arg.conv
    ( protocol_of_string,
      fun ppf (module P : Dsm_core.Protocol.S) ->
        Format.pp_print_string ppf P.name )

(* latency syntax: const:C | uniform:LO,HI | exp:MEAN | lognormal:MU,SIGMA
   | pareto:SCALE,SHAPE *)
let latency_of_string s =
  let parse_floats part =
    String.split_on_char ',' part |> List.map float_of_string
  in
  match String.split_on_char ':' s with
  | [ "const"; p ] -> (
      match parse_floats p with
      | [ c ] -> Ok (Latency.Constant c)
      | _ -> Error (`Msg "const takes one parameter"))
  | [ "uniform"; p ] -> (
      match parse_floats p with
      | [ lo; hi ] -> Ok (Latency.Uniform { lo; hi })
      | _ -> Error (`Msg "uniform takes lo,hi"))
  | [ "exp"; p ] -> (
      match parse_floats p with
      | [ mean ] -> Ok (Latency.Exponential { mean })
      | _ -> Error (`Msg "exp takes one parameter"))
  | [ "lognormal"; p ] -> (
      match parse_floats p with
      | [ mu; sigma ] -> Ok (Latency.Lognormal { mu; sigma })
      | _ -> Error (`Msg "lognormal takes mu,sigma"))
  | [ "pareto"; p ] -> (
      match parse_floats p with
      | [ scale; shape ] -> Ok (Latency.Pareto { scale; shape })
      | _ -> Error (`Msg "pareto takes scale,shape"))
  | _ ->
      Error
        (`Msg
          "latency syntax: const:C | uniform:LO,HI | exp:MEAN | \
           lognormal:MU,SIGMA | pareto:SCALE,SHAPE")

let latency_of_string s =
  try latency_of_string s
  with Failure _ -> Error (`Msg "latency parameters must be numbers")

let latency_conv = Arg.conv (latency_of_string, Latency.pp)

let protocol =
  Arg.(
    value
    & opt protocol_conv (module Dsm_core.Opt_p : Dsm_core.Protocol.S)
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"Protocol: optp, anbkh, ws-recv, optp-ws, ws-token or optp-direct.")

let n_procs =
  Arg.(value & opt int 4 & info [ "n"; "processes" ] ~docv:"N"
         ~doc:"Number of processes.")

let m_vars =
  Arg.(value & opt int 8 & info [ "m"; "variables" ] ~docv:"M"
         ~doc:"Number of shared memory locations.")

let ops =
  Arg.(value & opt int 200 & info [ "ops" ] ~docv:"OPS"
         ~doc:"Operations per process.")

let write_ratio =
  Arg.(value & opt float 0.5 & info [ "write-ratio" ] ~docv:"R"
         ~doc:"Fraction of operations that are writes, in [0,1].")

let zipf =
  Arg.(value & opt (some float) None & info [ "zipf" ] ~docv:"S"
         ~doc:"Zipf exponent for variable choice (uniform if absent).")

let latency =
  Arg.(
    value
    & opt latency_conv
        (Latency.Lognormal { mu = log 10. -. 0.5; sigma = 1.0 })
    & info [ "latency" ] ~docv:"DIST" ~doc:"Channel latency distribution.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Seed for workload and network randomness.")

let fifo =
  Arg.(value & flag & info [ "fifo" ]
         ~doc:"Per-channel FIFO delivery (default: reordering allowed).")

let drop =
  Arg.(value & opt float 0. & info [ "drop" ] ~docv:"P"
         ~doc:"Frame drop probability; > 0 switches to the \
               reliable-channel substrate.")

let duplicate =
  Arg.(value & opt float 0. & info [ "duplicate" ] ~docv:"P"
         ~doc:"Frame duplication probability (with --drop, uses the \
               reliable-channel substrate).")

let corrupt =
  Arg.(value & opt float 0. & info [ "corrupt" ] ~docv:"P"
         ~doc:"Frame corruption probability; checksums detect and drop \
               mangled frames, retransmission heals them (uses the \
               reliable-channel substrate).")

let repl_degree =
  Arg.(value & opt (some int) None
       & info [ "replication-degree" ] ~docv:"K"
           ~doc:"Replicate each location at K processes (ring layout) \
                 and run the partial-replication protocol instead.")

(* --crash P@T1:T2 (recover at T2) or P@T1 (stays down) *)
let crash_of_string s =
  let err =
    Error (`Msg "crash syntax: PROC@T_CRASH[:T_RECOVER] (0-based process)")
  in
  match String.split_on_char '@' s with
  | [ p; times ] -> (
      match
        ( int_of_string_opt p,
          List.map float_of_string_opt (String.split_on_char ':' times) )
      with
      | Some p, [ Some t1 ] -> Ok (p, t1, None)
      | Some p, [ Some t1; Some t2 ] -> Ok (p, t1, Some t2)
      | _ -> err)
  | _ -> err

let crash_conv =
  Arg.conv
    ( crash_of_string,
      fun ppf (p, t1, t2) ->
        match t2 with
        | Some t2 -> Format.fprintf ppf "%d@%g:%g" p t1 t2
        | None -> Format.fprintf ppf "%d@%g" p t1 )

let crashes =
  Arg.(
    value
    & opt_all crash_conv []
    & info [ "crash" ] ~docv:"P@T1:T2"
        ~doc:
          "Crash process $(b,P) (0-based) at time $(b,T1) and recover it \
           from its last durable snapshot at $(b,T2) (omit $(b,:T2) to \
           leave it down). Repeatable. Switches to the fault-campaign \
           driver (protocols: optp, anbkh, optp-direct).")

(* --partition 0,1/2,3@T1:T2 *)
let partition_of_string s =
  let err =
    Error
      (`Msg
        "partition syntax: G1/G2[/G3...]@T_CUT:T_HEAL with groups like \
         0,1,2 (0-based processes)")
  in
  match String.split_on_char '@' s with
  | [ groups; times ] -> (
      let parse_group g =
        String.split_on_char ',' g |> List.map int_of_string_opt
      in
      let groups = List.map parse_group (String.split_on_char '/' groups) in
      match
        ( List.for_all (List.for_all Option.is_some) groups,
          List.map float_of_string_opt (String.split_on_char ':' times) )
      with
      | true, [ Some t1; Some t2 ] when t2 > t1 ->
          Ok (List.map (List.map Option.get) groups, t1, t2)
      | _ -> err)
  | _ -> err

let partition_conv =
  Arg.conv
    ( partition_of_string,
      fun ppf (groups, t1, t2) ->
        Format.fprintf ppf "%s@%g:%g"
          (String.concat "/"
             (List.map
                (fun g -> String.concat "," (List.map string_of_int g))
                groups))
          t1 t2 )

let partitions =
  Arg.(
    value
    & opt_all partition_conv []
    & info [ "partition" ] ~docv:"GROUPS@T1:T2"
        ~doc:
          "Cut the network into $(b,GROUPS) (e.g. 0,1/2,3) at $(b,T1) and \
           heal every cut at $(b,T2). Repeatable (episodes should not \
           overlap: a heal heals all cuts). Switches to the \
           fault-campaign driver.")

(* --join P@T / --leave P@T: membership events over a fixed universe *)
let proc_at_of_string what s =
  let err =
    Error (`Msg (Printf.sprintf "%s syntax: PROC@TIME (0-based process)" what))
  in
  match String.split_on_char '@' s with
  | [ p; time ] -> (
      match (int_of_string_opt p, float_of_string_opt time) with
      | Some p, Some t when t >= 0. -> Ok (p, t)
      | _ -> err)
  | _ -> err

let proc_at_conv what =
  Arg.conv
    ( proc_at_of_string what,
      fun ppf (p, t) -> Format.fprintf ppf "%d@%g" p t )

let joins =
  Arg.(
    value
    & opt_all (proc_at_conv "join") []
    & info [ "join" ] ~docv:"P@T"
        ~doc:
          "Slot $(b,P) (0-based, within -n) joins the membership view at \
           time $(b,T): a fresh process bootstraps by state transfer from \
           a sponsor, a crashed member rejoins under a new incarnation. \
           Repeatable. Switches to the churn-campaign driver; combine \
           with --initial to start with fewer than n members.")

let leaves =
  Arg.(
    value
    & opt_all (proc_at_conv "leave") []
    & info [ "leave" ] ~docv:"P@T"
        ~doc:
          "Member $(b,P) departs gracefully at time $(b,T): it stops \
           issuing, flushes its unacknowledged writes, then leaves the \
           view for good. Repeatable. Switches to the churn-campaign \
           driver.")

let initial_members =
  Arg.(
    value
    & opt (some int) None
    & info [ "initial" ] ~docv:"K"
        ~doc:
          "Only slots 0..K-1 are members at time 0; the remaining slots \
           of the n-slot universe are free to --join later. Default: all \
           n. Switches to the churn-campaign driver.")

(* --churn J,L,R@H: a randomized churn storm *)
let churn_of_string s =
  let err =
    Error
      (`Msg
        "churn syntax: JOINS,LEAVES,REJOINS@HORIZON (e.g. 3,2,1@400)")
  in
  match String.split_on_char '@' s with
  | [ counts; horizon ] -> (
      match
        ( List.map int_of_string_opt (String.split_on_char ',' counts),
          float_of_string_opt horizon )
      with
      | [ Some j; Some l; Some r ], Some h when h > 0. -> Ok (j, l, r, h)
      | _ -> err)
  | _ -> err

let churn_conv =
  Arg.conv
    ( churn_of_string,
      fun ppf (j, l, r, h) -> Format.fprintf ppf "%d,%d,%d@%g" j l r h )

let churn =
  Arg.(
    value
    & opt (some churn_conv) None
    & info [ "churn" ] ~docv:"J,L,R@H"
        ~doc:
          "Randomized churn schedule over horizon $(b,H): $(b,J) fresh \
           joins, $(b,L) graceful leaves, $(b,R) crash-rejoins, drawn \
           from --seed. Needs --initial (default n-J) members at time 0 \
           within the -n slot universe. Does not combine with \
           --crash/--partition/--join/--leave.")

(* --fd: emergent membership, the detector produces the view *)
let fd_flag =
  Arg.(
    value & flag
    & info [ "fd" ]
        ~doc:
          "Emergent membership: active slots gossip heartbeats, a \
           phi-accrual failure detector accrues suspicion from silence, \
           and every membership change is detector-driven — a crossed \
           threshold marks the peer down, a later heartbeat refutes the \
           suspicion and rejoins the slot under a fresh incarnation. \
           Scripted membership (--join/--leave/--churn) is refused: \
           --crash/--partition are the only inputs. Switches to the \
           churn-campaign driver.")

let fd_threshold =
  Arg.(
    value
    & opt float 3.
    & info [ "fd-threshold" ] ~docv:"PHI"
        ~doc:
          "Suspicion threshold in phi units (decades of unlikelihood of \
           the observed silence): lower detects faster but false-suspects \
           more. Only with --fd.")

let heartbeat_every =
  Arg.(
    value
    & opt float 20.
    & info [ "heartbeat-every" ] ~docv:"T"
        ~doc:
          "Gossip period: each active slot beacons every $(docv) time \
           units to peers it has not otherwise talked to (protocol \
           traffic piggybacks as liveness evidence). Only with --fd.")

let fd_adaptive =
  Arg.(
    value
    & opt float 0.
    & info [ "fd-adaptive" ] ~docv:"GAIN"
        ~doc:
          "Per-peer adaptive thresholds: scale each link's suspicion \
           threshold by 1 + $(docv) * cv, where cv is that link's \
           observed inter-arrival coefficient of variation. Noisy links \
           earn headroom against false suspicions; metronomic links keep \
           the base threshold and detection time. 0 (the default) keeps \
           a single fixed threshold. Only with --fd.")

(* --sessions: a client-session tier multiplexed over the replicas *)
let sessions_count =
  Arg.(
    value
    & opt (some int) None
    & info [ "sessions" ] ~docv:"N"
        ~doc:
          "Multiplex $(docv) lightweight client sessions over the \
           replicas. Each session carries a session vector, so its reads \
           and writes can be served by any replica while keeping the \
           four session guarantees (RYW/MR/WFR/MW); on failover the \
           vector is handed off to the new home. Switches to the \
           churn-campaign driver; combine with --fd, --crash or \
           --partition to exercise migration.")

let session_placement =
  Arg.(
    value
    & opt string "sticky"
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "Session placement policy: $(b,sticky) (stay on one home, \
           fail over to the cyclically next active slot), $(b,random) \
           (uniformly random active replica per attempt) or \
           $(b,nearest) (static preference ring, fails over and back). \
           Only with --sessions.")

let session_ops =
  Arg.(
    value
    & opt int 24
    & info [ "session-ops" ] ~docv:"K"
        ~doc:"Operations per session. Only with --sessions.")

let sessions_of ~sessions ~placement ~session_ops ~seed =
  match sessions with
  | None -> Ok None
  | Some count -> (
      match Dsm_runtime.Session_tier.placement_of_string placement with
      | None ->
          Error
            (Printf.sprintf
               "unknown placement %S (expected sticky | random | nearest)"
               placement)
      | Some p -> (
          let cfg =
            {
              (Dsm_runtime.Session_tier.default_config ~count) with
              Dsm_runtime.Session_tier.placement = p;
              ops_per_session = session_ops;
              seed;
            }
          in
          match Dsm_runtime.Session_tier.validate_config cfg with
          | () -> Ok (Some cfg)
          | exception Invalid_argument msg -> Error msg))

let detector_of ~fd ~fd_threshold ~heartbeat_every ~fd_adaptive ~joins
    ~leaves ~churn =
  if not fd then Ok None
  else if joins <> [] || leaves <> [] || churn <> None then
    Error
      "--fd is emergent membership — drop --join/--leave/--churn; crashes \
       and partitions are the only scripted inputs, the detector produces \
       the view history"
  else
    match
      Dsm_runtime.Failure_detector.config ~threshold:fd_threshold
        ~heartbeat_every ~adaptive:fd_adaptive ()
    with
    | exception Invalid_argument msg -> Error msg
    | cfg -> Ok (Some cfg)

let checkpoint_every =
  Arg.(
    value
    & opt float 50.
    & info [ "checkpoint-every" ] ~docv:"T"
        ~doc:
          "Interval between durable checkpoints of received writes \
           (local writes are always committed immediately).")

let json_out =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the campaign outcome as JSON on stdout instead of the \
           human-readable report (fault-campaign runs only).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the causal trace of the run (one span per write, with \
           per-destination receipt / blocked / apply phases) to $(docv).")

let trace_format_conv =
  Arg.conv
    ( (fun s ->
        match Provenance.format_of_string s with
        | Some f -> Ok f
        | None -> Error (`Msg "trace format: jsonl | chrome")),
      fun ppf f ->
        Format.pp_print_string ppf (Provenance.format_to_string f) )

let trace_format =
  Arg.(
    value
    & opt trace_format_conv Provenance.Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace rendering: $(b,jsonl) (one JSON object per span per \
           line) or $(b,chrome) (trace-event array, loadable in \
           Perfetto; write delays appear as blocked slices).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Enable the metrics registry and write every instrument \
           (network, channel, buffers, protocol, campaign) to $(docv) \
           as JSON. Probes are pure observation: the simulated outcome \
           is byte-identical with and without this flag.")

let wire_flag =
  Arg.(
    value & flag
    & info [ "wire" ]
        ~doc:
          "Enable the wire-cost accountant and print its per-cause byte \
           summary: header / payload / causal-metadata bytes, plus the \
           delta-encoding counterfactual. Pure observation: the \
           simulated outcome is byte-identical with and without it.")

let wire_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "wire-out" ] ~docv:"FILE"
        ~doc:
          "Enable the wire-cost accountant and write its aggregates \
           (totals, per cause, per edge) to $(docv) as JSON.")

let scrape_every_arg =
  Arg.(
    value & opt float 25.
    & info [ "scrape-every" ] ~docv:"DT"
        ~doc:"Flight-recorder scrape period, in simulated time units.")

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* the run itself is untouched by observers; emit files afterwards *)
let emit_observers ~trace_out ~trace_format ~metrics_out ~metrics execution =
  (match trace_out with
  | None -> ()
  | Some path ->
      Provenance.write_trace trace_format ~path execution;
      let c = Provenance.spans execution in
      Format.printf "trace: %d spans (%d blocked records) -> %s (%s)@."
        (Dsm_obs.Span.span_count c)
        (Dsm_obs.Span.blocked_count c)
        path
        (Provenance.format_to_string trace_format));
  match metrics_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Metrics.to_json metrics);
      output_char oc '\n';
      close_out oc;
      Format.printf "metrics: %d instruments -> %s@."
        (List.length (Metrics.rows metrics))
        path

(* Theorem 4 protocols: a single unnecessary delay is a bug, not a
   statistic — fail the run *)
let claims_optimality name =
  List.mem name [ "OptP"; "OptP/scan"; "OptP-direct" ]

let spec_of ~n ~m ~ops ~write_ratio ~zipf ~seed =
  let var_dist =
    match zipf with None -> Spec.Uniform_vars | Some s -> Spec.Zipf_vars s
  in
  Spec.make ~n ~m ~ops_per_process:ops ~write_ratio ~var_dist ~seed ()

(* ---------------------------------------------------------------- *)
(* campaigns: plans and static outputs (run --crash / --partition)   *)
(* ---------------------------------------------------------------- *)

module Fault_plan = Dsm_sim.Fault_plan
module Churn_campaign = Dsm_runtime.Churn_campaign

let plan_of ?(joins = []) ?(leaves = []) ~crashes ~partitions () =
  let t = Dsm_sim.Sim_time.of_float in
  let crash_events =
    List.concat_map
      (fun (proc, t1, t2) ->
        Fault_plan.Crash { proc; at = t t1 }
        ::
        (match t2 with
        | Some t2 -> [ Fault_plan.Recover { proc; at = t t2 } ]
        | None -> []))
      crashes
  in
  let cut_events =
    List.concat_map
      (fun (groups, t1, t2) ->
        [
          Fault_plan.Cut { groups; at = t t1 };
          Fault_plan.Heal { at = t t2 };
        ])
      partitions
  in
  let join_events =
    List.map (fun (proc, t1) -> Fault_plan.Join { proc; at = t t1 }) joins
  in
  let leave_events =
    List.map (fun (proc, t1) -> Fault_plan.Leave { proc; at = t t1 }) leaves
  in
  Fault_plan.make (crash_events @ cut_events @ join_events @ leave_events)

(* A churn-free campaign prints the static crash-recovery outputs: the
   "fault campaign:" summary and the causal-dsm-campaign/v1 schema.
   Every catch-up of such a run is a recovery, and the slots outside
   the final view are the ones still down. *)
let down_at_end (o : Churn_campaign.outcome) =
  List.filter
    (fun p -> not (List.mem p o.active_at_end))
    (List.init (Dsm_runtime.Execution.n_processes o.execution) Fun.id)

let opt_1f = function Some v -> Printf.sprintf "%.1f" v | None -> "null"

let campaign_json ppf (o : Churn_campaign.outcome) =
  let open Format in
  fprintf ppf "{@,  \"schema\": \"causal-dsm-campaign/v1\",@,";
  fprintf ppf "  \"protocol\": \"%s\",@," o.protocol_name;
  fprintf ppf "  \"clean\": %b,@,  \"live_equal\": %b,@," o.clean
    o.live_equal;
  fprintf ppf "  \"down_at_end\": [%s],@,"
    (String.concat ", " (List.map string_of_int (down_at_end o)));
  fprintf ppf "  \"recoveries\": [";
  List.iteri
    (fun i (c : Churn_campaign.catch_up) ->
      if i > 0 then fprintf ppf ",";
      fprintf ppf
        "@,    { \"proc\": %d, \"crashed_at\": %s, \"recovered_at\": \
         %.1f, \"caught_up_at\": %s,@,      \"latency\": %s, \
         \"rolled_back_events\": %d, \"replayed\": %d }"
        c.cproc (opt_1f c.crashed_at) c.started_at (opt_1f c.converged_at)
        (opt_1f (Churn_campaign.catch_up_latency c))
        c.rolled_back c.replayed)
    o.catch_ups;
  if o.catch_ups = [] then fprintf ppf "],@," else fprintf ppf "@,  ],@,";
  fprintf ppf
    "  \"durability\": { \"commits\": %d, \"snapshot_bytes\": %d, \
     \"rolled_back_events\": %d },@,"
    o.commits o.snapshot_bytes o.rolled_back_events;
  fprintf ppf
    "  \"catch_up\": { \"sync_requests\": %d, \"sync_replies\": %d, \
     \"replayed_writes\": %d, \"stale_deliveries_dropped\": %d },@,"
    o.sync_requests o.sync_replies o.replayed_writes
    o.stale_deliveries_dropped;
  fprintf ppf
    "  \"wire\": { \"payloads_sent\": %d, \"frames_sent\": %d, \
     \"retransmissions\": %d, \"aborted_payloads\": %d,@,\
    \            \"frames_partition_dropped\": %d, \
     \"frames_crash_dropped\": %d, \"duplicates_discarded\": %d },@,"
    o.payloads_sent o.frames_sent o.retransmissions o.aborted_payloads
    o.net_partition_dropped o.net_crash_dropped o.duplicates_discarded;
  fprintf ppf
    "  \"audit\": { \"violations\": %d, \"necessary_delays\": %d, \
     \"unnecessary_delays\": %d, \"lost\": %d },@,"
    (List.length o.report.Checker.violations)
    o.report.Checker.necessary_delays o.report.Checker.unnecessary_delays
    (List.length o.report.Checker.lost);
  fprintf ppf "  \"engine_steps\": %d,@,  \"sim_end_time\": %.1f@,}"
    o.engine_steps o.end_time

let pp_recovery ppf (c : Churn_campaign.catch_up) =
  Format.fprintf ppf
    "p%d crash@%s recover@%.1f rolled_back=%d replayed=%d%s" (c.cproc + 1)
    (opt_1f c.crashed_at) c.started_at c.rolled_back c.replayed
    (match Churn_campaign.catch_up_latency c with
    | Some l -> Printf.sprintf " caught_up=+%.1f" l
    | None -> " never caught up")

let pp_fault_summary ppf (o : Churn_campaign.outcome) =
  Format.fprintf ppf
    "@[<v>%s fault campaign: %d recoveries, %d commits (%d bytes), %d \
     rolled-back events, sync %d req / %d replies, %d replayed writes, \
     %d aborted payloads, %d partition-dropped, %d crash-dropped \
     frames; live_equal=%b clean=%b t_end=%.1f@,%a@]"
    o.protocol_name
    (List.length o.catch_ups)
    o.commits o.snapshot_bytes o.rolled_back_events o.sync_requests
    o.sync_replies o.replayed_writes o.aborted_payloads
    o.net_partition_dropped o.net_crash_dropped o.live_equal o.clean
    o.end_time
    (Format.pp_print_list pp_recovery)
    o.catch_ups

(* ---------------------------------------------------------------- *)
(* churn campaigns (run --join / --leave / --churn / --initial)      *)
(* ---------------------------------------------------------------- *)

let churn_json ppf (o : Churn_campaign.outcome) =
  let open Format in
  fprintf ppf "{@,  \"schema\": \"causal-dsm-churn/v1\",@,";
  fprintf ppf "  \"protocol\": \"%s\",@," o.protocol_name;
  fprintf ppf "  \"clean\": %b,@,  \"live_equal\": %b,@," o.clean
    o.live_equal;
  fprintf ppf
    "  \"membership\": { \"final_epoch\": %d, \"joins\": %d, \
     \"rejoins\": %d, \"leaves\": %d, \"active_at_end\": [%s] },@,"
    o.final_epoch o.joins o.rejoins o.leaves
    (String.concat ", " (List.map string_of_int o.active_at_end));
  (match o.detector with
  | None -> ()
  | Some cfg ->
      fprintf ppf
        "  \"detector\": { \"threshold\": %g, \"heartbeat_every\": %g, \
         \"window\": %d, \"adaptive\": %g,@,\
        \                \"heartbeats_sent\": %d, \"suspicions\": %d, \
         \"false_suspicions\": %d, \"refutations\": %d },@,"
        cfg.Dsm_runtime.Failure_detector.threshold
        cfg.Dsm_runtime.Failure_detector.heartbeat_every
        cfg.Dsm_runtime.Failure_detector.window
        cfg.Dsm_runtime.Failure_detector.adaptive o.heartbeats_sent
        (List.length o.suspicions)
        o.false_suspicions o.refutations;
      fprintf ppf "  \"view_changes\": [";
      List.iteri
        (fun i (epoch, at, why) ->
          if i > 0 then fprintf ppf ",";
          fprintf ppf "@,    { \"epoch\": %d, \"at\": %.1f, \"why\": \"%s\" }"
            epoch at why)
        o.view_reasons;
      if o.view_reasons = [] then fprintf ppf "],@,"
      else fprintf ppf "@,  ],@,");
  fprintf ppf "  \"catch_ups\": [";
  List.iteri
    (fun i (c : Churn_campaign.catch_up) ->
      if i > 0 then fprintf ppf ",";
      fprintf ppf
        "@,    { \"proc\": %d, \"kind\": \"%s\", \"started_at\": %.1f, \
         \"converged_at\": %s, \"latency\": %s,@,      \
         \"transfer_writes\": %d, \"transfer_bytes\": %d, \"replayed\": \
         %d }"
        c.cproc
        (match c.ckind with
        | Churn_campaign.Fresh_join -> "join"
        | Churn_campaign.Rejoin -> "rejoin"
        | Churn_campaign.Recover -> "recover")
        c.started_at
        (match c.converged_at with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "null")
        (match Churn_campaign.catch_up_latency c with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "null")
        c.transfer_writes c.transfer_bytes c.replayed)
    o.catch_ups;
  if o.catch_ups = [] then fprintf ppf "],@," else fprintf ppf "@,  ],@,";
  fprintf ppf
    "  \"quarantine\": { \"chan_stale_quarantined\": %d, \
     \"net_stale_dropped\": %d, \"net_nonmember_dropped\": %d, \
     \"corrupt_dropped\": %d, \"quarantine_leaks\": %d },@,"
    o.chan_stale_quarantined o.net_stale_dropped o.net_nonmember_dropped
    o.corrupt_dropped o.quarantine_leaks;
  fprintf ppf
    "  \"durability\": { \"commits\": %d, \"snapshot_bytes\": %d, \
     \"transfer_bytes\": %d, \"rolled_back_events\": %d },@,"
    o.commits o.snapshot_bytes o.transfer_bytes o.rolled_back_events;
  fprintf ppf
    "  \"catch_up\": { \"sync_requests\": %d, \"sync_replies\": %d, \
     \"replayed_writes\": %d, \"stale_deliveries_dropped\": %d },@,"
    o.sync_requests o.sync_replies o.replayed_writes
    o.stale_deliveries_dropped;
  fprintf ppf
    "  \"wire\": { \"payloads_sent\": %d, \"frames_sent\": %d, \
     \"retransmissions\": %d, \"aborted_payloads\": %d, \
     \"duplicates_discarded\": %d },@,"
    o.payloads_sent o.frames_sent o.retransmissions o.aborted_payloads
    o.duplicates_discarded;
  fprintf ppf
    "  \"audit\": { \"violations\": %d, \"necessary_delays\": %d, \
     \"unnecessary_delays\": %d, \"lost\": %d },@,"
    (List.length o.report.Checker.violations)
    o.report.Checker.necessary_delays o.report.Checker.unnecessary_delays
    (List.length o.report.Checker.lost);
  (match o.sessions with
  | Some sr ->
      let module ST = Dsm_runtime.Session_tier in
      fprintf ppf
        "  \"sessions\": { \"count\": %d, \"placement\": \"%s\", \
         \"ops\": %d, \"writes\": %d, \"reads\": %d, \"migrations\": %d, \
         \"retries\": %d, \"blocked_rejections\": %d, \
         \"unavailable_rejections\": %d, \"dedup_hits\": %d, \
         \"replies_lost\": %d, \"degraded\": %d, \"duplicate_writes\": \
         %d, \"violations\": %d, \"write_p50\": %.3f, \"write_p99\": \
         %.3f, \"read_p50\": %.3f, \"read_p99\": %.3f },@,"
        sr.ST.cfg.ST.count
        (ST.placement_to_string sr.ST.cfg.ST.placement)
        sr.ST.ops_done sr.ST.writes_done sr.ST.reads_done
        (List.length sr.ST.migrations)
        sr.ST.retries sr.ST.blocked_rejections sr.ST.unavailable_rejections
        sr.ST.dedup_hits sr.ST.replies_lost
        (List.length sr.ST.degraded)
        sr.ST.duplicate_writes
        (List.length sr.ST.violations)
        (ST.percentile sr.ST.write_latencies 0.5)
        (ST.percentile sr.ST.write_latencies 0.99)
        (ST.percentile sr.ST.read_latencies 0.5)
        (ST.percentile sr.ST.read_latencies 0.99)
  | None -> ());
  fprintf ppf "  \"engine_steps\": %d,@,  \"sim_end_time\": %.1f@,}"
    o.engine_steps o.end_time

(* every campaign runs on Churn_campaign; [static] (no membership,
   detector or session flags) selects the static outputs above *)
let campaign (module P : Dsm_core.Protocol.S) ~static ~spec ~latency ~faults
    ~plan ~initial ?detector ?sessions ~checkpoint_every ~seed ~json
    ~metrics ~wire ~emit () =
  if not (List.mem P.name [ "OptP"; "ANBKH"; "OptP-direct" ]) then
    `Error
      ( false,
        if static then
          Printf.sprintf
            "--crash/--partition need a complete-broadcast protocol (optp, \
             anbkh or optp-direct); %s cannot serve anti-entropy catch-up"
            P.name
        else
          Printf.sprintf
            "--join/--leave/--churn/--fd need a complete-broadcast protocol \
             (optp, anbkh or optp-direct); %s cannot serve state transfer"
            P.name )
  else
    match
      Churn_campaign.run
        (module P)
        ~spec ~latency ~faults ~plan ~initial ?detector ?sessions
        ~checkpoint_every ~seed ~metrics ~wire ()
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | o ->
        if json then
          Format.printf "@[<v>%a@]@."
            (if static then campaign_json else churn_json)
            o
        else begin
          Format.printf "%a@.@."
            (if static then pp_fault_summary else Churn_campaign.pp_outcome)
            o;
          (match o.Churn_campaign.sessions with
          | Some sr ->
              Format.printf "%a@.@." Dsm_runtime.Session_tier.pp_report sr
          | None -> ());
          Format.printf "audit: %a@." Checker.pp_report o.report
        end;
        emit o.Churn_campaign.execution;
        let session_dirty =
          match o.Churn_campaign.sessions with
          | Some sr -> not (Dsm_runtime.Session_tier.clean sr)
          | None -> false
        in
        if not (o.clean && o.live_equal) then
          `Error (false, "campaign is not clean")
        else if session_dirty then
          `Error
            ( false,
              "session tier is not clean (guarantee violation or \
               duplicate write)" )
        else if
          claims_optimality P.name
          && o.report.Checker.unnecessary_delays > 0
        then
          `Error
            ( false,
              Printf.sprintf
                "%d unnecessary delays — %s claims Theorem 4 optimality"
                o.report.Checker.unnecessary_delays P.name )
        else `Ok ()

(* Build the churn plan + initial membership from the CLI flags.
   [Error]s surface as parse-level failures. *)
let churn_setup ~n ~seed ~crashes ~partitions ~joins ~leaves ~initial ~churn
    =
  match churn with
  | Some (j, l, r, h) ->
      if crashes <> [] || partitions <> [] || joins <> [] || leaves <> []
      then
        Error
          "--churn does not combine with --crash/--partition/--join/--leave"
      else begin
        let ini = match initial with Some k -> k | None -> n - j in
        match
          Fault_plan.random_churn
            (Dsm_sim.Rng.create seed)
            ~initial:ini ~n ~horizon:h ~joins:j ~leaves:l ~rejoins:r ()
        with
        | exception Invalid_argument msg -> Error msg
        | plan -> Ok (plan, ini)
      end
  | None ->
      let ini = Option.value initial ~default:n in
      if initial = None && n < 2 then
        Error "campaigns (--crash/--partition/churn flags) need -n >= 2"
      else if ini < 2 || ini > n then
        Error "--initial must be in 2..n"
      else Ok (plan_of ~joins ~leaves ~crashes ~partitions (), ini)

(* ---------------------------------------------------------------- *)
(* run                                                               *)
(* ---------------------------------------------------------------- *)

let run_cmd =
  let action (module P : Dsm_core.Protocol.S) n m ops write_ratio zipf
      latency seed fifo drop duplicate corrupt repl_degree crashes
      partitions joins leaves initial churn fd fd_threshold heartbeat_every
      fd_adaptive sessions placement session_ops checkpoint_every json
      trace_out trace_format metrics_out wire_on wire_out =
    let spec = spec_of ~n ~m ~ops ~write_ratio ~zipf ~seed in
    let metrics =
      match metrics_out with
      | None -> Metrics.null ()
      | Some _ -> Metrics.create ()
    in
    let wire =
      if wire_on || wire_out <> None then
        Dsm_obs.Wire.create ~proto:P.name ~n ()
      else Dsm_obs.Wire.null ()
    in
    (* accounting is written after the audit so it never perturbs the
       run, and never touches stdout in --json mode *)
    let emit_wire () =
      if Dsm_obs.Wire.enabled wire then begin
        (match wire_out with
        | Some path ->
            write_file path
              (Dsm_stats.Json.to_string (Dsm_obs.Wire.to_json wire) ^ "\n");
            if not json then
              Format.printf "wire: %d frames, %d bytes -> %s@."
                (Dsm_obs.Wire.frames wire)
                (Dsm_obs.Wire.total_bytes wire)
                path
        | None -> ());
        if wire_on && not json then
          Format.printf "@.%a@." Dsm_obs.Wire.pp_summary wire
      end
    in
    let emit execution =
      emit_observers ~trace_out ~trace_format ~metrics_out ~metrics
        execution
    in
    if not json then
      Format.printf "workload: %a@.network:  %a@.@." Spec.pp spec Latency.pp
        latency;
    let finish ~execution report =
      Format.printf "audit: %a@." Checker.pp_report report;
      emit execution;
      if not (Checker.is_clean report) then
        `Error (false, "run is not clean")
      else if
        claims_optimality P.name && report.Checker.unnecessary_delays > 0
      then
        `Error
          ( false,
            Printf.sprintf
              "%d unnecessary delays — %s claims Theorem 4 optimality"
              report.Checker.unnecessary_delays P.name )
      else `Ok ()
    in
    let churny =
      joins <> [] || leaves <> [] || churn <> None || initial <> None || fd
      || sessions <> None
    in
    let res =
    if churny || crashes <> [] || partitions <> [] then begin
      let flags = if churny then "churn flags" else "--crash/--partition" in
      if repl_degree <> None then
        `Error (false, flags ^ " do not combine with --replication-degree")
      else if fifo then `Error (false, flags ^ " do not combine with --fifo")
      else
        match
          detector_of ~fd ~fd_threshold ~heartbeat_every ~fd_adaptive ~joins
            ~leaves ~churn
        with
        | Error msg -> `Error (false, msg)
        | Ok detector -> (
            match sessions_of ~sessions ~placement ~session_ops ~seed with
            | Error msg -> `Error (false, msg)
            | Ok session_cfg -> (
            match
              churn_setup ~n ~seed ~crashes ~partitions ~joins ~leaves
                ~initial ~churn
            with
            | Error msg -> `Error (false, msg)
            | Ok (plan, ini) ->
                campaign
                  (module P)
                  ~static:(not churny) ~spec ~latency
                  ~faults:{ Dsm_sim.Network.drop; duplicate; corrupt }
                  ~plan ~initial:ini ?detector ?sessions:session_cfg
                  ~checkpoint_every ~seed ~json ~metrics ~wire ~emit ()))
    end
    else if json then
      `Error (false, "--json requires --crash, --partition or churn flags")
    else
    match repl_degree with
    | Some degree ->
        if drop > 0. || duplicate > 0. || corrupt > 0. then
          `Error
            (false, "--replication-degree does not combine with --drop")
        else if degree < 1 || degree > n then
          `Error (false, "--replication-degree must be in 1..n")
        else begin
          let replication = Dsm_core.Replication.ring ~n ~m ~degree in
          Format.printf
            "protocol: OptP over partial replication (degree %d)@.%a@.@."
            degree Dsm_core.Replication.pp replication;
          let outcome =
            Dsm_runtime.Partial_run.run ~replication ~spec ~latency ~seed
              ~metrics ~wire ()
          in
          Format.printf "messages: %d, t_end=%.1f@.@."
            outcome.Dsm_runtime.Partial_run.messages_sent
            outcome.Dsm_runtime.Partial_run.end_time;
          finish ~execution:outcome.Dsm_runtime.Partial_run.execution
            (Dsm_runtime.Partial_run.check outcome)
        end
    | None ->
        if drop > 0. || duplicate > 0. || corrupt > 0. then begin
          Format.printf
            "protocol: %s over faulty links (drop=%g, dup=%g, corrupt=%g) \
             healed by reliable channels@.@."
            P.name drop duplicate corrupt;
          let outcome =
            Dsm_runtime.Reliable_run.run
              (module P)
              ~spec ~latency
              ~faults:{ Dsm_sim.Network.drop; duplicate; corrupt }
              ~seed ~metrics ~wire ()
          in
          Format.printf "%a@.@." Dsm_runtime.Reliable_run.pp_outcome
            outcome;
          finish ~execution:outcome.Dsm_runtime.Reliable_run.execution
            (Checker.check outcome.Dsm_runtime.Reliable_run.execution)
        end
        else begin
          Format.printf "protocol: %s@.@." P.name;
          let outcome =
            Sim_run.run
              (module P)
              ~spec ~latency ~fifo ~seed ~metrics ~wire ()
          in
          Format.printf "%a@.@." Sim_run.pp_outcome outcome;
          finish ~execution:outcome.execution
            (Checker.check outcome.execution)
        end
    in
    emit_wire ();
    res
  in
  let term =
    Term.(
      ret
        (const action $ protocol $ n_procs $ m_vars $ ops $ write_ratio
       $ zipf $ latency $ seed $ fifo $ drop $ duplicate $ corrupt
       $ repl_degree $ crashes $ partitions $ joins $ leaves
       $ initial_members $ churn $ fd_flag $ fd_threshold $ heartbeat_every
       $ fd_adaptive $ sessions_count $ session_placement $ session_ops
       $ checkpoint_every $ json_out $ trace_out
       $ trace_format $ metrics_out $ wire_flag $ wire_out))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate a random workload under one protocol, audit the run \
          and print delay statistics. With --drop/--duplicate the links \
          are faulty and the reliable-channel substrate heals them; with \
          --replication-degree the partial-replication protocol runs on \
          a ring layout; with --crash/--partition the fault-campaign \
          driver crashes and restarts processes from durable snapshots, \
          partitions the network and audits recovery (--json for \
          machine-readable output); with --join/--leave/--initial/--churn \
          the membership view itself changes mid-run (state-transfer \
          joins, flushed leaves, fresh-incarnation rejoins) and the audit \
          spans every epoch; with --fd membership is emergent — no \
          scripted view changes, a phi-accrual failure detector over \
          gossip heartbeats suspects silent slots and heartbeats refute \
          false suspicions; with --sessions a client-session tier rides \
          on top — sessions carry session vectors, migrate on failover \
          with vector handoff, retry with capped backoff and dedup \
          retried writes, and the audit re-checks the four session \
          guarantees per client. --trace-out/--metrics-out export the causal \
          trace and the metrics registry without perturbing the run; \
          --wire/--wire-out add per-cause wire-cost accounting (header, \
          payload, causal metadata, delta counterfactual). \
          Exits non-zero on any checker violation, and on any \
          unnecessary delay for protocols claiming Theorem 4 optimality.")
    term

(* ---------------------------------------------------------------- *)
(* explain                                                           *)
(* ---------------------------------------------------------------- *)

let explain_cmd =
  let action (module P : Dsm_core.Protocol.S) n m ops write_ratio zipf
      latency seed fifo crashes partitions joins leaves initial churn fd
      fd_threshold heartbeat_every fd_adaptive sessions placement
      session_ops checkpoint_every =
    let spec = spec_of ~n ~m ~ops ~write_ratio ~zipf ~seed in
    let churny =
      joins <> [] || leaves <> [] || churn <> None || initial <> None || fd
      || sessions <> None
    in
    let needs_campaign = churny || crashes <> [] || partitions <> [] in
    let outcome =
      if needs_campaign then begin
        if not (List.mem P.name [ "OptP"; "ANBKH"; "OptP-direct" ]) then
          Error
            (Printf.sprintf
               "--crash/--partition need a complete-broadcast protocol \
                (optp, anbkh or optp-direct); %s cannot serve \
                anti-entropy catch-up"
               P.name)
        else if fifo then
          Error "--crash/--partition do not combine with --fifo"
        else
          match
            detector_of ~fd ~fd_threshold ~heartbeat_every ~fd_adaptive
              ~joins ~leaves ~churn
          with
          | Error msg -> Error msg
          | Ok detector -> (
              match sessions_of ~sessions ~placement ~session_ops ~seed with
              | Error msg -> Error msg
              | Ok session_cfg -> (
              match
                churn_setup ~n ~seed ~crashes ~partitions ~joins ~leaves
                  ~initial ~churn
              with
              | Error msg -> Error msg
              | Ok (plan, ini) -> (
                  match
                    Churn_campaign.run
                      (module P)
                      ~spec ~latency ~plan ~initial:ini ?detector
                      ?sessions:session_cfg ~checkpoint_every ~seed ()
                  with
                  | exception Invalid_argument msg -> Error msg
                  | o ->
                      Ok
                        ( o.Churn_campaign.execution,
                          o.Churn_campaign.report,
                          o.Churn_campaign.view_reasons,
                          o.Churn_campaign.sessions ))))
      end
      else
        let o = Sim_run.run (module P) ~spec ~latency ~fifo ~seed () in
        Ok (o.Sim_run.execution, Checker.check o.Sim_run.execution, [], None)
    in
    match outcome with
    | Error msg -> `Error (false, msg)
    | Ok (execution, report, view_reasons, session_report) ->
        Format.printf "workload: %a@.protocol: %s@.@." Spec.pp spec P.name;
        (* the view's own provenance: why each epoch happened — scripted
           events, or in --fd mode the detector's suspicions and
           refutations *)
        if view_reasons <> [] then begin
          Format.printf "view changes:@.";
          List.iter
            (fun r ->
              Format.printf "  %a@." Churn_campaign.pp_view_reason r)
            view_reasons;
          Format.printf "@."
        end;
        let e = Provenance.explain execution report in
        Format.printf "%a@." Provenance.pp_explanation e;
        (* per-session rows: migration edges, every degraded/blocked
           claim joined against the checker's ground truth, and each
           session violation's nearest preceding migration *)
        (match session_report with
        | Some sr ->
            Format.printf "@.%a@."
              (Dsm_runtime.Session_tier.pp_explain ~execution)
              sr
        | None -> ());
        let session_dirty =
          match session_report with
          | Some sr -> not (Dsm_runtime.Session_tier.clean sr)
          | None -> false
        in
        if report.Checker.violations <> [] then
          `Error (false, "run is not clean")
        else if session_dirty then
          `Error (false, "session tier is not clean")
        else if
          claims_optimality P.name && report.Checker.unnecessary_delays > 0
        then
          `Error
            ( false,
              Printf.sprintf
                "%d unnecessary delays — %s claims Theorem 4 optimality"
                report.Checker.unnecessary_delays P.name )
        else `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ protocol $ n_procs $ m_vars $ ops $ write_ratio
       $ zipf $ latency $ seed $ fifo $ crashes $ partitions $ joins
       $ leaves $ initial_members $ churn $ fd_flag $ fd_threshold
       $ heartbeat_every $ fd_adaptive $ sessions_count $ session_placement
       $ session_ops $ checkpoint_every))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a workload, audit it, and print the provenance of every \
          write delay: when the write was buffered, which predecessor \
          dot the protocol declared it was waiting on, and whether the \
          checker's ground-truth causal order confirms that claim \
          (necessary delay) or refutes it (false causality). Supports \
          the fault-campaign path via --crash/--partition and the \
          churn-campaign path via --join/--leave/--initial/--churn or \
          --fd (emergent membership: the report starts with the \
          detector's view-change provenance). With --sessions the \
          report ends with per-session rows: migration edges, every \
          degraded or blocked claim joined against the checker's \
          ground truth, and each session-guarantee violation named \
          with the migration edge nearest before it.")
    term

(* ---------------------------------------------------------------- *)
(* nemesis                                                           *)
(* ---------------------------------------------------------------- *)

module Nemesis = Dsm_runtime.Nemesis

let nemesis_cmd =
  let swarm_count =
    Arg.(
      value
      & opt (some int) None
      & info [ "swarm" ] ~docv:"N"
          ~doc:
            "Swarm mode: run $(docv) randomized combined-fault schedules \
             derived from --seed, classify each, and summarize the \
             verdict tally. Exits non-zero if any schedule lands outside \
             the accepted verdicts (clean, refuted-suspicion).")
  in
  let scenario_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Run one named scenario from the corpus (see \
             --list-scenarios) and check its verdict against the \
             scenario's expected set.")
  in
  let list_scenarios =
    Arg.(
      value & flag
      & info [ "list-scenarios" ]
          ~doc:"List the scenario corpus (name, expected verdicts, what \
                it exercises) and exit.")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "On failure, greedily delta-debug the first failing schedule \
             to a minimal fault schedule still producing the same \
             verdict; combine with --out to save the reproducer.")
  in
  let out_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the failing (shrunk, with --shrink) schedule as \
             replayable $(b,causal-dsm-nemesis-plan/v1) JSON to $(docv). \
             With --replay, re-serializes the loaded schedule (canonical \
             round-trip).")
  in
  let replay_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a schedule from $(docv) (JSON emitted by --out) and \
             print its verdict. Deterministic: two replays of one file \
             produce byte-identical output.")
  in
  let nemesis_protocol =
    Arg.(
      value
      & opt string "optp"
      & info [ "protocol"; "p" ] ~docv:"P"
          ~doc:
            "Protocol under attack in swarm mode: $(b,optp), $(b,anbkh), \
             $(b,optp-direct), or $(b,canary) (a deliberately buggy \
             per-sender-FIFO protocol — the swarm must catch it).")
  in
  let shrink_and_out ~shrink ~out (r : Nemesis.result) =
    let sched =
      if shrink then begin
        let sh = Nemesis.shrink r.sched ~target:r.verdict in
        Format.printf "%a@." Nemesis.pp_shrink_report sh;
        sh.minimal
      end
      else r.sched
    in
    match out with
    | None -> ()
    | Some path ->
        write_file path (Nemesis.to_json_string sched);
        Format.printf "reproducer -> %s@." path
  in
  let action count scenario list_s shrink out replay proto seed =
    if Nemesis.protocol_by_name proto = None then
      `Error
        ( false,
          Printf.sprintf "unknown protocol %S (expected %s)" proto
            (String.concat " | " Nemesis.protocol_names) )
    else if list_s then begin
      List.iter
        (fun (sc : Nemesis.scenario) ->
          Format.printf "%-22s [%s]@.    %s@." sc.sched_.Nemesis.name
            (String.concat "; "
               (List.map Nemesis.verdict_name sc.expected))
            sc.about)
        Nemesis.scenarios;
      `Ok ()
    end
    else
      match replay with
      | Some path -> (
          match read_file path with
          | Error msg -> `Error (false, msg)
          | Ok text -> (
              match Nemesis.of_json_string text with
              | Error msg -> `Error (false, msg)
              | Ok sched ->
                  let r = Nemesis.run sched in
                  Format.printf "%a@." Nemesis.pp_result r;
                  Option.iter
                    (fun p ->
                      write_file p (Nemesis.to_json_string sched);
                      Format.printf "reproducer -> %s@." p)
                    out;
                  `Ok ()))
      | None -> (
          match scenario with
          | Some name -> (
              match Nemesis.find_scenario name with
              | None ->
                  `Error
                    ( false,
                      Printf.sprintf
                        "unknown scenario %S (try --list-scenarios)" name )
              | Some sc ->
                  let r = Nemesis.run sc.sched_ in
                  let ok = List.mem r.verdict sc.expected in
                  Format.printf "%a@.expected: [%s] — %s@." Nemesis.pp_result
                    r
                    (String.concat "; "
                       (List.map Nemesis.verdict_name sc.expected))
                    (if ok then "as expected" else "UNEXPECTED");
                  if ok then `Ok ()
                  else begin
                    shrink_and_out ~shrink ~out r;
                    `Error (false, "scenario verdict unexpected")
                  end)
          | None -> (
              match count with
              | Some n ->
                  let rep = Nemesis.swarm ~protocol:proto ~seed ~count:n () in
                  Format.printf "%a@." Nemesis.pp_swarm_report rep;
                  if rep.failures = [] then `Ok ()
                  else begin
                    (match rep.failures with
                    | r :: _ -> shrink_and_out ~shrink ~out r
                    | [] -> ());
                    `Error
                      ( false,
                        Printf.sprintf "%d/%d schedules not accepted"
                          (rep.total - rep.accepted_count)
                          rep.total )
                  end
              | None ->
                  (* full scenario table *)
                  let bad = ref 0 in
                  List.iter
                    (fun (sc : Nemesis.scenario) ->
                      let r = Nemesis.run sc.sched_ in
                      let ok = List.mem r.verdict sc.expected in
                      if not ok then incr bad;
                      Format.printf "%-22s %-18s expected [%s] %s@."
                        sc.sched_.Nemesis.name
                        (Nemesis.verdict_name r.verdict)
                        (String.concat "; "
                           (List.map Nemesis.verdict_name sc.expected))
                        (if ok then "ok" else "UNEXPECTED"))
                    Nemesis.scenarios;
                  if !bad = 0 then `Ok ()
                  else
                    `Error
                      ( false,
                        Printf.sprintf "%d scenario(s) off their expected \
                                        verdicts"
                          !bad )))
  in
  let term =
    Term.(
      ret
        (const action $ swarm_count $ scenario_name $ list_scenarios
       $ shrink_flag $ out_file $ replay_file $ nemesis_protocol $ seed))
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Unified adversarial fault campaigns: compose crashes, \
          partitions, churn, asymmetric link cuts, flapping, delay \
          inflation, corruption and an accrual failure detector in one \
          schedule, judge the run with one verdict taxonomy (clean, \
          refuted-suspicion, unnecessary-delay, ghost-leak, diverged, \
          violation, stuck), and on failure shrink the schedule to a \
          minimal replayable JSON reproducer. Default: run the scenario \
          corpus; --swarm N for randomized schedules; --replay FILE to \
          reproduce a saved case.")
    term

(* ---------------------------------------------------------------- *)
(* plan                                                              *)
(* ---------------------------------------------------------------- *)

(* a plan that composes fault families is the nemesis driver's: link
   faults always (no other driver arms them), and membership changes
   mixed with static faults (crashes/partitions) *)
let combined_plan plan =
  Fault_plan.has_link_faults plan
  || Fault_plan.has_churn plan
     && List.exists
          (function
            | Fault_plan.Crash _ | Fault_plan.Recover _ | Fault_plan.Cut _
            | Fault_plan.Heal _ ->
                true
            | _ -> false)
          plan

let plan_cmd =
  let driver =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", `Auto);
               ("fault", `Fault);
               ("churn", `Churn);
               ("nemesis", `Nemesis);
             ])
          `Auto
      & info [ "driver" ] ~docv:"D"
          ~doc:
            "Validate against this driver's acceptance rules: $(b,fault) \
             (static membership — refuses join/leave events), $(b,churn) \
             (dynamic membership over the slot universe), $(b,nemesis) \
             (combined fault schedules: every family at once), or \
             $(b,auto) (nemesis when the plan combines fault families — \
             link faults, or membership events mixed with \
             crashes/partitions — churn when it has membership events \
             alone, fault otherwise).")
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Validate a replayable nemesis schedule \
             ($(b,causal-dsm-nemesis-plan/v1) JSON, as emitted by \
             $(b,dsm-sim nemesis --out)) instead of building a plan from \
             flags; prints its expanded event schedule.")
  in
  let action n seed crashes partitions joins leaves initial churn driver
      plan_file =
    match plan_file with
    | Some path -> (
        match read_file path with
        | Error msg -> `Error (false, msg)
        | Ok text -> (
            match Nemesis.of_json_string text with
            | Error msg -> `Error (false, msg)
            | Ok sched ->
                Format.printf
                  "universe: %d slots, %d initial members@.driver: \
                   nemesis@.protocol: %s, seed %d@.events: %d@.%a@."
                  sched.Nemesis.universe sched.Nemesis.initial
                  sched.Nemesis.protocol sched.Nemesis.seed
                  (List.length sched.Nemesis.plan)
                  Fault_plan.pp sched.Nemesis.plan;
                `Ok ()))
    | None -> (
        match
          churn_setup ~n ~seed ~crashes ~partitions ~joins ~leaves ~initial
            ~churn
        with
        | Error msg -> `Error (false, msg)
        | Ok (plan, ini) -> (
            let validate_universe label =
              match
                Fault_plan.validate ~n
                  ~initial:(List.init ini (fun i -> i))
                  plan
              with
              | exception Invalid_argument msg -> Error msg
              | () -> Ok label
            in
            let validate_static () =
              match Dsm_runtime.Fault_campaign.validate_plan ~n plan with
              | exception Invalid_argument msg -> Error msg
              | () -> Ok "fault-campaign"
            in
            let accept =
              match driver with
              | `Fault -> validate_static ()
              | `Nemesis -> validate_universe "nemesis"
              | `Auto when combined_plan plan -> validate_universe "nemesis"
              | `Churn | `Auto when Fault_plan.has_churn plan || driver = `Churn
                ->
                  validate_universe "churn-campaign"
              | _ -> validate_static ()
            in
            match accept with
            | Error msg -> `Error (false, msg)
            | Ok accepted_by ->
                Format.printf
                  "universe: %d slots, %d initial members@.driver: \
                   %s@.events: %d@.%a@."
                  n ini accepted_by (List.length plan) Fault_plan.pp plan;
                `Ok ()))
  in
  let term =
    Term.(
      ret
        (const action $ n_procs $ seed $ crashes $ partitions $ joins
       $ leaves $ initial_members $ churn $ driver $ plan_file))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Expand and validate a fault/churn plan without running it: \
          print the time-sorted event schedule built from \
          --crash/--partition/--join/--leave/--churn (or loaded from a \
          nemesis reproducer with --file) and check it against the \
          chosen campaign driver's acceptance rules. Exits non-zero \
          (with the driver's own message) when the plan is rejected — \
          e.g. a churny plan offered to the static fault-campaign \
          driver.")
    term

(* ---------------------------------------------------------------- *)
(* tables                                                            *)
(* ---------------------------------------------------------------- *)

let tables_cmd =
  let section =
    Arg.(
      value
      & opt (some string) None
      & info [ "section" ] ~docv:"ID"
          ~doc:"Only this section (T1, T2, F1, F2, F3, F6 or F7).")
  in
  let action section =
    let all =
      [
        ("T1", fun () -> print_string (Dsm_stats.Table_fmt.render (Experiment.table1 ())));
        ("T2", fun () -> print_string (Dsm_stats.Table_fmt.render (Experiment.table2 ())));
        ("F1", fun () -> print_string (Experiment.figure1 ()));
        ("F2", fun () -> print_string (Experiment.figure2 ()));
        ("F3", fun () -> print_string (Experiment.figure3 ()));
        ("F6", fun () -> print_string (Experiment.figure6 ()));
        ("F7", fun () -> print_string (Experiment.figure7 ()));
      ]
    in
    match section with
    | None ->
        List.iter
          (fun (id, f) ->
            Printf.printf "---- %s ----\n" id;
            f ();
            print_newline ())
          all;
        `Ok ()
    | Some id -> (
        match List.assoc_opt (String.uppercase_ascii id) all with
        | Some f ->
            f ();
            `Ok ()
        | None -> `Error (false, "unknown section " ^ id))
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's tables and figure runs.")
    Term.(ret (const action $ section))

(* ---------------------------------------------------------------- *)
(* sweep                                                             *)
(* ---------------------------------------------------------------- *)

let sweep_cmd =
  let experiment =
    Arg.(
      required
      & opt (some string) None
      & info [ "e"; "experiment" ] ~docv:"ID"
          ~doc:"Experiment id: q1 .. q12.")
  in
  let action experiment =
    let table =
      match String.lowercase_ascii experiment with
      | "q1" -> Some (Experiment.q1_sweep_processes ())
      | "q2" -> Some (Experiment.q2_sweep_latency_variance ())
      | "q3" -> Some (Experiment.q3_sweep_write_ratio ())
      | "q4" -> Some (Experiment.q4_buffer_occupancy ())
      | "q5" -> Some (Experiment.q5_apply_latency ())
      | "q6" -> Some (Experiment.q6_ws_skips ())
      | "q7" -> Some (Experiment.q7_fifo_ablation ())
      | "q8" -> Some (Experiment.q8_lossy_links ())
      | "q9" -> Some (Experiment.q9_divergence ())
      | "q10" -> Some (Experiment.q10_metadata_size ())
      | "q11" -> Some (Experiment.q11_partial_replication ())
      | "q12" -> Some (Experiment.q12_crash_recovery ())
      | _ -> None
    in
    match table with
    | Some t ->
        print_string (Dsm_stats.Table_fmt.render t);
        `Ok ()
    | None -> `Error (false, "unknown experiment " ^ experiment)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run one of the quantitative experiments.")
    Term.(ret (const action $ experiment))

(* ---------------------------------------------------------------- *)
(* graph                                                             *)
(* ---------------------------------------------------------------- *)

let graph_cmd =
  let action (module P : Dsm_core.Protocol.S) n m ops write_ratio zipf
      latency seed =
    let spec = spec_of ~n ~m ~ops ~write_ratio ~zipf ~seed in
    let outcome = Sim_run.run (module P) ~spec ~latency ~seed () in
    let co =
      Dsm_memory.Causal_order.compute
        (Dsm_runtime.Execution.to_history outcome.execution)
    in
    let graph = Dsm_memory.Causality_graph.compute co in
    print_string (Dsm_memory.Causality_graph.to_graphviz graph);
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ protocol $ n_procs $ m_vars $ ops $ write_ratio
       $ zipf $ latency $ seed))
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Run a workload and emit the write causality graph of the \
          resulting history in Graphviz format.")
    term

(* ---------------------------------------------------------------- *)
(* report                                                            *)
(* ---------------------------------------------------------------- *)

module Report = Dsm_runtime.Report

let report_cmd =
  let action (module P : Dsm_core.Protocol.S) n m ops write_ratio zipf
      latency seed fifo json out series_out scrape_every =
    let spec = spec_of ~n ~m ~ops ~write_ratio ~zipf ~seed in
    let metrics = Metrics.create () in
    let wire = Dsm_obs.Wire.create ~proto:P.name ~n () in
    let recorder = Dsm_obs.Timeseries.create ~metrics () in
    let outcome =
      Sim_run.run
        (module P)
        ~spec ~latency ~fifo ~seed ~metrics ~wire ~recorder ~scrape_every ()
    in
    let r = Report.make ~spec ~net_seed:seed ~outcome ~metrics ~wire ~recorder () in
    if json then print_endline (Report.to_string r)
    else Format.printf "%a" Report.pp r;
    (match out with
    | None -> ()
    | Some path ->
        write_file path (Report.to_string r ^ "\n");
        if not json then Format.printf "report -> %s@." path);
    (match series_out with
    | None -> ()
    | Some path ->
        write_file path (Dsm_obs.Timeseries.to_jsonl recorder);
        if not json then
          Format.printf "timeseries: %d scrapes -> %s@."
            (Dsm_obs.Timeseries.scrapes recorder)
            path);
    let report = r.Report.checker in
    if not (Checker.is_clean report) then `Error (false, "run is not clean")
    else if
      claims_optimality P.name && report.Checker.unnecessary_delays > 0
    then
      `Error
        ( false,
          Printf.sprintf
            "%d unnecessary delays — %s claims Theorem 4 optimality"
            report.Checker.unnecessary_delays P.name )
    else `Ok ()
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the report document to $(docv).")
  in
  let series_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-out" ] ~docv:"FILE"
          ~doc:
            "Write the flight recorder's retained scrapes to $(docv) as \
             JSONL (one object per scrape).")
  in
  let report_json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the causal-dsm-report/v1 document on stdout instead of \
             the human-readable report.")
  in
  let term =
    Term.(
      ret
        (const action $ protocol $ n_procs $ m_vars $ ops $ write_ratio
       $ zipf $ latency $ seed $ fifo $ report_json $ out $ series_out
       $ scrape_every_arg))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a workload with the full observability stack armed — \
          metrics registry, wire-cost accountant, flight recorder — and \
          emit one report joining the checker verdicts, per-cause byte \
          accounting, delivery-latency and blocked-duration quantiles, \
          and the raw instruments (causal-dsm-report/v1 with --json). \
          Same exit conventions as $(b,run). The observers are pure: the \
          simulated outcome matches an unobserved run with the same \
          seeds.")
    term

(* ---------------------------------------------------------------- *)
(* bench diff                                                        *)
(* ---------------------------------------------------------------- *)

module Bench_diff = Dsm_runtime.Bench_diff

let bench_cmd =
  let diff_action old_path new_path fail_over all =
    let load path =
      match read_file path with
      | Error msg -> Error msg
      | Ok text -> (
          match Dsm_stats.Json.parse_result text with
          | Ok doc -> Ok doc
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
    in
    match (load old_path, load new_path) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok old_doc, Ok new_doc -> (
        match Bench_diff.diff ~fail_over ~old_doc ~new_doc () with
        | exception Invalid_argument msg -> `Error (false, msg)
        | d ->
            Format.printf "%a" (Bench_diff.pp ~all) d;
            let regs = Bench_diff.regressions d in
            if regs <> [] then
              `Error
                ( false,
                  Printf.sprintf "%d metric(s) regressed beyond %.2fx"
                    (List.length regs) fail_over )
            else `Ok ())
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench JSON document.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench JSON document.")
  in
  let fail_over =
    Arg.(
      value & opt float 2.0
      & info [ "fail-over" ] ~docv:"X"
          ~doc:
            "Regression threshold: fail when a metric worsens by more \
             than $(docv)x (must exceed 1.0).")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Show every shared metric, including unregressed info rows.")
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two causal-dsm-bench/v1 documents metric by metric. \
            Direction is inferred from each metric's name (ns/ms/pct/\
            bytes are lower-is-better, throughput/speedup higher); a \
            metric worsening beyond --fail-over is a regression and the \
            command exits non-zero. Metrics present in only one document \
            are listed but never fatal.")
      Term.(
        ret (const diff_action $ old_arg $ new_arg $ fail_over $ all_flag))
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Benchmark-artifact tooling (regression comparison).")
    [ diff_cmd ]

(* ---------------------------------------------------------------- *)
(* soak                                                              *)
(* ---------------------------------------------------------------- *)

module Soak = Dsm_runtime.Soak

let soak_cmd =
  let action protocol universe vars epochs window ops_per_epoch write_ratio
      churn fault latency seed drop duplicate corrupt lax out quiet =
    let (module P : Dsm_core.Protocol.S) = protocol in
    if P.name = "WS-token" then
      `Error
        ( false,
          "soak needs every write on the wire for anti-entropy re-supply; \
           WS-token's sender-side overwriting never propagates covered \
           writes" )
    else
    let cfg =
      {
        Soak.default with
        universe;
        vars;
        epochs;
        window;
        ops_per_epoch;
        write_ratio;
        churn_prob = churn;
        fault_prob = fault;
        latency;
        seed;
        drop;
        duplicate;
        corrupt;
        strict_delays = claims_optimality P.name && not lax;
      }
    in
    match Soak.run (module P) cfg with
    | exception (Invalid_argument msg | Failure msg) -> `Error (false, msg)
    | o ->
        if not quiet then begin
          Format.printf "%a@." Soak.pp_outcome o;
          Format.printf "high-water:@.";
          List.iter
            (fun (name, v) -> Format.printf "  %-28s %d@." name v)
            (Soak.high_water_table o)
        end;
        (match out with
        | None -> ()
        | Some path ->
            write_file path (Dsm_stats.Json.to_string (Soak.to_json o) ^ "\n");
            Format.printf "soak report -> %s@." path);
        if o.Soak.clean then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf
                "soak not clean: %d violations, %d lost, %d ghosts, %d \
                 forged, %d cross-window dups, %d unnecessary delays"
                o.Soak.violations o.Soak.lost o.Soak.ghost_dots
                o.Soak.forged_values o.Soak.cross_window_dups
                o.Soak.unnecessary_delays )
  in
  let universe =
    Arg.(
      value & opt int Soak.default.Soak.universe
      & info [ "universe"; "n" ] ~docv:"N"
          ~doc:"Slot universe (all slots start as members).")
  in
  let vars =
    Arg.(
      value & opt int Soak.default.Soak.vars
      & info [ "m"; "vars" ] ~docv:"M" ~doc:"Shared variables.")
  in
  let epochs =
    Arg.(
      value & opt int Soak.default.Soak.epochs
      & info [ "epochs" ] ~docv:"E" ~doc:"Workload epochs to run.")
  in
  let window =
    Arg.(
      value & opt int Soak.default.Soak.window
      & info [ "window" ] ~docv:"W"
          ~doc:"Epochs between convergence barriers (audit windows).")
  in
  let ops_per_epoch =
    Arg.(
      value & opt int Soak.default.Soak.ops_per_epoch
      & info [ "ops-per-epoch" ] ~docv:"K" ~doc:"Operations per epoch.")
  in
  let write_ratio =
    Arg.(
      value & opt float Soak.default.Soak.write_ratio
      & info [ "write-ratio" ] ~docv:"R" ~doc:"Fraction of ops that write.")
  in
  let churn =
    Arg.(
      value & opt float Soak.default.Soak.churn_prob
      & info [ "churn" ] ~docv:"P"
          ~doc:
            "Per-epoch probability of one churn action (leave, crash, \
             rejoin, or adoption of a recycled slot).")
  in
  let fault =
    Arg.(
      value & opt float Soak.default.Soak.fault_prob
      & info [ "fault" ] ~docv:"P"
          ~doc:"Per-epoch probability of one link cut (healed later).")
  in
  let latency =
    Arg.(
      value & opt latency_conv Soak.default.Soak.latency
      & info [ "latency" ] ~docv:"SPEC"
          ~doc:"Latency model (const:C | uniform:LO,HI | exp:MEAN | \
                lognormal:MU,SIGMA | pareto:SCALE,SHAPE).")
  in
  let seed =
    Arg.(
      value & opt int Soak.default.Soak.seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Root of every random stream.")
  in
  let drop =
    Arg.(
      value & opt float Soak.default.Soak.drop
      & info [ "drop" ] ~docv:"P" ~doc:"Per-frame drop probability.")
  in
  let duplicate =
    Arg.(
      value & opt float Soak.default.Soak.duplicate
      & info [ "duplicate" ] ~docv:"P"
          ~doc:"Per-frame duplication probability.")
  in
  let corrupt =
    Arg.(
      value & opt float Soak.default.Soak.corrupt
      & info [ "corrupt" ] ~docv:"P"
          ~doc:"Per-frame corruption probability.")
  in
  let lax =
    Arg.(
      value & flag
      & info [ "lax" ]
          ~doc:
            "Do not count unnecessary delays against the verdict even \
             for Theorem 4 protocols.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the soak report (BENCH_soak.json schema) to $(docv).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the text summary (still exits \
                               non-zero on a dirty verdict).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Unbounded-lifetime churn soak: epochs of randomized workload, \
          slot reuse under bumped generations, crash-rejoins and link \
          faults, with convergence barriers every --window epochs that \
          audit the window (safety, legality, Theorem 4 delay \
          accounting), scan for ghost dots and forged values, reclaim \
          retired state (slot frees, log pruning, dedup watermarks) and \
          record memory/wire high-water marks. Exits non-zero unless the \
          whole run is clean.")
    Term.(
      ret
        (const action $ protocol $ universe $ vars $ epochs $ window
       $ ops_per_epoch $ write_ratio $ churn $ fault $ latency $ seed
       $ drop $ duplicate $ corrupt $ lax $ out $ quiet))

let () =
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  let info =
    Cmd.info "dsm-sim" ~version:"1.0.0"
      ~doc:
        "Causally consistent distributed shared memory: OptP and its \
         baselines on a deterministic discrete-event simulator."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            run_cmd;
            report_cmd;
            explain_cmd;
            nemesis_cmd;
            plan_cmd;
            tables_cmd;
            sweep_cmd;
            graph_cmd;
            soak_cmd;
            bench_cmd;
          ]))
