(* Workloads, their inputs, and one audited case of each.

   A case is: generate the inputs, simulate, audit. The workload's own
   driver decides what "simulate" means — Sim_run followed by an
   external Checker.check on static-reorder, Churn_campaign (which
   audits internally) on lossy-churn and nemesis-swarm. Every input
   can also be run at any lower or higher {!level} of the driver stack,
   which is how the traced run separates the layers. *)

module Protocol = Dsm_core.Protocol
module Spec = Dsm_workload.Spec
module Generator = Dsm_workload.Generator
module Latency = Dsm_sim.Latency
module Network = Dsm_sim.Network
module Fault_plan = Dsm_sim.Fault_plan
module Rng = Dsm_sim.Rng
module Dot = Dsm_vclock.Dot
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker
module Sim_run = Dsm_runtime.Sim_run
module Reliable_run = Dsm_runtime.Reliable_run
module Fault_campaign = Dsm_runtime.Fault_campaign
module Churn_campaign = Dsm_runtime.Churn_campaign
module Nemesis = Dsm_runtime.Nemesis
module Wire = Dsm_obs.Wire
module Metrics = Dsm_obs.Metrics
module Timeseries = Dsm_obs.Timeseries

type workload = Static_reorder | Lossy_churn | Nemesis_swarm

let workloads =
  [
    ("static-reorder", Static_reorder);
    ("lossy-churn", Lossy_churn);
    ("nemesis-swarm", Nemesis_swarm);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Inputs per run: every timed pass cycles over this pool, so the model
   metrics and the outcome digest cover the same cases on every run. *)
let pool_size = function
  | Static_reorder -> 4
  | Lossy_churn -> 32
  | Nemesis_swarm -> 512

(* The driver stack, bottom up. *)
type level = Sim | Reliable | Campaign | Churn

let levels = [ Sim; Reliable; Campaign; Churn ]

let level_name = function
  | Sim -> "Sim_run"
  | Reliable -> "Reliable_run"
  | Campaign -> "Fault_campaign"
  | Churn -> "Churn_campaign"

let own_level = function Static_reorder -> Sim | _ -> Churn

type input = {
  spec : Spec.t;
  latency : Latency.t;
  faults : Network.faults option;
  plan : Fault_plan.t;
  initial : int;
  detector : Dsm_runtime.Failure_detector.config option;
  sessions : Dsm_runtime.Session_tier.config option;
  net_seed : int;
}

let optp : Protocol.packed = Protocol.Packed (module Dsm_core.Opt_p)

(* ---- input generation ------------------------------------------- *)

let static_input seed =
  {
    spec =
      Spec.make ~n:32 ~m:8 ~ops_per_process:206 ~write_ratio:0.5
        ~var_dist:(Spec.Zipf_vars 1.2) ~seed ();
    latency = Latency.Lognormal { mu = 2.; sigma = 1.2 };
    faults = None;
    plan = [];
    initial = 32;
    detector = None;
    sessions = None;
    net_seed = seed;
  }

let lossy_universe = 16
let lossy_initial = 14
let lossy_ops = 100

(* random_churn (2 joins, 1 leave, 1 crash-rejoin) combined with random
   (1 crash-recover, 1 partition); the two draws are independent, so a
   combination can break the membership state machine (say, crashing a
   slot after it left) — redraw until the union validates *)
let lossy_plan seed ~horizon =
  let initial = List.init lossy_initial Fun.id in
  let rec draw k =
    let churn =
      Fault_plan.random_churn
        (Rng.create ((seed * 7919) + k))
        ~initial:lossy_initial ~n:lossy_universe ~horizon ~joins:2
        ~leaves:1 ~rejoins:1 ()
    in
    let faults =
      Fault_plan.random
        (Rng.create ((seed * 104729) + k))
        ~n:lossy_initial ~horizon ~crashes:1 ~partitions:1 ()
    in
    let plan = Fault_plan.make (churn @ faults) in
    match Fault_plan.validate ~n:lossy_universe ~initial plan with
    | () -> plan
    | exception Invalid_argument _ -> draw (k + 1)
  in
  draw 0

let lossy_input seed =
  let spec =
    Spec.make ~n:lossy_universe ~m:8 ~ops_per_process:lossy_ops
      ~write_ratio:0.2 ~var_dist:(Spec.Zipf_vars 1.2)
      ~think:(Latency.Exponential { mean = 10. })
      ~seed ()
  in
  {
    spec;
    latency = Latency.Exponential { mean = 10. };
    faults = Some { Network.drop = 0.05; duplicate = 0.02; corrupt = 0. };
    plan = lossy_plan seed ~horizon:(float_of_int lossy_ops *. 10.);
    initial = lossy_initial;
    detector = None;
    sessions = None;
    net_seed = seed;
  }

(* exactly the spec and campaign arguments Nemesis.run derives from a
   schedule, so a case here is the schedule's Nemesis.run *)
let nemesis_input seed =
  let s = Nemesis.random_schedule ~seed () in
  {
    spec =
      Spec.make ~n:s.universe ~m:s.vars ~ops_per_process:s.ops_per_process
        ~write_ratio:s.write_ratio ~seed:s.seed ();
    latency = s.latency;
    faults = s.faults;
    plan = s.plan;
    initial = s.initial;
    detector = s.detector;
    sessions = s.sessions;
    net_seed = s.seed;
  }

let input = function
  | Static_reorder -> static_input
  | Lossy_churn -> lossy_input
  | Nemesis_swarm -> nemesis_input

(* input [i] of a run's pool is drawn from seed [1000 * seed + i] *)
let inputs workload ~seed =
  Array.init (pool_size workload) (fun i -> input workload ((seed * 1000) + i))

(* ---- running one level ------------------------------------------ *)

type observers = { metrics : Metrics.t; wire : Wire.t; recorder : Timeseries.t }

let null_observers () =
  { metrics = Metrics.null (); wire = Wire.null (); recorder = Timeseries.null () }

let wire_only input =
  { (null_observers ()) with wire = Wire.create ~n:input.spec.Spec.n () }

let live_observers input =
  let metrics = Metrics.create () in
  {
    metrics;
    wire = Wire.create ~n:input.spec.Spec.n ();
    recorder = Timeseries.create ~metrics ();
  }

type driven =
  | Sim_out of Sim_run.outcome
  | Reliable_out of Reliable_run.outcome
  | Campaign_out of Fault_campaign.outcome
  | Churn_out of Churn_campaign.outcome

let no_faults input = Option.value input.faults ~default:Network.no_faults

let drive (Protocol.Packed (module P)) level input obs =
  let { metrics; wire; recorder } = obs in
  let spec = input.spec and latency = input.latency in
  let seed = input.net_seed in
  match level with
  | Sim ->
      Sim_out
        (Sim_run.run (module P) ~spec ~latency ~seed ~metrics ~wire ~recorder ())
  | Reliable ->
      Reliable_out
        (Reliable_run.run (module P) ~spec ~latency ~faults:(no_faults input)
           ~seed ~metrics ~wire ~recorder ())
  | Campaign ->
      Campaign_out
        (Fault_campaign.run (module P) ~spec ~latency ?faults:input.faults
           ~plan:[] ~seed ~metrics ~wire ~recorder ())
  | Churn ->
      Churn_out
        (Churn_campaign.run (module P) ~spec ~latency ?faults:input.faults
           ~plan:input.plan ~initial:input.initial ?detector:input.detector
           ~mixed:true ?sessions:input.sessions ~seed ~metrics ~wire ~recorder
           ())

let execution = function
  | Sim_out o -> o.execution
  | Reliable_out o -> o.execution
  | Campaign_out o -> o.execution
  | Churn_out o -> o.execution

let engine_steps = function
  | Sim_out o -> o.engine_steps
  | Reliable_out o -> o.engine_steps
  | Campaign_out o -> o.engine_steps
  | Churn_out o -> o.engine_steps

(* ---- one audited case ------------------------------------------- *)

type case = { driven : driven; report : Checker.report; ops : int }

(* The timed unit of work: generate the inputs, simulate, audit. The
   drivers expand the spec again internally; the explicit expansion is
   the generator's share of the case. *)
let run_case workload input obs =
  let writes, reads = Generator.op_counts (Generator.generate input.spec) in
  let driven = drive optp (own_level workload) input obs in
  let report =
    match driven with
    | Sim_out o -> Checker.check o.execution
    | Churn_out o -> o.report
    | Reliable_out _ | Campaign_out _ -> assert false
  in
  { driven; report; ops = writes + reads }

(* ---- judging ---------------------------------------------------- *)

(* per-process applied vectors, counted from the recorded applies *)
let applied_vectors exec =
  let n = Execution.n_processes exec in
  let v = Array.make_matrix n n 0 in
  List.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Apply { dot; _ } ->
          let j = Dot.replica dot in
          if j < n then v.(e.proc).(j) <- v.(e.proc).(j) + 1
      | _ -> ())
    (Execution.events exec);
  Array.to_list v

type verdict = {
  writes : int;
  failures : int;
  digest : string;  (** messages, engine steps and final applied vectors *)
}

let vectors_text vs =
  String.concat ";"
    (List.map
       (fun v -> String.concat "," (List.map string_of_int (Array.to_list v)))
       vs)

(* Failed operations: lost or unsafe applies, illegal reads, unnecessary
   OptP delays, ghost dots, diverged replicas and non-accepted verdicts. *)
let judge c =
  let r = c.report in
  let audited = List.length r.violations + List.length r.lost in
  let exec = execution c.driven in
  let writes = List.length (Execution.writes exec) in
  match c.driven with
  | Sim_out o ->
      let vs = applied_vectors exec in
      let diverged =
        match vs with
        | first :: rest -> List.exists (fun v -> v <> first) rest
        | [] -> false
      in
      {
        writes;
        failures =
          audited + r.unnecessary_delays + Bool.to_int diverged
          + Bool.to_int (not r.complete);
        digest =
          Printf.sprintf "%d/%d/%d/%s" o.messages_sent o.messages_delivered
            o.engine_steps (vectors_text vs);
      }
  | Churn_out o ->
      let verdict = Nemesis.classify ~optimal:true o in
      {
        writes;
        failures =
          audited + r.unnecessary_delays + o.quarantine_leaks
          + Bool.to_int (not o.live_equal)
          + Bool.to_int (not (Nemesis.accepted verdict));
        digest =
          Printf.sprintf "%d/%d/%d/%s" o.payloads_sent o.frames_sent
            o.engine_steps
            (vectors_text
               (List.map
                  (fun (s : Fault_campaign.replica_state) -> s.sapplied)
                  o.final_states));
      }
  | Reliable_out _ | Campaign_out _ -> assert false

(* ---- model metrics ---------------------------------------------- *)

(* Simulated-time quantities; they depend on the seed only. *)
type model = {
  mutable visibility : float array list;
      (** a write's [Send] to its [Apply] at each remote replica, one
          array per case *)
  mutable remote_applies : int;
  mutable delayed_applies : int;
  mutable wire_bytes : int;
  mutable writes_issued : int;
  mutable catch_ups : float list;
}

let model () =
  {
    visibility = [];
    remote_applies = 0;
    delayed_applies = 0;
    wire_bytes = 0;
    writes_issued = 0;
    catch_ups = [];
  }

let observe_model m c ~wire =
  let sent = Hashtbl.create 4096 in
  let visibility = ref [] in
  List.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Send { dot; _ } -> Hashtbl.replace sent dot e.time
      | Apply { dot; delayed; _ } when Dot.replica dot <> e.proc -> (
          m.remote_applies <- m.remote_applies + 1;
          if delayed then m.delayed_applies <- m.delayed_applies + 1;
          match Hashtbl.find_opt sent dot with
          | Some t -> visibility := Dsm_sim.Sim_time.diff e.time t :: !visibility
          | None -> ())
      | _ -> ())
    (Execution.events (execution c.driven));
  m.visibility <- Array.of_list !visibility :: m.visibility;
  m.wire_bytes <- m.wire_bytes + Wire.total_bytes wire;
  m.writes_issued <- m.writes_issued + Hashtbl.length sent;
  match c.driven with
  | Churn_out o ->
      m.catch_ups <-
        List.filter_map Churn_campaign.catch_up_latency o.catch_ups
        @ m.catch_ups
  | _ -> ()

(* ---- statistics ------------------------------------------------- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* linear interpolation between closest ranks, p in [0, 1]; sorts [a];
   0 when there is no sample *)
let quantile_of_array a p =
  if Array.length a = 0 then 0.
  else begin
    Array.sort Float.compare a;
    let pos = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))
  end

let quantile xs p = quantile_of_array (Array.of_list xs) p
let median xs = quantile xs 0.5
