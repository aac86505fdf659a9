(** Nemesis: unified adversarial fault campaigns.

    Every fault family the repo grew one step at a time — crash/recover,
    partitions, churn and emergent membership ({!Churn_campaign}),
    frame corruption, and the link-level primitives of
    {!Dsm_sim.Network} (asymmetric cuts, flapping, delay inflation) —
    composed into {e one} schedule and judged by
    {e one} verdict. The paper's §3.1 model has none of these
    failures; nemesis is the adversary that checks the implementation
    keeps the paper's guarantees (causal consistency, and Theorem 4's
    zero unnecessary delays for OptP) outside the model anyway.

    Three run shapes:

    - {b scenario corpus} ({!scenarios}): named, fixed-seed schedules
      with {e expected} verdicts — regression seeds distilled from the
      bug classes previous PRs fought (ghost dots from stale
      incarnations, refuted false suspicions, divergence after
      partition+churn races). A scenario fails when its verdict is not
      in its expected set.
    - {b swarm} ({!swarm}): randomized combined schedules drawn from a
      seed, each run and classified; acceptance is
      {!accepted} ([Clean] or [Refuted_suspicion] — a refuted false
      suspicion is the survivable false-positive path, not a bug).
    - {b shrink} ({!shrink}): when a schedule produces a bad verdict, a
      greedy delta-debugging pass minimizes the fault schedule while
      the verdict reproduces, and the survivor serializes to replayable
      JSON ({!to_json_string} / {!of_json_string}, schema
      [causal-dsm-nemesis-plan/v1]).

    The deliberately buggy {!Dsm_core.Canary} protocol is the
    self-test: a swarm that cannot catch its delivery-order violation
    is not testing anything. *)

(** {1 Verdicts} *)

type verdict =
  | Clean  (** checker clean, converged, no membership anomalies *)
  | Refuted_suspicion
      (** clean, but the detector falsely suspected a live slot and a
          later heartbeat re-admitted it — survivable by design *)
  | Degraded_session
      (** clean, but a session operation exhausted its retry budget and
          surfaced as degraded ([waiting_for] / in-doubt / unreachable)
          — the graceful-degradation contract, survivable by design *)
  | Unnecessary_delay
      (** a protocol claiming Theorem 4 optimality delayed a write the
          ground-truth causal order did not require *)
  | Ghost_leak
      (** a quarantine leak: a dot applied twice at one process, or
          observed under two values — stale-incarnation traffic got in *)
  | Session_anomaly
      (** the session tier broke a Terry guarantee on a re-attributed
          client stream, or a retried write applied twice — judged
          right below [Violation]: the replicas may agree while a
          migrating client still observed the inconsistency *)
  | Diverged
      (** live replicas disagree at the end, a write was lost, or a
          false suspicion left a live slot permanently ejected (never
          refuted, never re-admitted, and not scheduled to be gone) *)
  | Violation  (** causal-consistency safety or legality violation *)
  | Stuck
      (** the campaign itself raised or never converged — driver or
          harness failure, judged worst after [Violation] *)

val verdict_name : verdict -> string
(** Kebab-case: ["clean"], ["refuted-suspicion"], ["degraded-session"],
    ["unnecessary-delay"], ["ghost-leak"], ["session-anomaly"],
    ["diverged"], ["violation"], ["stuck"]. *)

val verdict_of_name : string -> verdict option
val pp_verdict : Format.formatter -> verdict -> unit

val accepted : verdict -> bool
(** Swarm acceptance: [Clean], [Refuted_suspicion] or
    [Degraded_session]. *)

val classify : optimal:bool -> Churn_campaign.outcome -> verdict
(** Precedence: [Violation] > [Session_anomaly] > [Ghost_leak] >
    [Diverged] > [Unnecessary_delay] > [Refuted_suspicion] >
    [Degraded_session] > [Clean].
    [~optimal] arms the [Unnecessary_delay] check (protocols that claim
    Theorem 4). [Stuck] is never produced here — {!run} assigns it when
    the campaign raises. *)

(** {1 Schedules} *)

type schedule = {
  name : string;
  protocol : string;  (** see {!protocol_names} *)
  universe : int;  (** slot universe ([Spec.n]) *)
  initial : int;  (** slots [0..initial-1] are members at time 0 *)
  vars : int;
  ops_per_process : int;
  write_ratio : float;
  latency : Dsm_sim.Latency.t;
      (** must be CLI-expressible (no [Shifted]/[Bimodal]) when the
          schedule is serialized to JSON *)
  faults : Dsm_sim.Network.faults option;
      (** probabilistic drop/duplicate/corrupt, on top of the plan *)
  detector : Failure_detector.config option;
      (** arms phi-accrual detection alongside the scripted plan *)
  sessions : Session_tier.config option;
      (** multiplexes a client-session tier over the replicas; its
          re-attributed guarantee audit feeds [Session_anomaly] /
          [Degraded_session] *)
  plan : Dsm_sim.Fault_plan.t;
  seed : int;  (** drives workload, channels and the campaign *)
}

val protocol_names : string list
(** [["optp"; "anbkh"; "optp-direct"; "canary"]]. *)

val protocol_by_name : string -> Dsm_core.Protocol.packed option

val optimal_protocol : string -> bool
(** Whether the named protocol claims Theorem 4 (OptP family; the
    canary inherits the claim so its violations cannot hide). *)

val validate_schedule : schedule -> unit
(** Parameter sanity plus {!Dsm_sim.Fault_plan.validate} over the
    universe. @raise Invalid_argument otherwise. *)

val horizon : schedule -> float
(** Nominal workload horizon ([ops_per_process] × mean think time);
    the scale fault times are drawn against. *)

(** {1 Running and judging} *)

type result = {
  sched : schedule;
  verdict : verdict;
  detail : string;  (** one-line evidence summary, or the [Stuck] exn *)
  outcome : Churn_campaign.outcome option;  (** [None] iff [Stuck] *)
}

val run : ?metrics:Dsm_obs.Metrics.t -> schedule -> result
(** Validates, resolves the protocol, and drives
    {!Churn_campaign.run} with [~mixed:true] (detector and scripted
    membership may coexist). Any exception out of the campaign becomes
    a [Stuck] verdict carrying the exception text; an invalid schedule
    raises instead. Deterministic: same schedule, same result. *)

(** {1 Scenario corpus} *)

type scenario = {
  sched_ : schedule;
  expected : verdict list;  (** acceptable verdicts for this scenario *)
  about : string;
}

val scenarios : scenario list
(** Fixed corpus, every schedule deterministic. Includes the canary
    scenario (expected [Violation]), the session-tier failover family
    ([session-kill-home], [session-partition-home],
    [session-migrate-storm]) and the dropped-handoff session canary
    (expected [Session_anomaly]) — keep both canaries
    expected-failing. *)

val find_scenario : string -> scenario option

(** {1 Swarm} *)

val random_schedule : ?protocol:string -> seed:int -> unit -> schedule
(** A randomized combined-fault schedule, a pure function of [seed]:
    universe 4–6 slots, optional fresh join, disjoint victim sets for
    crash-rejoin / graceful leave / crash-recover (one member always
    stays stable), sequential two-sided partitions, one-way cut
    episodes, flaps, delay-inflation spikes, ~30% probabilistic
    drop/duplicate/corrupt faults, ~30% an armed accrual detector,
    ~30% a client-session tier (handoff always on — the swarm hunts
    real bugs; the dropped-vector canary lives in the corpus).
    Default protocol ["optp"]. *)

type swarm_report = {
  total : int;
  accepted_count : int;
  counts : (verdict * int) list;  (** every verdict, fixed order *)
  failures : result list;  (** non-accepted results, chronological *)
}

val swarm :
  ?protocol:string ->
  ?on_result:(int -> result -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  swarm_report
(** Runs [count] schedules [random_schedule ~seed:(seed + i)] for
    [i = 0..count-1]. [on_result] observes each as it lands. *)

(** {1 Shrinking} *)

type shrink_report = {
  target : verdict;
  original : schedule;
  minimal : schedule;
  attempts : int;  (** campaign runs spent shrinking *)
  events_before : int;
  events_after : int;
}

val shrink :
  ?max_attempts:int -> schedule -> target:verdict -> shrink_report
(** Greedy delta debugging towards a minimal schedule still producing
    [target]: first tries disarming the detector and the probabilistic
    faults, then ddmin over fault {e episodes} (a crash and its
    recover/rejoin, a cut and its heal, a one-way cut and its heal are
    removed together; flaps, inflations, joins and leaves are atomic) —
    remove-half granularity halving down to single episodes, restarting
    after every success, revalidating every candidate. [max_attempts]
    (default 256) caps campaign runs. The input schedule need not
    currently produce [target]; the original is returned unshrunk if
    nothing reproduces. *)

(** {1 Replayable JSON (schema [causal-dsm-nemesis-plan/v1])} *)

val to_json_string : schedule -> string
(** Self-contained replayable form; 0-based process ids, latency in the
    CLI's [const:C | uniform:LO,HI | exp:MEAN | lognormal:MU,SIGMA |
    pareto:SCALE,SHAPE] syntax, floats printed exactly (round-trip).
    An armed session tier serializes as an optional ["sessions"] object
    (absent = none) — the schema stays [causal-dsm-nemesis-plan/v1];
    plans written before the session tier still replay.
    @raise Invalid_argument if [latency] has no CLI syntax. *)

val of_json_string : string -> (schedule, string) Stdlib.result
(** Inverse of {!to_json_string}; validates the decoded schedule. *)

(** {1 Reporting} *)

val pp_result : Format.formatter -> result -> unit
val pp_swarm_report : Format.formatter -> swarm_report -> unit
val pp_shrink_report : Format.formatter -> shrink_report -> unit
