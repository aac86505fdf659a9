(** Session tier: lightweight client sessions multiplexed onto
    replicas, with crash-tolerant migration.

    The paper's processes are simultaneously clients and replicas;
    production causal stores put many client {e sessions} in front of
    [n] replicas. Each session carries a {e session vector} — a
    per-slot lower bound joined from the dots it has written and the
    dots its reads returned — so reads and writes can be routed to
    {e any} replica while preserving the four Terry session guarantees:

    - a replica {e serves} an operation only when its applied vector
      dominates the session vector (otherwise it rejects with the first
      [waiting_for] dot it is missing — the operation is never parked
      server-side, so retrying elsewhere cannot double-commit);
    - a served write joins its own dot into the vector (RYW, MW), a
      served read joins its source dot (MR, WFR);
    - migration is handoff of the session vector: the vector rides with
      every request, so failing over to a new home preserves exactly
      the causal frontier the session has observed. Dropping the vector
      on migration (the [handoff = false] {e canary}) is the bug class
      this tier exists to prevent, and the one the re-attributed
      checker must catch as an RYW violation.

    Failure handling, against the full churn/nemesis adversary:

    - {b retry with capped backoff}: rejected operations (home down,
      not in the view, or blocked on the frontier) retry after
      exponential backoff, re-routing per the placement policy;
    - {b at-most-once writes}: a write's value encodes its (session,
      op) identity. The only in-doubt window is a home that crashes
      after serving a write but before its reply drains; the client
      then {e probes} for the op id (served from the durable log —
      never re-executes), so a retried write can commit at most once;
    - {b graceful degradation}: an operation whose retry budget runs
      out surfaces with its last [waiting_for] claim instead of
      hanging — an unreachable causal frontier is an observable
      outcome, not a livelock.

    The checker side (the finalizer {!start} returns) re-attributes
    acknowledged operations to their sessions and runs
    {!Dsm_memory.Session_guarantees.check_streams} with an
    execution-derived ordering witness, plus Terry's write-set form of
    read-your-writes; it audits at-most-once independently, by scanning
    the history for two distinct dots carrying one op id. *)

module Dot := Dsm_vclock.Dot

(** {1 Placement policies} *)

type placement =
  | Sticky
      (** stay on one home; on failover move to the cyclically next
          active slot and stick there *)
  | Random  (** pick a uniformly random active replica for every attempt *)
  | Nearest
      (** each session has a static preference ring over slots; always
          use the nearest active one (fails over {e and} fails back) *)

val placement_of_string : string -> placement option
val placement_to_string : placement -> string

type config = {
  count : int;  (** number of client sessions *)
  placement : placement;
  ops_per_session : int;
  write_ratio : float;
  think_mean : float;  (** mean think time between acknowledged ops *)
  rpc_timeout : float;
      (** client-side timeout on a write whose reply was lost *)
  backoff : float;  (** base retry backoff *)
  backoff_cap : float;
  max_retries : int;  (** per-operation retry budget *)
  handoff : bool;
      (** [false] = canary: drop the session vector on migration *)
  seed : int;
}

val default_config : count:int -> config
(** placement [Sticky], 20 ops/session, write ratio 0.5, think 10.,
    timeout 150., backoff 5. capped at 80., 10 retries, handoff on,
    seed 1. *)

val validate_config : config -> unit
(** @raise Invalid_argument on nonsensical parameters. *)

(** {1 Op-id value encoding}

    Session writes encode their identity in the written value, disjoint
    from {!Sim_run.write_value}'s replica-op range, so every layer
    (dedup probes, the duplicate audit) can recover (session, op) from
    any applied write. *)

val op_value : sid:int -> op:int -> int
val decode_value : int -> (int * int) option
(** [Some (sid, op)] iff the value is session-coded. *)

(** {1 Per-operation spans} *)

type op_kind = Op_write | Op_read

type outcome_kind =
  | Ok_served  (** executed and acknowledged first try or after retries *)
  | Ok_dedup
      (** resolved by an at-most-once probe: the original attempt had
          committed, the reply was lost, no re-execution happened *)
  | Deg_blocked
      (** degraded: retry budget exhausted while every candidate home
          rejected on the causal frontier; [owaiting_for] names the
          claim *)
  | Deg_in_doubt
      (** degraded: a write whose reply was lost could not be proven
          committed within the probe budget — surfaced, never reissued *)
  | Deg_unreachable
      (** degraded: no active home answered within the retry budget *)

type op_span = private {
  osid : int;
  oseq : int;  (** 1-based op sequence within the session *)
  okind : op_kind;
  ovar : int;
  oissued_at : float;
  mutable oattempts : int;
  mutable owaiting_for : Dot.t option;  (** last blocked claim *)
  mutable oclaim_home : int;  (** home that made the claim, -1 if none *)
  mutable oclaim_at : float;
  mutable odot : Dot.t option;  (** committed dot / read source *)
  mutable oserved_by : int;  (** home that served it, -1 if degraded *)
  mutable oserved_at : float;
      (** server-side execution time of the last executed attempt,
          [-1.] while none executed (the ack lands a reply leg later,
          at [odone_at]) *)
  mutable odone_at : float option;
  mutable ooutcome : outcome_kind option;
}
(** The per-session span record of one client operation: issue, retries
    and claims, resolution. The observability layer's session metrics
    are aggregated from these. *)

type migration = {
  msid : int;
  mat : float;
  mfrom : int;
  mto : int;
  mcarried : bool;  (** the session vector was handed off *)
}
(** One migration edge: consecutive acknowledged ops of a session were
    served by different homes. *)

(** {1 Routing} *)

val choose_home :
  placement ->
  sid:int ->
  universe:int ->
  rng:Dsm_sim.Rng.t ->
  active:int list ->
  current:int option ->
  int option
(** The placement policy's next target given the usable replicas
    [active] (sorted ascending). [None] iff [active] is empty. *)

val backoff_delay : config -> rng:Dsm_sim.Rng.t -> attempt:int -> float
(** Jittered exponential backoff, capped at [backoff_cap]. *)

(** {1 Report} *)

type report = {
  cfg : config;
  streams : (int * Dsm_memory.Operation.t list) list;
      (** acknowledged ops re-attributed by session id, session order *)
  spans : op_span list;  (** issue order *)
  migrations : migration list;  (** chronological *)
  ops_done : int;
  writes_done : int;
  reads_done : int;
  retries : int;
  blocked_rejections : int;
  unavailable_rejections : int;
  dedup_hits : int;
  replies_lost : int;
  degraded : op_span list;  (** subset of [spans], issue order *)
  duplicate_writes : int;  (** at-most-once audit; 0 on every run *)
  violations : Dsm_memory.Session_guarantees.violation list;
      (** re-attributed session-guarantee audit ([proc] = session id) *)
  write_latencies : float list;  (** client-observed, acknowledged ops *)
  read_latencies : float list;
}

val clean : report -> bool
(** No session-guarantee violations and no duplicate applied writes.
    Degraded ops do {e not} make a report unclean — surfacing them is
    the graceful-degradation contract. *)

val mean : float list -> float
val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0,1]; 0. when empty. *)

(** {1 The RPC loop} *)

val start :
  config ->
  ('p, 'm) Replica_host.t ->
  latency:Dsm_sim.Latency.t ->
  seed:int ->
  metrics:Dsm_obs.Metrics.t ->
  (Dsm_memory.History.t -> report)
(** Schedules the first op of each of [cfg.count] sessions against the
    host's replicas, and returns the finalizer that audits the run's
    history into the report once the engine has quiesced. Request and
    reply legs sample [latency] from the tier's own stream (seeded from
    [cfg.seed] and [seed]). Registers the [session_*] series.
    @raise Invalid_argument as {!validate_config}. *)

(** {1 Reporting} *)

val pp_outcome_kind : Format.formatter -> outcome_kind -> unit
val pp_op_span : Format.formatter -> op_span -> unit
val pp_migration : Format.formatter -> migration -> unit
val pp_report : Format.formatter -> report -> unit

val pp_explain :
  execution:Execution.t -> Format.formatter -> report -> unit
(** Per-session explain rows: each session's migration edges and every
    degraded/blocked claim joined against the checker's ground truth —
    whether the claimed [waiting_for] dot really was unapplied at the
    claiming home at claim time — plus, for each session-guarantee
    violation, the migration edge nearest before the offending
    operation. *)
