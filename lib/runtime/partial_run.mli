(** Driver for partially replicated runs ({!Dsm_core.Opt_p_partial}).

    Differences from {!Sim_run}: operations are confined to each
    process's replicated locations (the workload's variable choices are
    folded onto them), writes are {e multicast} to the written
    location's replicas only, and the audit must be run with the
    checker's replication mode (the returned {!outcome} carries the
    predicate to pass). *)

type outcome = {
  execution : Execution.t;
  history : Dsm_memory.History.t;
  replication : Dsm_core.Replication.t;
  messages_sent : int;
  engine_steps : int;
  end_time : float;
  buffer_high_watermarks : int array;
}

val run :
  replication:Dsm_core.Replication.t ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  ?seed:int ->
  ?max_steps:int ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?wire:Dsm_obs.Wire.t ->
  ?recorder:Dsm_obs.Timeseries.t ->
  ?scrape_every:float ->
  ?queue:Dsm_sim.Engine.queue_impl ->
  ?arena:bool ->
  unit ->
  outcome
(** [spec.n] and [spec.m] must match the replication map's dimensions.
    [queue]/[arena] select the hot-path machinery and
    [?metrics]/[?wire]/[?recorder]/[?scrape_every] the observability as
    in {!Sim_run.run}; here the accountant prices the whole m×n [know]
    matrix each write multicasts, so partial replication's metadata tax
    is directly visible.
    Each operation's variable is remapped into the issuing process's
    replicated set (preserving the workload's distribution shape).
    @raise Invalid_argument on dimension mismatch.
    @raise Failure on step-limit exhaustion. *)

val run_scan :
  replication:Dsm_core.Replication.t ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  ?seed:int ->
  ?max_steps:int ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?wire:Dsm_obs.Wire.t ->
  ?recorder:Dsm_obs.Timeseries.t ->
  ?scrape_every:float ->
  ?queue:Dsm_sim.Engine.queue_impl ->
  ?arena:bool ->
  unit ->
  outcome
(** Same run over {!Dsm_core.Opt_p_partial.Scan}, the reference
    scanning-buffer instantiation — the differential suite holds it and
    {!run} to identical outcomes. *)

val check : outcome -> Checker.report
(** The replication-aware audit of the run. *)
