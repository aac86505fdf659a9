(** Run a protocol over a random workload on the simulated network.

    This is the main experiment driver: it expands a workload spec into
    per-process schedules, creates one node per process, lets the
    discrete-event engine run to quiescence, and returns the recorded
    execution and summary statistics. {!Execution.to_history}
    reconstructs the abstract history from the execution when a caller
    needs it ({!Checker.check} builds its own). Deterministic in
    [(spec.seed, seed)]. *)

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  messages_sent : int;
  messages_delivered : int;
  engine_steps : int;
  end_time : float;  (** simulated time of the last event *)
  buffer_high_watermarks : int array;  (** per process *)
  total_buffered : int array;  (** per process, lifetime *)
  skipped_writes : int;  (** total [Skip] events — 0 for class-𝒫 members *)
}

val run :
  (module Dsm_core.Protocol.S) ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  ?fifo:bool ->
  ?faults:Dsm_sim.Network.faults ->
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
(** [latency] applies to every ordered pair. [seed] (default 1) feeds
    the network's latency streams — the workload has its own seed in
    [spec]. [max_steps] (default [10_000_000]) bounds runaway protocols.

    [queue] (default {!Dsm_sim.Engine.Indexed}) and [arena] (default
    [true]) select the engine's event queue and the network's envelope
    arena — the hot-path machinery knobs, exposed so the differential
    suite can hold the default path to the reference pairing heap and
    the fresh-closure envelope (every combination must produce the
    same outcome).

    [metrics] (default: the null registry) receives the network and
    protocol instruments; probes are pure observation, so the run is
    byte-identical with and without a live registry.

    [wire] (default: inert) receives per-frame byte-cost accounting via
    the protocol's [msg_frame]; [recorder] (default: inert) is scraped
    every [scrape_every] sim-time units (default 25.) up to the
    workload horizon. Both are pure observation — same outcome with
    either enabled, pinned by the differential suite.

    [faults] injects raw link failures with NO recovery layer — the
    run will normally lose writes and fail the checker; that is its
    purpose (negative testing). For failure injection {e with} the
    reliable-channel substrate, use {!Reliable_run}.
    @raise Failure if the engine hits the step bound (a liveness bug —
    class-𝒫 protocols must quiesce once all messages are delivered). *)

val write_value : proc:int -> seq:int -> int
(** The globally unique value the driver assigns to the [seq]-th write
    of [proc] (1-based). Exposed so tests can predict read values. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-paragraph run summary. *)
