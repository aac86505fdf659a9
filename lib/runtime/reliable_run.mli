(** Run a protocol over {e faulty} links healed by the reliable-channel
    layer.

    Same driver contract as {!Sim_run}, but the underlying network may
    drop and duplicate transmissions; exactly-once delivery is rebuilt
    by {!Dsm_sim.Reliable_channel} (sequence numbers, acks,
    retransmission, deduplication). This demonstrates the paper's §3.1
    channel assumption as an implemented substrate rather than an
    axiom, and gives the failure-injection tests a live target: a
    protocol that is checker-clean on {!Sim_run} must stay clean here
    for every loss/duplication rate below 1. *)

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  payloads_sent : int;  (** distinct protocol messages *)
  frames_sent : int;  (** wire frames incl. acks and retransmissions *)
  frames_dropped : int;
  frames_duplicated : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

val run :
  (module Dsm_core.Protocol.S) ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  faults:Dsm_sim.Network.faults ->
  ?retransmit_after:float ->
  ?seed:int ->
  ?max_steps:int ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?wire:Dsm_obs.Wire.t ->
  ?recorder:Dsm_obs.Timeseries.t ->
  ?scrape_every:float ->
  unit ->
  outcome
(** [?metrics] (default: the null registry) is threaded to the network
    and the reliable channel; probes are pure observation.
    [?wire]/[?recorder]/[?scrape_every] as in {!Sim_run.run} — here the
    accountant prices {e channel} frames ({!
    Dsm_sim.Reliable_channel.wire_frame}), so retransmissions and acks
    show up as wire cost.
    @raise Failure on step-limit exhaustion (default [20_000_000];
    lossy runs retransmit, so budgets are larger than {!Sim_run}'s). *)

val pp_outcome : Format.formatter -> outcome -> unit
