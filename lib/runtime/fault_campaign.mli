(** Static-membership front door to {!Churn_campaign}, the one
    crash-recovery driver. *)

type replica_state = Churn_campaign.replica_state
type outcome = Churn_campaign.outcome

val validate_plan : n:int -> Dsm_sim.Fault_plan.t -> unit
(** Well-formed for [n] slots and free of [Join]/[Leave] events.
    @raise Invalid_argument otherwise. *)

val run :
  (module Dsm_core.Protocol.S with type t = 'pt and type msg = 'pm) ->
  spec:Dsm_workload.Spec.t -> latency:Dsm_sim.Latency.t ->
  ?faults:Dsm_sim.Network.faults -> plan:Dsm_sim.Fault_plan.t ->
  ?seed:int -> ?metrics:Dsm_obs.Metrics.t -> ?wire:Dsm_obs.Wire.t ->
  ?recorder:Dsm_obs.Timeseries.t -> unit -> outcome
(** {!validate_plan}, then [Churn_campaign.run ~initial:spec.n]. *)
