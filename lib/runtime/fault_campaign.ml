module Fault_plan = Dsm_sim.Fault_plan

type replica_state = Churn_campaign.replica_state
type outcome = Churn_campaign.outcome

let validate_plan ~n plan =
  (* the churn check comes first: a churny plan is usually well-formed
     for the churn driver, and the useful answer is "wrong driver", not
     whichever state-machine complaint full-membership validation hits *)
  (if Fault_plan.has_churn plan then
    let ev =
      List.find
        (function
          | Fault_plan.Join _ | Fault_plan.Leave _ -> true | _ -> false)
        plan
    in
    invalid_arg
      (Format.asprintf
         "Fault_campaign.run: static membership only, but the plan contains \
          %a — membership changes need a churn-aware driver: \
          Nemesis.run for combined fault schedules (CLI: dsm-sim \
          nemesis), or Churn_campaign.run for churn alone (CLI: dsm-sim run \
          --join/--leave/--churn, or --fd for detector-driven views)"
         Fault_plan.pp_event ev));
  Fault_plan.validate ~n plan

let run p ~spec ~latency ?faults ~plan ?seed ?metrics ?wire ?recorder () =
  validate_plan ~n:spec.Dsm_workload.Spec.n plan;
  Churn_campaign.run p ~spec ~latency ?faults ~plan
    ~initial:spec.Dsm_workload.Spec.n ?seed ?metrics ?wire ?recorder ()
