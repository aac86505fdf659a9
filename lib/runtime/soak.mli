(** Unbounded-lifetime churn soak: the endurance driver for the
    generation-stamped dot space.

    Where {!Churn_campaign} runs one scripted fault plan to completion
    and audits the whole execution at the end, this driver runs
    {e epochs} of randomized workload, churn and link faults for as
    long as asked — hundreds of occupant lifetimes over a {e fixed}
    slot universe — and keeps every piece of state bounded by the live
    membership, not by the run's length:

    - {b slot reuse}: a gracefully departed occupant's slot is
      recycled to a new logical process under a bumped {e generation}
      ({!Membership.free} + {!Dsm_core.Protocol.S.adopt}); the write
      counter continues monotonically across occupants, so dots stay
      globally unique while the generation stamp keeps the occupants
      distinguishable;
    - {b convergence barriers}: every [window] epochs the driver heals
      all links, force-rejoins every crashed slot and pumps
      anti-entropy until all live Apply vectors are equal. The common
      vector becomes the new audit {e floor};
    - {b windowed auditing}: the execution retained between barriers is
      checked ({!Checker.check} with [?floor]) and discarded — safety,
      read legality and Theorem 4's zero-unnecessary-delay bound hold
      per window, while memory stays flat;
    - {b retired-state reclamation}: once the floor passes a retired
      occupant's final write counter the slot is freed, anti-entropy
      logs are pruned to the floor, and receiver-side dedup state folds
      into watermarks ({!Dsm_sim.Reliable_channel.gc_dedup});
    - {b in-run monitors}: ghost-dot scans (a dot beyond the floor,
      from a generation the retirement ledger does not attribute, or
      applied twice), value forgery against the workload's
      dot-determined values, cross-window duplicate applies, memory
      high-water via [Gc], and wire cost via {!Dsm_obs.Wire}.

    The per-slot durable state, the delivery path and the anti-entropy
    plane are {!Replica_host}'s, shared with {!Churn_campaign}: commit
    after every write, restore on rejoin, catch-up rounds spaced
    [retransmit_after] apart. There is no state transfer — a recycled
    slot's new occupant bootstraps from the barrier snapshot
    ({!Dsm_core.Protocol.S.adopt}) and pulls the open window's writes
    through the same sync path every rejoiner uses.

    Determinism: all randomness flows from [seed] through split
    {!Dsm_sim.Rng} streams, and the outcome carries a [digest] mixed
    from every barrier's common vector — two runs with equal configs
    must produce equal digests (the replay test pins this). *)

type config = {
  universe : int;  (** slot count; all slots start as members *)
  vars : int;
  epochs : int;
  window : int;  (** epochs between convergence barriers *)
  ops_per_epoch : int;
  write_ratio : float;
  churn_prob : float;  (** per-epoch probability of one churn action *)
  fault_prob : float;  (** per-epoch probability of one link fault *)
  min_live : int;  (** never churn below this many stable members *)
  drop : float;
  duplicate : float;
  corrupt : float;
  latency : Dsm_sim.Latency.t;
  epoch_len : float;
  retransmit_after : float;
  sync_rounds : int;
  flush_poll : float;
  seed : int;
  max_steps : int;  (** per engine drain *)
  max_pump_rounds : int;  (** barrier convergence bound *)
  strict_delays : bool;
      (** count unnecessary delays against [clean] (Theorem 4 — set
          for OptP, clear for the conservative baselines) *)
}

val default : config
(** 6 slots, 4 variables, 1000 epochs in windows of 20, lossy lognormal
    links, [strict_delays] on. *)

type window_report = {
  w_index : int;
  w_end_epoch : int;
  w_time : float;
  w_writes : int;
  w_applies : int;
  w_delays : int;
  w_unnecessary : int;
  w_violations : int;
  w_lost : int;
  w_ghost_dots : int;
  w_forged_values : int;
  w_cross_window_dups : int;
  w_double_applies : int;
  w_pump_rounds : int;
  w_live : int;
  w_floor_total : int;  (** sum of the new floor's components *)
  w_reclaimed_slots : int;  (** slots freed at this barrier *)
  w_live_words : int;  (** [Gc.stat] after compaction *)
  w_log_entries : int;  (** anti-entropy log entries retained *)
  w_dedup_entries : int;  (** channel dedup records retained *)
  w_wire_bytes : int;  (** cumulative wire cost at the barrier *)
}

type outcome = {
  protocol_name : string;
  config : config;
  windows : window_report list;
  occupants : int;  (** logical-process lifetimes ever started *)
  adoptions : int;
  rejoins : int;
  leaves : int;
  crashes : int;
  frees : int;
  max_generation : int;
  total_writes : int;
  total_applies : int;
  total_delays : int;
  unnecessary_delays : int;
  violations : int;
  lost : int;
  ghost_dots : int;
  forged_values : int;
  cross_window_dups : int;
  double_applies : int;
  ops_skipped_inactive : int;
  replayed_writes : int;
  stale_deliveries_dropped : int;
  chan_stale_quarantined : int;
  net_stale_dropped : int;
  net_nonmember_dropped : int;
  corrupt_dropped : int;
  retransmissions : int;
  duplicates_discarded : int;
  aborted_payloads : int;
  payloads_sent : int;
  frames_sent : int;
  wire_bytes_total : int;
  max_live_words : int;
  max_log_entries : int;
  max_dedup_entries : int;
  dedup_reclaimed : int;
  log_reclaimed : int;
  vec_width : int;  (** wire vector width — the universe, not the
                        occupant count *)
  digest : int;  (** replay fingerprint: equal configs ⟹ equal digests *)
  engine_steps : int;
  end_time : float;
  clean : bool;
}

val run :
  ?on_audit:(Execution.t -> Checker.report -> unit) ->
  (module Dsm_core.Protocol.S with type t = 'pt and type msg = 'pm) ->
  config ->
  outcome
(** Runs the soak to completion. [on_audit] (default: ignore) receives
    each closing window's execution and audit report, in window order.
    It is a test hook with no production caller: it only observes, and
    it is the one way a test reaches the windowed ([?floor]) audits.
    @raise Invalid_argument on a malformed config, or for protocols
    that do not support [adopt] (static topologies).
    @raise Failure when a barrier fails to converge within
    [max_pump_rounds] or a drain exceeds [max_steps]. *)

val high_water_table : outcome -> (string * int) list
(** The endurance claim as rows: occupant lifetimes and reuse counts
    against the bounds reclamation held (vector width, live words, log
    and dedup high-water). *)

val to_json : outcome -> Dsm_stats.Json.t
(** [causal-dsm-bench/v1] section ["soak"] — the [BENCH_soak.json]
    artifact. Windows are sampled (first, quartiles, last two) to keep
    the artifact small. *)

val pp_outcome : Format.formatter -> outcome -> unit
