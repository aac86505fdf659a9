(** Crash–recovery and dynamic-membership campaigns under a
    causal-consistency audit.

    Drives a {!Dsm_core.Protocol.S} protocol through a workload over a
    {!Dsm_sim.Reliable_channel} while a {!Dsm_sim.Fault_plan} crashes
    and restarts processes, cuts and heals partitions, and changes the
    replica set. The paper's §3.1 model has none of these; the campaign
    shows OptP's causal consistency survives them once the protocol
    state is made durable. A plan without [Join]/[Leave] events is a
    static crash-recovery campaign ([~initial:spec.n]).

    {2 The recovery model}

    - {b Durable}: whatever {!Dsm_core.Protocol.S.snapshot} captures
      (for OptP: [Apply], [Write_co], [LastWriteOn], the store, the
      pending buffer) plus the write log that feeds anti-entropy
      replies. A commit happens after {e every local write} — so a
      write is durable before its broadcast leaves and no dot is ever
      reissued — and at a periodic checkpoint ([checkpoint_every]),
      which bounds how many {e received} writes a crash can undo.
    - {b Volatile}: everything since the last commit. A crash discards
      the protocol's un-checkpointed progress and the staged execution
      events of that window (the run's record keeps exactly what the
      durable state can vouch for), and
      {!Dsm_sim.Reliable_channel.abort_peer} abandons retransmissions
      toward the corpse.
    - {b Recovery}: the state is rebuilt with [restore], then the node
      broadcasts its [Apply] vector in a [Sync_request]; peers answer
      with the original wire messages of every applied write the
      vector misses (per-issuer FIFO apply makes vector coverage exact:
      dot [(u,s)] is applied iff [Apply[u] >= s]). Replies replay
      through the {e normal} receive path, so the delivery buffer and
      the delay accounting are untouched — every replayed delay is
      {e necessary} by construction, and OptP keeps its Theorem-4 zero
      unnecessary delays across crashes.

    After the engine quiesces, a final anti-entropy fixpoint pass picks
    up writes that were still buffered at every peer during the in-run
    sync rounds, and an optional {e settle phase} (reads + sentinel
    writes round-robin over live replicas, then reads everywhere) makes
    live replicas comparable field-by-field: causal consistency alone
    permits eternal divergence on concurrent writes (experiment Q9),
    and OptP's [Write_co] only grows on reads.

    {2 Membership}

    The replica set may change while the run is in flight, over a fixed
    {e universe} of slots (see {!Membership}):

    - {b join}: a fresh slot enters the view. All live protocol states
      {e grow} their clocks to cover the new slot first (the
      growth-before-traffic invariant of {!Dsm_core.Protocol.S.grow}),
      then a sponsor — the lowest-id active member — ships its whole
      durable write log as a bootstrap {e state transfer}, which the
      joiner replays through the normal receive path: [Write_co]
      merge-on-read semantics and Theorem 4's delay accounting are
      untouched because the joiner's applies are ordinary protocol
      receives. Writes that raced the view change are picked up by
      anti-entropy sync rounds and the final fixpoint.
    - {b graceful leave}: the slot stops issuing at its [Leave] event,
      {e flushes} — polls until every payload it originated has been
      acknowledged, so each of its writes is durable somewhere else —
      and then departs, retiring its slot for good.
    - {b crash-rejoin}: a [Join] of a crashed slot restores the durable
      snapshot under a {e fresh incarnation}
      ({!Dsm_sim.Network.bump_incarnation},
      {!Dsm_sim.Reliable_channel.bump_incarnation}): the previous
      life's in-flight and retransmitted frames are stale and must be
      quarantined, never applied. Group-wide sync rounds re-supply the
      rejoiner's own pre-crash writes that died on the wire.

    The audit is {!Checker.check} with the final membership view as the
    [?expected] completeness domain — every slot active at the end owes
    an apply of {e every} write, including writes issued before it
    joined — plus an independent {e ghost-dot} scan
    ({!outcome.quarantine_leaks}): a dot applied twice at one process,
    or observed under two different values, would mean stale or forged
    traffic leaked into [Apply]. *)

type 'msg wire =
  | Proto of 'msg
  | Sync_request of { vec : int array }
  | Sync_reply of { vec : int array; writes : 'msg list }
  | Transfer of { vec : int array; writes : 'msg list }
      (** delta state transfer: the sponsor's durable log cut at the
          joiner's Apply vector (a fresh joiner's zeros degenerate to
          the whole log) *)
  | Heartbeat of { sent : float }
      (** gossip liveness beacon ({!Failure_detector}); [sent] is the
          origination time, kept across retransmissions, so a
          refutation can prove the sender outlived the suspicion *)

type catch_up_kind = Fresh_join | Rejoin | Recover

type catch_up = {
  cproc : int;
  ckind : catch_up_kind;
  started_at : float;
  crashed_at : float option;
      (** the crash a [Recover] (or a crash-[Rejoin]) comes back from *)
  rolled_back : int;
      (** applies the durable-state restore undid: the crash's volatile
          window (0 when nothing was restored) *)
  mutable transfer_writes : int;
  mutable transfer_gap : int;
      (** componentwise sponsor-minus-joiner Apply gap at transfer
          time; bounds [transfer_writes] (one single-write message per
          missing dot) *)
  mutable transfer_bytes : int;
  mutable replayed : int;
  mutable target : int array option;
  mutable converged_at : float option;
}
(** One slot's catch-up episode: a fresh join, a crash-rejoin, or a
    plain crash recovery — on a churn-free plan every episode is a
    [Recover]. [converged_at] is set once the slot's applied vector
    dominates every peer vector it has heard (join-to-converged or
    recovery latency = [converged_at - started_at]). *)

type replica_state = {
  sproc : int;
  sapplied : int array;  (** final [Apply] *)
  sclock : int array;  (** final [Write_co] (or protocol equivalent) *)
  sstore : (Dsm_memory.Operation.value * Dsm_vclock.Dot.t option) list;
      (** per variable: value and writer identity *)
}

type suspicion = {
  speer : int;  (** who was suspected *)
  sobserver : int;  (** whose detector crossed the threshold *)
  sphi : float;
  sat : float;
  strue : bool;  (** the peer really was down at [sat] *)
  slatency : float option;
      (** crash-to-suspicion detection latency, when [strue] *)
  mutable srefuted_at : float option;
      (** set when a heartbeat sent after [sat] re-admitted the peer
          through the rejoin path *)
}
(** One accrual-detector verdict (emergent mode only). A refuted
    suspicion is the survivable false-positive path: the slot rejoins
    under a fresh incarnation exactly as a crash-rejoin would. *)

type outcome = {
  execution : Execution.t;
  history : Dsm_memory.History.t;
  report : Checker.report;
  protocol_name : string;
  plan : Dsm_sim.Fault_plan.t;
  membership : Membership.t;  (** final view and full transition history *)
  final_epoch : int;
  joins : int;
  rejoins : int;
  leaves : int;
  catch_ups : catch_up list;  (** chronological *)
  detector : Failure_detector.config option;
      (** [Some _] iff the run was emergent (detector-driven) *)
  heartbeats_sent : int;  (** standalone [Heartbeat] frames originated *)
  suspicions : suspicion list;  (** chronological *)
  false_suspicions : int;
      (** suspicions of a slot that was in fact alive *)
  refutations : int;
      (** suspicions cancelled by a later heartbeat; each one re-admits
          the slot through the rejoin path *)
  view_reasons : (int * float * string) list;
      (** provenance: one [(epoch, at, why)] per membership transition,
          chronological — in emergent mode this is the detector's view
          history *)
  transfer_bytes : int;  (** total sponsor state-transfer volume *)
  quarantine_leaks : int;
      (** ghost dots: double applies or conflicting values — 0 on every
          healthy run *)
  sessions : Session_tier.report option;
      (** [Some _] iff the run drove a client-session tier
          ([?sessions]): per-session spans, migrations, and the
          re-attributed session-guarantee audit *)
  active_at_end : int list;
  final_states : replica_state list;
      (** active replicas, ascending id *)
  live_equal : bool;
  clean : bool;
      (** checker clean (membership-aware completeness, unconditional
          safety/legality) {e and} zero quarantine leaks *)
  commits : int;
  snapshot_bytes : int;
  rolled_back_events : int;
  ops_skipped_inactive : int;
      (** scheduled ops that found their slot down, flushing, or out of
          the view *)
  sync_requests : int;
  sync_replies : int;
  replayed_writes : int;
  stale_deliveries_dropped : int;
      (** echo drops at the driver: writes already covered on arrival *)
  chan_stale_quarantined : int;
      (** data frames from a superseded sender incarnation, acked but
          never delivered *)
  net_stale_dropped : int;
      (** envelopes addressed to a superseded destination incarnation *)
  net_nonmember_dropped : int;
      (** deliveries to slots outside the view (raced a leave, or
          never joined) *)
  net_oneway_dropped : int;
      (** transmissions lost to an asymmetric (one-way) link cut *)
  net_flap_dropped : int;
      (** transmissions lost to a flapping link's cut phase *)
  net_delay_inflated : int;
      (** transmissions delivered late under a delay-inflation spike *)
  net_partition_dropped : int;
      (** transmissions lost to a partition cut *)
  net_crash_dropped : int;
      (** deliveries to a crashed slot *)
  corrupt_dropped : int;
  aborted_payloads : int;
  payloads_sent : int;
  frames_sent : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

val run :
  (module Dsm_core.Protocol.S with type t = 'pt and type msg = 'pm) ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  ?faults:Dsm_sim.Network.faults ->
  plan:Dsm_sim.Fault_plan.t ->
  initial:int ->
  ?detector:Failure_detector.config ->
  ?mixed:bool ->
  ?sessions:Session_tier.config ->
  ?checkpoint_every:float ->
  ?sync_rounds:int ->
  ?sync_interval:float ->
  ?flush_poll:float ->
  ?settle:bool ->
  ?retransmit_after:float ->
  ?seed:int ->
  ?max_steps:int ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?wire:Dsm_obs.Wire.t ->
  ?recorder:Dsm_obs.Timeseries.t ->
  ?scrape_every:float ->
  ?queue:Dsm_sim.Engine.queue_impl ->
  ?arena:bool ->
  ?batch:bool ->
  unit ->
  outcome
(** [run (module P) ~spec ~latency ~plan ~initial ()] — [spec.n] is the
    {e universe} (slot count; every slot gets an op stream, executed
    only while it is an active member), [initial] of which (slots
    [0..initial-1]) are members at time 0. The plan is validated
    against that membership; [Join]/[Leave] events drive the view.
    Corruption faults are armed automatically with
    {!Dsm_sim.Reliable_channel.corrupt_frame} as the mangle.

    Requires a complete-broadcast protocol (every write eventually
    applied everywhere, single-write messages): OptP, ANBKH or
    OptP-direct. Writing-semantics protocols cannot serve anti-entropy
    catch-up and fail loudly. Defaults: [checkpoint_every = 50.],
    [sync_rounds = 2] spaced [sync_interval = 100.] apart,
    [settle = true], [retransmit_after = 50.], [seed = 1].

    [?metrics] (default: the null registry) is threaded to the network
    and reliable channel and additionally receives the campaign's own
    series: [campaign_checkpoints], [campaign_checkpoint_bytes],
    [campaign_rollback_depth] (applies undone per restore),
    [campaign_replayed_writes], [campaign_sync_requests],
    [campaign_sync_replies], the [membership_*] view series and the
    [fd_*] detector series. Probes are pure observation: the campaign
    is byte-identical with and without them. [?wire]/[?recorder]/
    [?scrape_every] as in {!Sim_run.run}: the accountant prices channel
    frames over the campaign envelope, so anti-entropy traffic shows up
    under a "sync" cause and state transfers under "transfer"; the
    recorder runs to the later of the workload horizon and the last
    plan event.

    [?detector] switches the campaign to {e emergent} mode: no
    [Join]/[Leave] event may appear in the plan (crashes and partitions
    are the only scripted inputs) and {e every} view change is produced
    by the failure-detection pipeline instead — active slots gossip
    [Heartbeat] frames every [heartbeat_every] (suppressed towards
    peers that recently received other traffic; every delivered frame
    counts as liveness evidence), each slot runs a {!Failure_detector},
    and the first observer whose [phi] crosses the threshold marks the
    peer [Down]. A heartbeat originated after the suspicion refutes it
    and re-admits the slot through the crash-rejoin path (incarnation
    bump, sponsor delta transfer, group sync) — false positives are
    survivable by construction.

    [?sessions] drives a {!Session_tier} of lightweight client sessions
    on top of the replica set: each session routes reads and writes to
    a home replica chosen by its placement policy, carries its session
    vector on every request (handoff-on-migration), retries rejected
    operations with capped backoff, and resolves lost write replies by
    at-most-once probing. The re-attributed session-guarantee audit
    lands in {!outcome.sessions}; replica-side checking ([report],
    Theorem 4 accounting) is unchanged — session operations are
    ordinary protocol writes/reads at their serving replica.

    [?mixed] (default [false]) lifts the emergent-mode restriction and
    lets a detector run {e alongside} scripted [Join]/[Leave] events —
    the adversarial composition the {!Nemesis} driver exercises. A
    scripted join re-arms the joiner's detector clocks on both sides
    (otherwise its t=0-seeded silence would be suspected on the next
    accrual tick) and a scripted leave that loses a race with a
    suspicion is skipped with a recorded view reason.
    @raise Invalid_argument if [initial < 2] or [initial > spec.n], or
    the plan is invalid for that universe, or [?detector] is combined
    with a plan containing [Join]/[Leave] events without [~mixed:true]. *)

val catch_up_latency : catch_up -> float option

val pp_catch_up : Format.formatter -> catch_up -> unit
val pp_suspicion : Format.formatter -> suspicion -> unit
val pp_view_reason : Format.formatter -> int * float * string -> unit
val pp_outcome : Format.formatter -> outcome -> unit
