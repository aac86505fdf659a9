(** The replica runtime every driver shares.

    Two layers, used by different sets of drivers:

    - {b the effect-to-event rule} ({!step}, {!receive}): how one
      protocol step becomes execution events. Every driver that runs a
      {!Dsm_core.Protocol.S} protocol — {!Sim_run}, {!Reliable_run},
      {!Scripted_run}, {!Churn_campaign}, {!Soak} — records through it;
      they and {!Partial_run} also share the drain-or-fail loop
      ({!drain}) and the flight-recorder schedule
      ({!schedule_scrapes}).
    - {b the durable host} ({!t}): the crash–recovery runtime under
      {!Churn_campaign} and {!Soak}. It owns, per slot, the protocol
      state, the durable image and the write log; the durable delivery
      path; the anti-entropy plane; catch-up episodes and delta state
      transfer; and the incarnation bump. Each layer is argued once
      here; the drivers keep only what differs between them (plan
      wiring and detector, or epochs, barriers and reclamation).

    {2 The recovery model}

    - {b Durable}: whatever {!Dsm_core.Protocol.S.snapshot} captures
      (for OptP: [Apply], [Write_co], [LastWriteOn], the store, the
      pending buffer), taken under the view width of the moment, plus
      the write log that feeds anti-entropy replies ({!commit}). The
      log is appended to: a commit writes only the bindings logged
      since the last one, and the first commit after a {!reset_log} or
      a {!reclaim_log} rewrites the whole table as a new base. Drivers
      commit after {e every local write} — so a write is durable before
      its broadcast leaves and no dot is ever reissued — and at their
      own checkpoints.
    - {b Volatile}: everything since the last commit. A {!crash}
      discards the staged execution events of that window (the run's
      record keeps exactly what the durable state can vouch for) and
      abandons the channel's retransmissions toward the corpse.
    - {b Recovery}: {!restore} rebuilds the state from the last commit
      and re-grows it to the current width (a slot that never committed
      starts empty, with an empty log); then the slot broadcasts its
      [Apply] vector in a [Sync_request] and peers answer with the
      original wire messages of every applied write the vector misses
      (per-issuer FIFO apply makes vector coverage exact: dot [(u,s)]
      is applied iff [Apply[u] >= s]). Replies replay through the
      {e normal} receive path, so the delivery buffer and the delay
      accounting are untouched — every replayed delay is {e necessary}
      by construction, and OptP keeps its Theorem-4 zero unnecessary
      delays across crashes.

    Anti-entropy never asks below the audit floor ({!t.floor}, raised
    by {!Soak} at each barrier, zeros on a campaign), and log keys
    resolve their generation through {!Membership.dot_gen} (always 0 on
    a campaign, where no slot is ever freed). *)

type ('p, 'm) protocol =
  (module Dsm_core.Protocol.S with type t = 'p and type msg = 'm)

(** {1 The effect-to-event rule} *)

val step :
  ('p, 'm) protocol ->
  record:(int -> Execution.kind -> unit) ->
  transmit:(int -> 'm Dsm_core.Protocol.outbound -> unit) ->
  int ->
  'm Dsm_core.Protocol.effects ->
  unit
(** [step p ~record ~transmit proc eff] records [eff] at [proc]: [Skip]
    events, then [Apply] events, then for each outbound message one
    [Send] per carried write before [transmit] sends it. Skips come
    first because a writing-semantics skip is the logical apply of the
    overwritten write just before its overwriter's. *)

val receive :
  ('p, 'm) protocol ->
  record:(int -> Execution.kind -> unit) ->
  transmit:(int -> 'm Dsm_core.Protocol.outbound -> unit) ->
  int ->
  'p ->
  src:int ->
  'm ->
  unit
(** [receive p ~record ~transmit proc t ~src msg] delivers [msg] to
    [t]: one [Receipt] per carried write, the protocol's receive, a
    [Blocked] per carried write when the receive buffered the message
    (naming the [waiting_for] dot of its effects), then {!step} on the
    effects. No delivery status is evaluated after the receive.
    Duplicates are recorded as receipts; only the durable host drops
    covered echoes. *)

val drain : Dsm_sim.Engine.t -> max_steps:int -> string -> unit
(** Run the engine to quiescence.
    @raise Failure ["<what> did not quiesce within <max_steps> events"]
    on the step bound. *)

val schedule_scrapes :
  Dsm_sim.Engine.t ->
  Dsm_obs.Timeseries.t ->
  every:float ->
  horizon:(unit -> float) ->
  unit
(** Scrape the recorder every [every] sim-time units up to [horizon ()]
    (asked only when the recorder is enabled). Scrapes are pure
    registry reads, so the run's outcome is unchanged. *)

val scrape_buffers : ('p, 'm) protocol -> Dsm_obs.Metrics.t -> 'p list -> unit
(** End-of-run totals of the delivery-buffer counters the protocols
    keep internally ([buffer_wakeup_scans], [buffer_total_buffered],
    [buffer_high_watermark]); a no-op on the null registry. *)

val ops_horizon : Dsm_workload.Spec.scheduled_op list array -> float
(** The latest issue time of a generated workload. *)

(** {1 The durable host} *)

type 'msg envelope =
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
(** The wire envelope. The first three constructors keep their order:
    the channel's checksums hash the constructor tag. *)

val network :
  ('p, 'm) protocol ->
  engine:Dsm_sim.Engine.t ->
  rng:Dsm_sim.Rng.t ->
  n:int ->
  latency:Dsm_sim.Latency.t ->
  faults:Dsm_sim.Network.faults ->
  ?metrics:Dsm_obs.Metrics.t ->
  wire:Dsm_obs.Wire.t ->
  unit ->
  'm envelope Dsm_sim.Reliable_channel.frame Dsm_sim.Network.t
(** The network under the host's channel: corruption armed with
    {!Dsm_sim.Reliable_channel.corrupt_frame}, and the accountant prices
    channel frames over the envelope — anti-entropy under a "sync"
    cause, transfers under "transfer", heartbeats as one scalar. *)

type catch_up_kind = Fresh_join | Rejoin | Recover

type catch_up = {
  cproc : int;
  ckind : catch_up_kind;
  started_at : float;
  crashed_at : float option;
  rolled_back : int;
  mutable transfer_writes : int;
  mutable transfer_gap : int;
  mutable transfer_bytes : int;
  mutable replayed : int;
  mutable target : int array option;
      (** componentwise max of the peer vectors heard in replies *)
  mutable converged_at : float option;
}
(** One slot's catch-up episode (see {!Churn_campaign.catch_up}). *)

type 'm durable
(** A slot's last commit: the config and protocol snapshot of the
    moment, and the write log as a base image plus the segments later
    commits appended ({!commit}). Only the host reads or writes it. *)

type ('p, 'm) slot = {
  id : int;
  mutable proto : 'p option;  (** [None] until the slot first joins *)
  mutable down : bool;
  mutable ever_crashed : bool;
  mutable leaving : bool;  (** flushing; still in the view *)
  durable : 'm durable;  (** the last commit *)
  mutable log : (Dsm_vclock.Dot.t, 'm) Hashtbl.t;
      (** every write message seen, by dot: what anti-entropy serves.
          Only the host replaces or prunes it ({!restore},
          {!reset_log}, {!reclaim_log}). *)
  mutable staged : (Dsm_sim.Sim_time.t * Execution.kind) list;
      (** events since the last commit, newest first *)
  mutable staged_count : int;
  mutable write_seq : int;
  mutable last_crash : float;
  mutable cur : catch_up option;  (** open episode, until converged *)
}

type ('p, 'm) internal

type ('p, 'm) t = {
  protocol : ('p, 'm) protocol;
  m : int;
  engine : Dsm_sim.Engine.t;
  network : 'm envelope Dsm_sim.Reliable_channel.frame Dsm_sim.Network.t;
  channel : 'm envelope Dsm_sim.Reliable_channel.t;
  membership : Membership.t;
  slots : ('p, 'm) slot array;
  floor : int array;
      (** the audit floor anti-entropy never asks below ({!Soak}
          raises it at each barrier) *)
  sync_rounds : int;
  sync_every : float;  (** catch-up round spacing *)
  mutable execution : Execution.t;  (** where commits record *)
  mutable width : int;  (** view width every live state is grown to *)
  mutable on_send : src:int -> dst:int -> unit;
      (** called before each send to an active member (not on sync
          requests) — the detector's piggyback clock *)
  mutable on_frame : dst:int -> src:int -> 'm envelope -> unit;
      (** called on each frame a live slot receives, before dispatch *)
  mutable catch_ups : catch_up list;  (** newest first *)
  mutable commits : int;
  mutable snapshot_bytes : int;
      (** what the commits wrote: each one's snapshot plus its log base
          or segment *)
  mutable rolled_back : int;  (** staged events discarded by crashes *)
  mutable aborted : int;  (** payloads abandoned by channel aborts *)
  mutable replayed_writes : int;
  mutable stale_dropped : int;  (** covered echoes dropped on arrival *)
  mutable sync_requests : int;
  mutable sync_replies : int;
  mutable transfer_bytes : int;
  internal : ('p, 'm) internal;
}

val create :
  ('p, 'm) protocol ->
  engine:Dsm_sim.Engine.t ->
  network:'m envelope Dsm_sim.Reliable_channel.frame Dsm_sim.Network.t ->
  channel:'m envelope Dsm_sim.Reliable_channel.t ->
  membership:Membership.t ->
  execution:Execution.t ->
  m:int ->
  width:int ->
  initial:(int -> 'p option) ->
  sync_rounds:int ->
  sync_every:float ->
  metrics:Dsm_obs.Metrics.t ->
  ('p, 'm) t
(** One slot per universe member, [initial id] its starting state.
    Points the network's membership oracle at [membership], installs
    the channel handlers (a frame reaches a slot only while it is up
    and has state) and registers [membership_transfer_bytes],
    [membership_join_latency] and the [campaign_*] durability and
    anti-entropy series in [metrics]. *)

val proto : ('p, 'm) slot -> 'p
(** @raise Invalid_argument on a slot with no state. *)

val applied : ('p, 'm) t -> ('p, 'm) slot -> Dsm_vclock.Vector_clock.t
val covered : ('p, 'm) t -> ('p, 'm) slot -> Dsm_vclock.Dot.t -> bool

val send : ('p, 'm) t -> src:int -> dst:int -> 'm envelope -> unit
(** To active members only; everyone else catches up on (re)entry. *)

val write :
  ('p, 'm) t -> ('p, 'm) slot -> var:int -> value:int -> Dsm_vclock.Dot.t
(** Issue a write, stage its events and broadcast it (uncommitted). *)

val read :
  ('p, 'm) t ->
  ('p, 'm) slot ->
  var:int ->
  Dsm_memory.Operation.value * Dsm_vclock.Dot.t option

val commit : ('p, 'm) t -> ('p, 'm) slot -> unit
(** Records the staged events and makes the slot durable: a fresh
    protocol snapshot, and the write log {e appended to}. The first
    commit after the log is created, reset or reclaimed encodes the
    whole table as a new base; every later one appends a segment of the
    bindings logged since the commit before, and nothing when there are
    none. [snapshot_bytes] and [campaign_checkpoint_bytes] count what
    each commit writes: the snapshot plus the base or the segment. *)

val restore : ('p, 'm) t -> ('p, 'm) slot -> int
(** Rebuilds the slot from its last commit: the snapshot, grown to the
    current width, and the log decoded from the base with the segments
    replayed in order — the committed table, with the same bindings in
    the same [Hashtbl.to_seq] order. Returns the applies the restore
    undid. *)

val reset_log : ('p, 'm) slot -> unit
(** Empties the slot's log and drops its durable state: a restore before
    the next commit starts empty, and that commit is a rebase. For a
    slot that starts over (a fresh joiner, a retired or adopted
    occupant). *)

val reclaim_log : ('p, 'm) slot -> below:int array -> int
(** Drops the log entries at or below [below] (a dot [(u,s)] goes when
    [s <= below.(u)]) and returns their count. When it drops any, the
    next commit is a rebase; until then a restore rebuilds the log as
    last committed, reclaimed entries included. *)

val crash : ('p, 'm) t -> ('p, 'm) slot -> unit
(** Marks the slot down, discards its staged window and open episode,
    and abandons the channel's retransmissions toward it. *)

val bump_incarnation : ('p, 'm) t -> int -> unit
(** A fresh incarnation: the network and the channel quarantine the
    previous life's frames, and the slot is reachable again. *)

val abort_peer : ('p, 'm) t -> int -> unit
val grow : ('p, 'm) t -> n:int -> unit
(** Widen the view to at least [n] slots and grow every live state. *)

val sync_request : ('p, 'm) t -> ('p, 'm) slot -> unit

val collect_since :
  ('p, 'm) t -> ('p, 'm) slot -> vec:int array -> int array * 'm list
(** The slot's applied vector and the logged messages of every write it
    applied beyond [vec] and the floor.
    @raise Invalid_argument when the log cannot re-supply one (a
    protocol outside the complete-broadcast class). *)

val catch_up : ('p, 'm) t -> ('p, 'm) slot -> unit
(** [sync_rounds] requests from the slot, [sync_every] apart, while it
    stays up and active. *)

val group_sync : ('p, 'm) t -> rounds:int -> ?except:int -> unit -> unit
(** [rounds] rounds, [sync_every] apart, in which every up active slot
    (but [except]) asks around: a rejoiner's pre-crash writes may have
    died quarantined on the wire, and only its log can re-supply them. *)

val start_catch_up :
  ('p, 'm) t ->
  ?crashed_at:float ->
  ?rolled_back:int ->
  ('p, 'm) slot ->
  catch_up_kind ->
  catch_up

val transfer : ('p, 'm) t -> catch_up -> ('p, 'm) slot -> unit
(** Delta state transfer to the joiner from its sponsor, the lowest-id
    other active member: the sponsor's log cut at the joiner's vector. *)
