(** Simulated message-passing network.

    Models the paper's §3.1 system: [n] processes connected by reliable
    point-to-point channels — every message sent is delivered exactly
    once, no spurious messages, delays finite but arbitrary. Channels
    are {e not} FIFO by default (nothing in the paper requires it, and
    reordering is precisely what makes write delays appear); FIFO
    per-channel delivery can be switched on to study its effect.

    Beyond the probabilistic {!faults}, the network carries two pieces
    of {e injected-failure} state used by the crash–recovery harness:

    - {b partitions}: a cut link silently drops every transmission at
      send time (counted in {!messages_partition_dropped});
    - {b crash marks}: a message arriving at a process marked crashed is
      a counted silent drop ({!messages_crash_dropped}) — the frame
      reached a machine that is not running, which is a modelled fault,
      not an error.

    The network is generic in the message payload. Delivery invokes the
    destination's handler inside the engine, so a handler runs
    atomically at its delivery timestamp. *)

type 'a t

type 'a handler = src:int -> at:Sim_time.t -> 'a -> unit

type faults = {
  drop : float;  (** probability a transmission is lost *)
  duplicate : float;  (** probability a delivered message is delivered
                          twice (the copy takes an independent delay) *)
  corrupt : float;
      (** probability a delivered payload is mangled in transit (the
          caller's [~mangle] is applied to it); models bit-flips that a
          checksumming layer must catch *)
}

val no_faults : faults

exception No_handler of { dst : int; src : int; at : Sim_time.t }
(** Raised at delivery time when the destination has no handler
    installed; carries the destination, the sender and the simulated
    delivery timestamp. *)

val create :
  engine:Engine.t ->
  rng:Rng.t ->
  n:int ->
  latency:(src:int -> dst:int -> Latency.t) ->
  ?fifo:bool ->
  ?arena:bool ->
  ?faults:faults ->
  ?mangle:('a -> 'a) ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?wire:Dsm_obs.Wire.t ->
  ?measure:('a -> Dsm_obs.Wire.frame) ->
  ?sizer:('a -> int) ->
  unit ->
  'a t
(** [create ~engine ~rng ~n ~latency ()] builds an [n]-process network.
    Each ordered channel gets its own split RNG stream, so adding
    traffic on one channel does not perturb another channel's delays.

    [?metrics] (default: the null registry) receives [net_sends],
    [net_delivered],
    [net_dropped{cause=random|partition|crash|stale|nonmember|oneway|flap}],
    [net_delayed{cause=inflation}], [net_duplicated], [net_corrupted],
    [net_partition_cuts], [net_payload_bytes] and the
    [net_delivery_delay] quantile sketch (sampled transit delay of each
    scheduled delivery). Probes never touch RNG streams or the event
    schedule.

    [?wire] with [?measure] installs byte-cost accounting: every
    [send] — delivered or dropped; bytes leave the sender either way —
    prices [measure payload] into the accountant under
    its (src, dst) edge (see {!Dsm_obs.Wire}) — purely observational,
    the frame on the wire is unchanged. [?sizer] replaces the
    [net_payload_bytes] measurement (Marshal-encoded size when absent)
    with an analytic byte count; drivers pass
    [Dsm_obs.Wire.frame_bytes ∘ measure] so the counter agrees with the
    accountant and the hot path stops serializing every payload
    twice.

    Every envelope is one engine event at its delivery time, so
    same-instant deliveries run in send order, on one edge or across
    several. [?arena] (default [true]) routes envelopes through a flat
    slot arena: an in-flight message occupies a recycled slot whose
    delivery thunk is preallocated, so steady-state traffic allocates
    nothing per envelope. [~arena:false] restores the seed
    fresh-closure-per-message path — behaviourally identical (same
    engine events, same RNG consumption, same delivery order), kept as
    the reference for differential testing.

    [?mangle] is the corruption model: when the [corrupt] fault fires,
    the delivered payload is [mangle payload] instead of [payload]. The
    network is payload-generic, so it cannot flip bits itself; [create]
    rejects [corrupt > 0] without a [~mangle].

    With [?faults], the network no longer implements the paper's §3.1
    reliable-channel assumption: transmissions may be dropped or
    duplicated. The {!Reliable_channel} layer rebuilds exactly-once
    delivery on top (retransmission + acknowledgment + deduplication);
    running a protocol directly over a faulty network is how the
    failure-injection tests provoke checker violations.
    @raise Invalid_argument if [n <= 0] or a fault probability is
    outside [0,1]. *)

val n : 'a t -> int

val set_handler : 'a t -> int -> 'a handler -> unit
(** Installs the delivery handler of a process. Messages delivered to a
    process without a handler raise {!No_handler} at delivery time —
    unless the destination is marked crashed or the membership oracle
    ({!set_membership}) excludes it, in which case the delivery is a
    counted silent drop: only a missing handler on a live {e member} is
    a harness bug. *)

val set_membership : 'a t -> (int -> bool) -> unit
(** Installs the membership oracle consulted at delivery time: a frame
    reaching a slot for which the oracle returns [false] — one that
    raced a graceful leave, or was addressed to a never-joined slot —
    is a counted drop ([net_dropped{cause=nonmember}],
    {!messages_nonmember_dropped}), never a {!No_handler} crash.
    Default: every slot is a member (the static-membership model). *)

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Schedules delivery of one message at [now + latency(src,dst)].
    Sends over a cut link are silently dropped (and counted).
    Self-sends are rejected ([Invalid_argument]) — protocols apply their
    own writes locally, as in Figure 4 of the paper. *)

val broadcast : 'a t -> src:int -> 'a -> unit
(** [send] to every process but [src] (the paper's
    [send m to Π − p_i]). Per-destination latencies are independent.
    The wire accountant prices the one frame, measured once, on every
    edge. *)

(** {1 Partitions}

    Partition state is checked at {e send} time: a message in flight
    when the link is cut still arrives, a message sent while the link
    is cut is lost even if the link heals before its would-be delivery.
    This is the standard fail-cut model — the cable is unplugged, what
    was on the wire gets through. *)

val cut : 'a t -> a:int -> b:int -> unit
(** Cuts the link between [a] and [b], both directions. *)

val heal : 'a t -> a:int -> b:int -> unit
(** Heals the link between [a] and [b], both directions. *)

val is_cut : 'a t -> a:int -> b:int -> bool

val partition : 'a t -> int list list -> unit
(** [partition t groups] cuts every link between processes of distinct
    groups. Links inside a group — and links touching a process in no
    group — are left as they are.
    @raise Invalid_argument if a process appears in two groups. *)

val heal_all : 'a t -> unit
(** Heals every cut link — symmetric cuts, one-way cuts and flap
    episodes alike. *)

(** {1 Link-level faults (nemesis primitives)}

    Finer-grained adversarial link state, all checked at {e send} time
    like symmetric partitions (fail-cut model), each counted under its
    own cause label so a campaign can attribute every lost frame:

    - {b asymmetric cuts}: one direction of a link is unplugged while
      the reverse keeps working ([net_dropped{cause=oneway}]) — the
      classic half-open failure that symmetric [cut] cannot express;
    - {b flapping}: a link oscillates cut/healed on a fixed half-period
      until an expiry instant ([net_dropped{cause=flap}]). The state is
      a pure function of the simulation clock — no scheduled events and
      no RNG draws — so arming a flap cannot perturb anything else;
    - {b delay inflation}: a per-direction tail-latency spike
      multiplying the sampled delay by a factor [>= 1] until an expiry
      instant ([net_delayed{cause=inflation}]). The base delay is drawn
      from the channel RNG as usual, so the stream of random numbers is
      identical with or without the spike. *)

val cut_oneway : 'a t -> src:int -> dst:int -> unit
(** Cuts only the [src -> dst] direction; [dst -> src] is untouched. *)

val heal_oneway : 'a t -> src:int -> dst:int -> unit
val is_cut_oneway : 'a t -> src:int -> dst:int -> bool

val flap : 'a t -> a:int -> b:int -> period:float -> until_:float -> unit
(** [flap t ~a ~b ~period ~until_] arms a flap episode on the pair
    (both directions): starting now, the link is cut for [period] time
    units, healed for the next [period], and so on — cut first, so the
    fault is immediately visible — until the clock reaches [until_],
    after which the link is healed. Re-arming overwrites the previous
    episode; {!heal} or {!heal_all} cancels it.
    @raise Invalid_argument if [period] is not positive and finite. *)

val is_flap_cut : 'a t -> src:int -> dst:int -> bool
(** Whether an armed flap episode has the link cut at this instant. *)

val inflate : 'a t -> src:int -> dst:int -> factor:float -> until_:float -> unit
(** [inflate t ~src ~dst ~factor ~until_] multiplies every delay
    sampled for [src -> dst] by [factor] until the clock reaches
    [until_] (each inflated send counted in
    {!messages_delay_inflated}). Re-arming overwrites.
    @raise Invalid_argument if [factor < 1] or not finite. *)

(** {1 Crash-stop marks}

    The network does not crash processes — the fault-campaign driver
    does, by discarding their volatile state. Marking tells the network
    to turn deliveries to the process into counted silent drops until
    {!mark_recovered}. The check happens at {e delivery} time: a
    message in flight across the whole downtime is delivered to the
    recovered process. *)

val mark_crashed : 'a t -> int -> unit
val mark_recovered : 'a t -> int -> unit

(** {1 Incarnations and view epochs}

    Every transmission is a {e view-stamped envelope}: it captures the
    destination's incarnation number at send time. A process that
    rejoins after a crash does so under a bumped incarnation
    ({!bump_incarnation}); envelopes still in flight toward the old
    incarnation are counted stale drops at delivery
    ({!messages_stale_dropped}) — the machine they were addressed to no
    longer exists. Retransmission layers re-send under the fresh stamp.

    PR 2's plain crash/recover cycle never bumps incarnations, so
    static-membership campaigns behave exactly as before.

    The {e epoch} is the generation counter of the membership view,
    maintained by the driver ({!set_epoch}); it only advances. Old-epoch
    messages are still causally valid (views only grow), so epochs are
    not a drop criterion. *)

val bump_incarnation : 'a t -> int -> unit

val bump_generation : 'a t -> int -> unit
(** Slot-reuse layer of the staleness stamp: when a retired slot is
    recycled to a {e new} logical process, the driver bumps the slot's
    occupancy generation. Envelopes capture the destination's
    [(incarnation, generation)] pair at send; a delivery whose stamp
    mismatches on {e either} coordinate is a counted stale drop — the
    previous occupant's traffic can never reach the new one.
    Generation-0 slots (never reused) behave exactly as before. *)

val set_epoch : 'a t -> int -> unit
(** @raise Invalid_argument if the epoch would move backwards. *)

(** {1 Counters} *)

val messages_sent : 'a t -> int
val messages_delivered : 'a t -> int

val messages_dropped : 'a t -> int
val messages_duplicated : 'a t -> int

val messages_partition_dropped : 'a t -> int
(** Transmissions lost to a cut link. *)

val messages_crash_dropped : 'a t -> int
(** Deliveries lost to a crashed destination. *)

val messages_stale_dropped : 'a t -> int
(** Deliveries addressed to a superseded incarnation. *)

val messages_nonmember_dropped : 'a t -> int
(** Deliveries to a slot outside the membership view. *)

val messages_oneway_dropped : 'a t -> int
(** Transmissions lost to an asymmetric (one-way) cut. *)

val messages_flap_dropped : 'a t -> int
(** Transmissions lost to a flapping link's cut phase. *)

val messages_delay_inflated : 'a t -> int
(** Transmissions whose delay was multiplied by an armed inflation
    spike (delivered late, not lost). *)

val messages_corrupted : 'a t -> int
(** Payloads mangled in transit by the [corrupt] fault. *)

val in_flight : 'a t -> int
(** Messages sent and neither delivered nor dropped (duplicate copies
    still in transit are not counted). *)
