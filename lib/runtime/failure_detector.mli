(** Phi-accrual failure detection over gossip heartbeats.

    The paper's §3.1 model assumes reliable channels and a fixed
    process set; {!Membership} makes the set dynamic, but a plan's view
    changes are {e scripted}. This module supplies the reactive half:
    each active slot observes the arrival times of its peers' traffic —
    standalone [Heartbeat] frames, or any protocol frame piggybacking
    as liveness evidence — and accrues {e suspicion} from silence.

    The detector is the accrual style of Hayashibara et al. (as
    simplified in Cassandra): per peer, a sliding window of
    inter-arrival intervals estimates the arrival rate, and the
    suspicion level for a silence of [t] time units is

    {[  phi = t / (mu * ln 10)  ]}

    where [mu] is the smoothed window mean — i.e. [phi >= k] means the
    observed silence is [k] decades less likely than the expected
    inter-arrival under an exponential model. Over a {!Replica_host},
    the {e plane} below turns a threshold crossing into a suspicion the
    driver makes a membership [Down] transition; a heartbeat sent
    {e after} the suspicion refutes it, and the driver re-admits the
    slot through its crash-rejoin path (see {!Churn_campaign}).

    Determinism: the detector never reads a wall clock. Every [at] is
    the caller's {!Dsm_sim.Engine} virtual time, every computation is
    pure float arithmetic over it, and iteration order is fixed — two
    runs from the same seed produce byte-identical suspicion and view
    histories.

    Two guards keep the estimate sane under the simulator's bursty
    arrival patterns (retransmission floods after a heal compress
    intervals; piggybacked protocol traffic arrives much faster than
    the heartbeat period):
    - each recorded interval is clamped to
      [[heartbeat_every / 2, 4 * heartbeat_every]], so dense traffic
      cannot collapse [mu] to near zero and one partition-length gap
      cannot inflate it without bound;
    - [mu] is smoothed with the heartbeat period as a one-sample
      prior, so a peer that crashes before ever producing a full
      window is still eventually suspected.

    {b Adaptive per-peer thresholds.} A single global threshold forces
    a trade-off across heterogeneous links: tuned for a jittery WAN
    link it is sluggish on a quiet LAN link, tuned for the LAN link it
    false-suspects across the WAN. With [adaptive > 0] each peer's
    threshold is scaled by that link's own observed inter-arrival
    {e coefficient of variation} (cv = stddev / mean over the window):

    {[  effective_threshold(peer) = threshold * (1 + adaptive * cv)  ]}

    A metronomic link has cv ≈ 0 and keeps the base threshold (and so
    the base detection time); a noisy link earns headroom proportional
    to its measured noise. The interval clamp bounds cv, so the scaled
    threshold cannot run away. [adaptive = 0.] (the default) disables
    the scaling entirely and reproduces the fixed-threshold detector
    bit for bit. *)

type config = {
  threshold : float;  (** suspect when [phi] reaches this; decades *)
  heartbeat_every : float;  (** gossip period, virtual time units *)
  window : int;  (** inter-arrival samples kept per peer *)
  adaptive : float;
      (** per-peer threshold scaling gain; [0.] = fixed threshold *)
}

val config :
  ?threshold:float ->
  ?heartbeat_every:float ->
  ?window:int ->
  ?adaptive:float ->
  unit ->
  config
(** Defaults: [threshold = 3.], [heartbeat_every = 20.], [window = 16],
    [adaptive = 0.].
    @raise Invalid_argument unless [threshold > 0], [heartbeat_every]
    positive and finite, [window >= 2], and [adaptive] finite and
    non-negative. *)

type t
(** One observer's accrued evidence about every peer in the universe. *)

val create : config -> universe:int -> me:int -> t
(** No peer is monitored yet; the first {!observe} per peer only arms
    its clock (records no interval). *)

val observe : t -> peer:int -> at:float -> unit
(** Liveness evidence from [peer] arrived at [at]: push the (clamped)
    interval since the previous observation into the window. Evidence
    arriving out of order (at or before the previous observation) is
    ignored. Self-observations are ignored. *)

val forget : t -> peer:int -> unit
(** Drop everything known about [peer]. Used when a slot re-enters the
    view under a fresh incarnation: its previous life's arrival
    history must not poison the new estimate. *)

val last_heard : t -> peer:int -> float option

val mean_interval : t -> peer:int -> float
(** The smoothed [mu] (window mean with the heartbeat period as a
    one-sample prior); [heartbeat_every] when nothing was observed. *)

val interval_cv : t -> peer:int -> float
(** Sample coefficient of variation (stddev / mean) of [peer]'s held
    interval window; [0.] until at least two samples are held. Bounded
    by the interval clamp. *)

val effective_threshold : t -> peer:int -> float
(** [threshold * (1 + adaptive * interval_cv)] — the per-peer suspicion
    bar actually applied by {!suspicious}. Equal to [threshold] when
    [adaptive = 0.]. *)

val phi : t -> peer:int -> at:float -> float
(** Suspicion level for the silence [at - last_heard]; [0.] while no
    observation has armed the peer's clock, and never negative. *)

val suspicious : t -> peer:int -> at:float -> bool
(** [phi >= effective_threshold]. *)

val worst_case_silence : config -> float
(** [threshold * (1 + 2 * adaptive) * ln 10 * 4 * heartbeat_every]. The
    interval clamp bounds [mu] by [4 * heartbeat_every] and the cv
    below 2, so this long a silence after an armed peer's last arrival
    always drives [phi] to its {!effective_threshold}. *)

(** {1 The detector plane} *)

type suspicion = {
  speer : int;  (** who was suspected *)
  sobserver : int;  (** whose detector crossed the threshold *)
  sphi : float;
  sat : float;
  strue : bool;  (** the peer really was down at [sat] *)
  slatency : float option;  (** crash-to-suspicion latency, if [strue] *)
  mutable srefuted_at : float option;
      (** when a heartbeat sent after [sat] re-admitted the peer *)
}

type ('p, 'm) plane
(** One detector per slot of a host, with the per-pair clock of the
    last payload sent and each slot's suspicion time. *)

val plane :
  config option ->
  ('p, 'm) Replica_host.t ->
  metrics:Dsm_obs.Metrics.t ->
  on_suspect:(observer:int -> peer:int -> phi:float -> unit) ->
  on_refute:(peer:int -> witness:int -> sent:float -> unit) ->
  ('p, 'm) plane
(** Registers the [fd_*] series; with [None] the plane does nothing
    else. With a config it sets the host's [on_send] (the piggyback
    clock) and [on_frame] (every frame is evidence; a [Heartbeat] sent
    after its up sender's suspicion, while the sender is out of the
    view, calls [on_refute]). [on_suspect] marks the peer down; the
    plane then abandons the payloads queued toward it. *)

val start : ('p, 'm) plane -> horizon:float -> unit
(** Seeds every arrival clock at t=0; then every [heartbeat_every] each
    up member gossips a [Heartbeat] to each active peer it sent nothing
    to for a period, and each up active slot judges each active peer.
    Accrual stops at [horizon + worst_case_silence]; gossip runs longer,
    so a slot suspected at the last tick still refutes, and then the
    payloads toward slots still down are abandoned. *)

val rearm : ('p, 'm) plane -> peers:bool -> int -> unit
(** Fresh arrival clocks at the slot for every peer and, with [~peers],
    at every peer for the slot. *)

val readmit : ('p, 'm) plane -> int -> unit
(** Forget the slot's suspicion and {!rearm} it on both sides. *)

val heartbeats_sent : ('p, 'm) plane -> int
val false_suspicions : ('p, 'm) plane -> int
val refutations : ('p, 'm) plane -> int
val suspicions : ('p, 'm) plane -> suspicion list
(** Chronological. *)
