(** Fidge–Mattern style vector clocks.

    A vector clock over [n] processes is an array of [n] non-negative
    counters. This module is the shared substrate for every logical-clock
    system in the repository: the classical happened-before clocks used
    by causal broadcast (ANBKH) and the paper's [Write_co] system, which
    is a vector clock characterizing the causal-memory order [↦co]
    (Theorems 1–2 of the paper).

    Values of type {!t} are mutable arrays; the functions below document
    whether they mutate their argument or return a fresh vector. *)

type t

(** {1 Construction} *)

val create : int -> t
(** [create n] is a fresh all-zero vector over [n] processes.
    @raise Invalid_argument if [n <= 0]. *)

val of_array : int array -> t
(** [of_array a] copies [a] into a fresh clock.
    @raise Invalid_argument if [a] is empty or has a negative entry. *)

val of_list : int list -> t
(** [of_list l] is [of_array (Array.of_list l)]. *)

val copy : t -> t
(** [copy v] is a fresh clock equal to [v]. *)

val grow : t -> int -> unit
(** [grow v n] widens [v] in place to [n] components, zero-padding the
    new entries. Every alias of [v] observes the new size. Used when the
    membership view widens (a process joins): a clock taken in an
    earlier, narrower epoch remains comparable because a process that
    had not joined yet had produced no events — its component is zero.
    No-op when [n = size v].
    @raise Invalid_argument if [n < size v] (clocks never shrink). *)

(** {1 Accessors} *)

val size : t -> int
(** Number of process components. *)

val get : t -> int -> int
(** [get v i] is component [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val get0 : t -> int -> int
(** [get0 v i] is component [i], reading 0 beyond [v]'s physical size —
    the implicit-zero convention for clocks captured in a narrower
    membership epoch. @raise Invalid_argument only if [i < 0]. *)

val unsafe_get : t -> int -> int
(** [get] without the bounds check. For protocol hot loops (the
    deliverability scan runs once per buffered-message examination)
    where the index is a process id already validated at creation or
    network-delivery time. Out-of-bounds access is undefined
    behaviour — never feed it unvalidated indices. *)

val unsafe_tick : t -> int -> unit
(** [tick] without the bounds check; same contract as {!unsafe_get}. *)

val first_exceeding :
  wanted:t -> applied:t -> skip:int -> from:int -> upto:int -> int
(** [first_exceeding ~wanted ~applied ~skip ~from ~upto] is the first
    component [k] in [[from, upto)], other than [skip], where
    [wanted[k] > applied[k]], or [max from upto] when there is none.

    The causal-wait kernel: the Figure 5 delivery test (and causal
    broadcast's) asks, for a buffered message, which component of its
    vector the receiver has not applied yet, resuming where the last
    evaluation stopped and leaving the sender's own component to a
    separate gap test. The loop lives here, over the raw component
    arrays, because a development build compiles every module with
    [-opaque]: a caller looping over {!unsafe_get} pays an out-of-line
    call per component, where this pays one per evaluation. Like
    {!unsafe_get} it reads without bounds checks: [upto] must not
    exceed the size of either vector. Generation lanes are not
    consulted. *)

val sync_into : t -> int array -> int
(** [sync_into v base] writes into [base] every component of [v] that
    differs from [base]'s entry at the same index, and returns how
    many did: the delta of [v] against [base], which then holds [v]'s
    components. The wire accountant's per-edge kernel, for the same
    reason as {!first_exceeding}. Entries of [base] past [size v] are
    left alone.
    @raise Invalid_argument if [base] is shorter than [size v]. *)

val to_array : t -> int array
(** Fresh array snapshot of the components. *)

val to_list : t -> int list

val sum : t -> int
(** Sum of all components — the number of events in the vector's causal
    past (counting multiplicity per process). *)

(** {1 Generations}

    Slot reuse extends each entry from a plain counter to a
    [(generation, counter)] pair: when a departed slot is recycled for a
    genuinely new process, the slot's generation is bumped so the new
    occupant's entries can never be confused with its predecessor's.
    Entries compare lexicographically — [(g, c) < (g', c')] iff
    [g < g'], or [g = g'] and [c < c'] (generation dominance). The lane
    is materialized lazily: while every generation is 0 the vector is
    represented exactly as before and all operations take the
    pre-generation dense path. *)

val gen : t -> int -> int
(** [gen v i] is the generation of entry [i]; 0 when no lane is
    materialized or beyond its physical size.
    @raise Invalid_argument if [i < 0]. *)

val set_gen : t -> int -> int -> unit
(** [set_gen v i g] assigns the generation of entry [i], materializing
    the lane on first nonzero assignment. Setting 0 on a lane-less
    vector is a no-op.
    @raise Invalid_argument on out-of-bounds index or negative value. *)

val has_generations : t -> bool
(** [has_generations v] is true iff some entry has a nonzero
    generation — the wire-cost model charges the gen side lane only
    in that case. *)

val generations : t -> int array
(** Fresh snapshot of the generation lane, zero-filled to [size v]. *)

(** {1 Mutation} *)

val set : t -> int -> int -> unit
(** [set v i k] assigns component [i].
    @raise Invalid_argument on out-of-bounds index or negative value. *)

val tick : t -> int -> unit
(** [tick v i] increments component [i] in place; this is what a process
    [p_i] does when it produces a new locally-counted event (a write, for
    [Write_co]). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] sets [dst] to the component-wise maximum of
    [dst] and [src] (in place). This is the read-time merge of OptP
    (line 1 of the read procedure) and the delivery-time merge of causal
    broadcast. If [src] is wider than [dst], [dst] is grown first;
    narrower [src] components beyond its size are implicit zeros.

    This is the {e scratch-merge} API of the allocation-free hot path:
    protocol receive and write steps merge wire vectors into their
    preallocated working vectors with it instead of building fresh
    merged copies. Under static membership it never allocates. *)

val copy_into : src:t -> t -> unit
(** [copy_into ~src dst] makes [dst] equal to [src] in place — the
    scratch counterpart of {!copy}. When [dst]'s physical capacity
    suffices it allocates nothing (wider scratch components are zeroed,
    preserving equality under the implicit-zero convention); a narrower
    [dst] is reallocated once and then stays wide. *)

(** {1 Pure operations} *)

val merge : t -> t -> t
(** [merge a b] is a fresh component-wise maximum. *)

val equal : t -> t -> bool

val leq : t -> t -> bool
(** [leq a b] is [∀k, a[k] ≤ b[k]] — the paper's [V ≤ V']. *)

val lt : t -> t -> bool
(** [lt a b] is [leq a b && not (equal a b)] — the paper's [V < V'],
    i.e. the clock order corresponding to [↦co] on writes (Theorem 1). *)

val concurrent : t -> t -> bool
(** [concurrent a b] is [not (lt a b) && not (lt b a)] for distinct
    vectors; equal vectors are not concurrent. The paper's [V ∥ V']. *)

type order = Equal | Before | After | Concurrent

val compare_partial : t -> t -> order
(** Full classification of the pair under the vector partial order. *)

val compare_total : t -> t -> int
(** An arbitrary total order extending [lt] (lexicographic); useful for
    deterministic sorting and for use as a [Map]/[Set] key. *)

(** {1 Pretty printing} *)

val pp : Format.formatter -> t -> unit
(** Prints as [[a; b; c]] — matching the paper's figures. *)

val to_string : t -> string
