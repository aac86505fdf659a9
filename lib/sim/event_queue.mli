(** Timed event queue.

    A mutable priority queue of [(time, payload)] pairs. Events with
    equal timestamps fire in scheduling order (a monotonically
    increasing sequence number breaks ties), so a run of the simulator
    is fully deterministic.

    Two interchangeable implementations sit behind the {!S} seam,
    mirroring the [Delivery_buffer] seam of PR 1:

    - {!Indexed} (the default, included at top level): a flat
      int-indexed calendar queue (Brown 1988) over parallel growable
      arrays — unboxed [float] timestamps, [int] sequence numbers,
      payloads stored inline in a slot arena and dropped eagerly on
      [pop]/[clear]. Pending events hang off time-bucketed intrusive
      lists; schedule and pop are O(1) amortized (tail appends for
      in-order arrivals, a day-by-day cursor walk for pops). Steady-state
      operation allocates nothing: slots are recycled in place and the
      arrays only grow when the high-water mark of simultaneously
      pending events grows.
    - {!Heap}: the seed implementation — a persistent pairing heap of
      keys plus a payload side table — kept as the reference for
      differential testing. Any divergence in drain order between the
      two is a bug in the calendar.

    Both implementations drain any schedule in identical
    [(time, seq)] order; [test_event_queue] pins this property over
    random interleavings of pushes, pops and clears, and over
    hold-model schedules of thousands of events in flight.

    {2 The calendar's day width}

    An insert scans its day's bucket for its place, and a pop steps
    the cursor over empty days, so both walks cost what the day width
    gets wrong. The width follows the spacing of the events at the
    head of the queue: three times the mean gap between the distinct
    times of the earliest eighth of the pending events (Brown's rule).
    The head is where the cursor is and where every short delay lands.
    The span of the queue is the wrong guide: under a heavy-tailed
    delay (the lognormal latencies of a reordering network) a few
    events far out stretch the span, and a width derived from it
    crams hundreds of head events into one day.

    A rebucket re-derives the width from the head and resizes the
    bucket count to twice the pending events. It runs when the queue
    outgrows twice its bucket count, when it drains below an eighth of
    it, and when a walk has gone stale: the queue counts both walks
    ({!Indexed.insert_walk}, {!Indexed.cursor_walk}) in windows of
    more operations than it holds events and buckets, and a window of
    inserts or pops that averaged over four steps each ends in a
    rebucket. The width never changes the drain order, only the cost
    of reaching it. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t
  val schedule : 'a t -> at:Sim_time.t -> 'a -> unit

  val pop : 'a t -> (Sim_time.t * 'a) option
  (** Earliest event, removed; [None] on empty queue. Allocates the
      option and pair — the engine hot path uses {!next_time_exn} +
      {!pop_exn} instead. *)

  val next_time_exn : 'a t -> Sim_time.t
  (** Timestamp of the earliest event, not removed. Does not allocate.
      @raise Invalid_argument on an empty queue. *)

  val pop_exn : 'a t -> 'a
  (** Earliest event's payload, removed. Does not allocate (beyond what
      the implementation may shuffle internally — nothing, for
      {!Indexed}). @raise Invalid_argument on an empty queue. *)

  val peek_time : 'a t -> Sim_time.t option
  val size : 'a t -> int
  val is_empty : 'a t -> bool

  val clear : 'a t -> unit
  (** Empties the queue and releases every retained payload (the
      sequence counter survives, see {!scheduled_total}). *)

  val scheduled_total : 'a t -> int
  (** Total number of events ever scheduled (monotone counter, survives
      [clear]); useful for engine statistics. *)

  val retained_payloads : 'a t -> int
  (** Number of payloads the queue currently keeps alive. The
      steady-state-retention regression test pins this to be exactly
      the number of pending events: popped or cleared slots must not
      pin their payloads for the GC. *)

  val capacity : 'a t -> int
  (** Physical slots currently allocated (high-water mark of pending
      events, for {!Indexed}); observability for retention tests. *)
end

module Indexed : sig
  include S

  val next_time_unsafe : 'a t -> float
  (** Raw timestamp of the earliest event — the engine drain loop's
      fast path: no emptiness check (callers guard with {!is_empty})
      and, once inlined, no float boxing. Unspecified on an empty
      queue; never raises. *)

  val insert_walk : 'a t -> int
  (** Insertion-scan steps taken by every {!schedule} so far: the
      bucket entries an insert stepped past below its place (head and
      tail placements step over none; a rebucket's re-threading is not
      counted). Observability for tests, like {!capacity}. *)

  val cursor_walk : 'a t -> int
  (** Empty days the pop cursor has stepped over so far (a direct
      scan of every bucket head counts as one step per bucket). *)
end
(** Flat int-indexed calendar queue: unboxed [(time, seq)] keys point
    into a free-listed payload arena, so inserts and pops move only
    floats and ints and cross the GC write barrier exactly once per
    event (the payload store). *)

module Heap : S
(** The seed pairing-heap + payload side-table implementation, kept as
    the differential-testing reference. *)

include S with type 'a t = 'a Indexed.t
