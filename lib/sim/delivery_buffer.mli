(** Pluggable delivery-buffer strategy for class-[𝒫] protocols.

    Every protocol in the repository buffers early write messages and
    releases them when its apply counters catch up. This module
    abstracts {e how} the buffer finds releasable messages, so each
    protocol can be instantiated against either implementation:

    - {!Scan} — the seed discipline: a plain {!Mailbox}, rescanned
      oldest-first after every apply. O(b) per apply; kept as the
      executable reference implementation for differential testing.
    - {!Indexed} — the {!Delivery_index}: counter-indexed wakeups,
      O(1) amortized per delivered message.

    Both are driven through the same {!Delivery_index.status} oracle
    and are observationally identical: same take order (oldest ready
    first), same occupancy statistics, same treatment of stuck
    messages. [Scan] simply ignores subscriptions and re-evaluates the
    oracle on every buffered message instead. *)

type status = Delivery_index.status =
  | Ready
  | Wait_for of { counter : int; count : int }
  | Stuck

module type S = sig
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> status -> 'a -> unit
  (** [add t s x] buffers [x], whose status at receipt was [s]: the
      receive that decided [x] must wait passes the status it has just
      computed instead of having the buffer evaluate the oracle again.
      {!Indexed} routes [x] by [s] and counts it as one oracle call;
      {!Scan} ignores it. *)

  val take_ready : 'a t -> status:('a -> status) -> 'a option
  val note_advance :
    'a t -> status:('a -> status) -> counter:int -> count:int -> unit

  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val to_list : 'a t -> 'a list
  val remove_all : 'a t -> f:('a -> bool) -> 'a list
  val high_watermark : 'a t -> int
  val total_buffered : 'a t -> int

  val oracle_calls : 'a t -> int
  (** Status-oracle evaluations so far — "wakeup scans". For {!Scan}
      this counts the rescan predicate evaluations; for {!Indexed} the
      routing and take-time re-validations. The ratio of the two on the
      same run is the measured win of counter-indexed wakeups. *)

  val clear : 'a t -> unit
end

module Scan : S
module Indexed : S
