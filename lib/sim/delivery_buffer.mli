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

    Both are driven through the same {!Delivery_index.oracle} and are
    observationally identical: same take order (oldest ready first),
    same occupancy statistics, same treatment of stuck messages. [Scan]
    simply ignores subscriptions and re-evaluates the oracle on every
    buffered message instead, always from a resume point of 0. *)

type status = Delivery_index.status = Ready | Wait | Stuck

type wait = Delivery_index.wait = {
  mutable resume : int;
  mutable counter : int;
  mutable count : int;
}

type ('s, 'm) oracle = 's -> src:int -> 'm -> wait -> status

module type S = sig
  type 'm t
  (** A buffer of messages, each with its source. *)

  val create : unit -> 'm t

  val wait : 'm t -> wait
  (** The record a receive evaluates its incoming message into. *)

  val add : 'm t -> status -> src:int -> 'm -> unit
  (** [add t s ~src m] buffers [m], whose status at receipt was [s]:
      the receive passes the status it has just computed into [wait t]
      instead of having the buffer evaluate the oracle again.
      {!Indexed} routes [m] by it and counts it as one oracle call;
      {!Scan} ignores it. *)

  val drain :
    'm t -> ('s, 'm) oracle -> 's -> apply:('s -> src:int -> 'm -> 'r) -> 'r list
  (** Apply the oldest ready message until none is ready. *)

  val note_advance :
    'm t -> ('s, 'm) oracle -> 's -> counter:int -> count:int -> unit

  val length : 'm t -> int
  val to_list : 'm t -> (int * 'm) list
  val remove_all : 'm t -> f:(int * 'm -> bool) -> (int * 'm) list
  val high_watermark : 'm t -> int
  val total_buffered : 'm t -> int

  val oracle_calls : 'm t -> int
  (** Status-oracle evaluations so far — "wakeup scans". For {!Scan}
      this counts the rescan predicate evaluations; for {!Indexed} the
      routing and take-time re-validations. The ratio of the two on the
      same run is the measured win of counter-indexed wakeups. *)
end

module Scan : S
module Indexed : S
