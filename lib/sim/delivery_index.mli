(** Counter-indexed delivery buffer: O(1) amortized wakeups.

    The seed {!Mailbox} rediscovers deliverability by rescanning the
    whole buffer after every apply (O(b) per apply, O(b²) per cascade).
    But the wait condition of the paper's Figure 5 — and of every
    protocol in the class [𝒫] — has a very particular shape: a buffered
    write is blocked on a {e specific} per-process counter reaching a
    {e specific} value (either the sender-sequence gap
    [Apply[u] = W[u] − 1] or a cross-process component
    [W[t] ≤ Apply[t]]). Counters only ever advance by [+1] steps, so a
    blocked message can subscribe to the single [(counter, count)] cell
    it is waiting on, and an apply that advances a counter to [c]
    re-examines {e only} the messages subscribed to exactly [(counter,
    c)] — no scan of the rest of the buffer.

    The protocol describes a message's situation with an {!oracle};
    the index never inspects payloads itself:

    - [Ready] — all enabling events have occurred; deliverable now.
    - [Wait] — blocked at least until the abstract counter [w.counter]
      reaches [w.count]. {b Contract:} [count] must be strictly greater
      than the counter's current value, and the caller must report
      {e every} [+1] advance of every counter through {!note_advance}. Protocols over an n-vector [Apply] use
      [counter = k]; the partial-replication matrix [Applied[y][t]]
      flattens to [counter = y·n + t].
    - [Stuck] — can never become deliverable (e.g. a duplicate whose
      sequence number the apply counter has already passed). The
      message is parked: it stays in the buffer (and in [length]), is
      never re-examined, and never returned — exactly the seed
      [Mailbox]'s behaviour of rescanning it fruitlessly forever,
      minus the rescans.

    {b Resume point.} Each message keeps the [w.resume] its last
    evaluation left and hands it to the next. OptP, ANBKH and OptP-WS
    store where their wait scan stopped ([Protocol.vector_wait]),
    so a message's scans cost O(n) over its whole stay, not O(n) per
    wakeup, and the take-time re-validation of a message found ready
    is a sender-gap test.

    Complexity: a message registers on at most [n + 1] distinct cells
    over its lifetime (each counter component at most once, the sender
    gap at most once), and an apply looks up one cell and re-routes the
    messages woken — O(1) amortized per delivered message, against the
    seed's O(b) per apply.

    Representation: one record per buffered message (source, payload,
    insertion number, resume point, the count it waits for, and a link
    that ends in a constant constructor, so linking allocates nothing). Through its link a
    buffered message is in exactly one chain: its cell's subscribers,
    the ready queue (insertion order) or the parked list. A take drops
    its message from the ready queue, after which the index no longer
    reaches it; {!to_list} gathers the chains and sorts them. The cells
    are an array indexed by counter of chains sorted by count: a
    subscribe walks its counter's chain to its place, a wakeup cuts the
    chain's head, and neither allocates. The oracle is passed per call with the
    state it reads, so no operation builds a closure and the index,
    holding none, round-trips through [Marshal].

    Determinism: among simultaneously-ready messages, {!drain} takes the
    {e oldest} (insertion order), matching the seed [Mailbox.take_first]
    discipline message-for-message — the differential suite in
    [test/test_differential.ml] holds the two implementations to
    byte-identical apply sequences. *)

type status = Ready | Wait | Stuck

type wait = {
  mutable resume : int;
      (** in: where the message's last evaluation stopped (0 at first);
          out: where this one stopped *)
  mutable counter : int;  (** out, on [Wait] *)
  mutable count : int;  (** out, on [Wait] *)
}

type ('s, 'm) oracle = 's -> src:int -> 'm -> wait -> status
(** [oracle s ~src m w]: the status of [m] from [src] under the
    protocol state [s]; read-only on [s]. *)

type 'm t

val create : unit -> 'm t

val wait : 'm t -> wait
(** The working record a receive evaluates its incoming message into,
    [resume] set to 0, before {!add}. *)

val add : 'm t -> status -> src:int -> 'm -> unit
(** [add t s ~src m] buffers [m], routed by [s], its status at receipt,
    and by what that evaluation left in [wait t]: ready messages queue,
    waiting ones subscribe to their cell, stuck ones are parked. That
    evaluation counts as the add's one {!oracle_calls}. *)

val drain :
  'm t -> ('s, 'm) oracle -> 's -> apply:('s -> src:int -> 'm -> 'r) -> 'r list
(** Take the oldest ready message and [apply] it until none is ready;
    [apply]'s results in take order. A candidate is re-validated before
    it is taken (a duplicate can go stuck while queued); one that
    re-blocks is re-subscribed. [apply] may {!note_advance}: the
    messages that wakes are taken in the same drain. *)

val note_advance :
  'm t -> ('s, 'm) oracle -> 's -> counter:int -> count:int -> unit
(** [counter] just reached [count] (report every [+1] tick): wakes the
    messages subscribed to [(counter, count)], and to any lower count of
    [counter], and re-routes each by its new status. *)

val length : 'm t -> int
(** Number of buffered messages, parked ones included. O(1). *)

val is_empty : 'm t -> bool

val to_list : 'm t -> (int * 'm) list
(** All buffered messages with their sources, oldest first. O(b log b);
    used only by slow paths (writing-semantics skip scans, debugging). *)

val remove_all : 'm t -> f:(int * 'm -> bool) -> (int * 'm) list
(** Remove every buffered message satisfying [f]; returns them oldest
    first. Subscriptions of removed messages are cancelled lazily. *)

val high_watermark : 'm t -> int
(** Largest occupancy ever observed. *)

val total_buffered : 'm t -> int
(** Total number of messages ever added (monotone counter). *)

val oracle_calls : 'm t -> int
(** Status-oracle evaluations performed so far (routing + take-time
    re-validation) — the index's "wakeup scans" metric, directly
    comparable to {!Mailbox.scans} for the rescan discipline. *)

val clear : 'm t -> unit
(** Drop all buffered messages; statistics counters are kept, matching
    [Mailbox.clear]. *)
