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

    The protocol describes a message's situation with a {!status}
    oracle; the index never inspects payloads itself:

    - [Ready] — all enabling events have occurred; deliverable now.
    - [Wait_for {counter; count}] — blocked at least until the abstract
      counter [counter] reaches [count]. {b Contract:} [count] must be
      strictly greater than the counter's current value, and the caller
      must report {e every} [+1] advance of every counter through
      {!note_advance}. Protocols over an n-vector [Apply] use
      [counter = k]; the partial-replication matrix [Applied[y][t]]
      flattens to [counter = y·n + t].
    - [Stuck] — can never become deliverable (e.g. a duplicate whose
      sequence number the apply counter has already passed). The
      message is parked: it stays in the buffer (and in [length]), is
      never re-examined, and never returned — exactly the seed
      [Mailbox]'s behaviour of rescanning it fruitlessly forever,
      minus the rescans.

    Complexity: each message is re-evaluated only when a constraint it
    registered on fires. A message registers on at most [n + 1] distinct
    cells over its lifetime (each counter component at most once, the
    sender gap at most once), each evaluation is one O(n) status call,
    and an apply looks up one cell and re-routes the messages woken —
    O(1) amortized per delivered message, against the seed's O(b) per
    apply. An apply with no cell subscribed anywhere costs one length
    test.

    Representation: an entry per message ([id], payload, [alive]);
    a table of live entries keyed by id; one table of cells keyed by
    [(counter, count)], each holding its subscribers; and a ready
    queue of entries in id order, so a take needs no lookup by id.
    Both tables are [Hashtbl.Make] instances with integer hashes
    (the id itself; a multiplicative mix of counter and count), so no
    subscribe, wakeup or take goes through the polymorphic hash or
    compare. The cells of every counter share one table: a protocol's
    snapshot marshals its buffer with the rest of its state, and a
    table per counter would put a bucket array per counter into every
    snapshot. The index holds no closure, so it round-trips through
    [Marshal].

    Determinism: among simultaneously-ready messages, {!take_ready}
    always returns the {e oldest} (insertion order), matching the seed
    [Mailbox.take_first] discipline message-for-message — the
    differential suite in [test/test_differential.ml] holds the two
    implementations to byte-identical apply sequences. *)

type status =
  | Ready
  | Wait_for of { counter : int; count : int }
  | Stuck

type 'a t

val create : unit -> 'a t

val add : 'a t -> status -> 'a -> unit
(** [add t s x] inserts [x], routing it by [s], its status at receipt:
    ready messages queue for {!take_ready}, waiting messages subscribe
    to their cell, stuck messages are parked. The caller has just
    evaluated [s] to decide that [x] must wait, so the index does not
    evaluate the oracle again; that evaluation counts as the add's one
    {!oracle_calls}. *)

val take_ready : 'a t -> status:('a -> status) -> 'a option
(** Remove and return the oldest ready message, if any. Each candidate
    is re-validated with [status] before being returned (a duplicate
    can lose deliverability while queued); messages that re-block are
    re-subscribed, not lost. *)

val note_advance : 'a t -> status:('a -> status) -> counter:int -> count:int -> unit
(** [note_advance t ~status ~counter ~count] reports that [counter]
    just reached [count] (callers invoke it after every [+1] tick of a
    tracked counter). Wakes exactly the messages subscribed to
    [(counter, count)] and re-routes each by its new [status]. *)

val length : 'a t -> int
(** Number of buffered messages, parked ones included. O(1). *)

val is_empty : 'a t -> bool

val to_list : 'a t -> 'a list
(** All buffered messages, oldest first (insertion order). O(b log b);
    used only by slow paths (writing-semantics skip scans, debugging). *)

val remove_all : 'a t -> f:('a -> bool) -> 'a list
(** Remove every buffered message satisfying [f]; returns them oldest
    first. Subscriptions of removed messages are cancelled lazily. *)

val high_watermark : 'a t -> int
(** Largest occupancy ever observed. *)

val total_buffered : 'a t -> int
(** Total number of messages ever added (monotone counter). *)

val oracle_calls : 'a t -> int
(** Status-oracle evaluations performed so far (routing + take-time
    re-validation) — the index's "wakeup scans" metric, directly
    comparable to {!Mailbox.scans} for the rescan discipline. *)

val clear : 'a t -> unit
(** Drop all buffered messages; statistics counters are kept, matching
    [Mailbox.clear]. *)
