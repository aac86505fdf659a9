(** Wire-cost accountant: byte-level price of every frame on the
    network, split into header / payload / causal-metadata, aggregated
    per (src,dst) edge, per frame kind ("cause"), and in total.

    A {!frame} describes a message's {e shape} — scalar fields, dots,
    causal vectors — and the accountant prices it under a fixed cost
    model (16 B header, 8 B per scalar, 12 B per dot, dense vector
    [4 + 8·size] B, plus a [2·size] B generation side lane only when
    the vector materializes one — slot reuse; generation-free vectors
    price exactly as before). The constants model a compact binary
    codec; the point is comparability across protocols and system
    sizes, not absolute bytes.

    The [delta_meta] column is a {e counterfactual}: what the causal
    metadata would cost under a delta-vs-last-sent-to-peer encoding
    ([4 + 12·changed] B per vector, baseline all-zeros), computed
    observationally against per-edge memory of the last vector sent.
    The protocol still sends dense frames and the RNG stream is
    untouched — same-seed runs are byte-identical with accounting on or
    off (pinned by the differential suite). *)

module V = Dsm_vclock.Vector_clock

type frame = { kind : string; scalars : int; dots : int; vectors : V.t list }
(** [kind] groups frames in per-cause aggregation ("write", "ack",
    "sync", ...); [scalars] counts fixed-size payload fields; [dots]
    counts dot-sized metadata entries; [vectors] lists the causal
    vectors carried. *)

val payload_bytes : frame -> int
val meta_bytes : frame -> int

val frame_bytes : frame -> int
(** [header + payload + meta] — the analytic sizer {!Dsm_sim.Network}
    uses for its [net_payload_bytes] counter when a measurer is
    installed (replacing [Marshal]-based sizing). *)

type t

val create : ?proto:string -> n:int -> unit -> t
(** Accountant for an [n]-process universe; [proto] is carried into
    exports. @raise Invalid_argument if [n <= 0]. *)

val null : unit -> t
(** Inert accountant: {!record} is a dead branch. *)

val enabled : t -> bool
val protocol : t -> string
val n : t -> int

val record : t -> src:int -> dst:int -> frame -> unit
(** Price one frame sent [src] → [dst]. Out-of-range endpoints are
    priced into the totals (delta = dense) but not into any edge.

    {b How a broadcast is priced.} A broadcast records one frame value
    on each of its [n - 1] edges ({!Dsm_sim.Network.broadcast} measures
    its payload once). The accountant remembers the last frame it
    priced, matched physically, with its dense sizes and, per vector
    position, the delta baseline its first edge met, the baseline it
    left and the delta price. An edge of that frame holding the same
    baseline array takes the price and the new baseline without
    comparing the vector again, so the edges of a broadcast end up
    sharing one baseline array, and the next broadcast from the same
    sender is compared once. A baseline that one edge owns (left by a
    unicast) is refreshed in place; a shared one is replaced by a
    fresh array, never written through. Every figure is the one a
    separate comparison per edge gives (test_wire keeps that pricer as
    a reference).

    The one contract this adds: a frame is the shape of a message, so
    its vectors must not change between records of the same frame
    value. A vector mutated between records of two frame values is
    priced as it stands. *)

(** {1 Aggregates} *)

type stats = {
  frames : int;
  header : int;
  payload : int;
  meta : int;
  delta_meta : int;  (** counterfactual delta-encoded metadata bytes *)
}

val totals : t -> stats
val frames : t -> int
val total_bytes : t -> int
(** Dense bytes on the wire: header + payload + meta. *)

val by_kind : t -> (string * stats) list
(** First-seen order. *)

val edges : t -> (int * int * stats) list
(** Edges with at least one frame, ordered by (src, dst). *)

val reset : t -> unit
(** Zero all aggregates and forget per-edge delta baselines. *)

(** {1 Export} *)

val to_json : ?max_edges:int -> t -> Dsm_stats.Json.t
(** Embeddable object. At most [max_edges] (default 64) edge rows are
    emitted; [edges_total] vs [edges_shown] records the truncation. *)

val summary_table : ?title:string -> t -> Dsm_stats.Table_fmt.t
val pp_summary : Format.formatter -> t -> unit
