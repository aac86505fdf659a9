(** Ground-truth [Write_co] timestamps, computed from the history alone.

    {!Causal_order} computes [↦co] exactly but needs O(ops²) space.
    This module exploits the paper's own result — [Write_co]
    characterizes [↦co] (Theorems 1–2) — to provide an O(ops·n)
    alternative: it {e re-derives} the vector of every write (and the
    causal-past vector of every read) directly from the history's
    process order and read-from edges, with no protocol involved. The
    checker uses it to audit arbitrarily large runs; the test-suite
    cross-validates it against the dense {!Causal_order} on small
    histories.

    Component [j] of a write's vector is the sequence number of the
    last write of [p_j] in its causal past (including itself for the
    issuer component) — so, by Corollary 1,
    [w' ↦co w  ⟺  seq w' ≤ (vector w).(replica w')] for [w' ≠ w]. *)

type t

val compute : ?floor:Dsm_vclock.Vector_clock.t -> History.t -> t
(** @raise Invalid_argument if the history fails {!History.validate}
    or its read-from edges are cyclic. *)

val history : t -> History.t

val of_write : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Vector_clock.t
(** A fresh copy of the write's vector.
    @raise Not_found for a dot that is not a write of the history. *)

val of_read : t -> proc:int -> slot:int -> Dsm_vclock.Vector_clock.t
(** A fresh copy of a read's causal-past vector: component [j] counts
    the writes of [p_j] that causally precede the read.
    @raise Not_found for an absent read. *)

(** {1 Dense write index}

    The history's writes are numbered [0 .. n_writes - 1] in history
    order: issuer ascending, then sequence number. Issuer [j]'s writes
    carry consecutive sequence numbers from the floor up, so they fill
    the indices [issuer_offset t j .. issuer_offset t (j + 1) - 1], and
    write [s] of [p_j] sits at [position t j s]. A (slot, seq) pair
    names one write across generations, so per-write tables can be
    arrays over this index. *)

val n_writes : t -> int

val write_at : t -> int -> Operation.write
(** The write at an index. *)

val index : t -> Dsm_vclock.Dot.t -> int
(** The index of a write of the history, generation included; [-1] for
    any other dot. *)

val index_parts : t -> replica:int -> gen:int -> seq:int -> int
(** [index] of the dot [(replica, gen, seq)], without the dot: [-1]
    when no write of the history has these parts, a negative replica
    included. *)

val issuer_offset : t -> int -> int
(** [issuer_offset t j] is the index of [p_j]'s first write, for [j] in
    [0 .. n]; [issuer_offset t n = n_writes t]. *)

val position : t -> int -> int -> int
(** [position t j s] is where write [s] of [p_j] sits, or would sit:
    it lies in [p_j]'s indices iff [p_j] wrote [s] in the history, and
    [position t j (s + 1) = position t j s + 1]. *)

(** {1 Views}

    Vectors are stored by write index and, for reads, per process by
    read slot, so a lookup is O(1). A view is the stored vector itself,
    read-only: the audit loops read one per event without copying it. *)

type view

val view_at : t -> int -> view
(** The vector of the write at an index. *)

val write_view : t -> Dsm_vclock.Dot.t -> view
(** As {!of_write}, without the copy.
    @raise Not_found for a dot that is not a write of the history. *)

val read_view : t -> proc:int -> slot:int -> view
(** As {!of_read}, without the copy.
    @raise Not_found for an absent read. *)

val get : view -> int -> int
(** Component [j] of a view.
    @raise Invalid_argument if [j] is out of bounds. *)

val write_precedes : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Dot.t -> bool
(** [w ↦co w'] via Corollary 1. O(1).
    @raise Not_found if either write is absent. *)

val write_concurrent : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Dot.t -> bool

val write_precedes_read :
  t -> Dsm_vclock.Dot.t -> proc:int -> slot:int -> bool
(** [w ↦co r]. *)
