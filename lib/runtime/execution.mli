(** Recorded protocol runs.

    An execution is the sequence [E_i] of events at each process,
    §3.2's vocabulary: [send], [receipt], [apply], [return] — plus
    [skip] for writing-semantics protocols. Drivers record events as
    the simulation progresses; the {!Checker} and the experiment
    reports read them afterwards.

    Event order within a process is the paper's [<_i]; it is the
    recording order, which the engine guarantees is timestamp-ordered.

    {b Layout and cost.} Each process keeps its events as fixed-width
    rows: a tag byte, an unboxed time and six ints (the dot fields,
    var, src or value, the delayed flag or the waiting-for dot). Rows
    live in byte chunks of 256 that are never copied once full and
    that the GC never scans; only a process's first chunk grows,
    doubling from 16 rows, so a small run stays small. One more column
    holds the process of each event in global order. An event takes
    about 66 bytes, where a boxed event record took about 149.

    - {!record} allocates nothing per event, and counts each event by
      kind as it records it, so the counts read no row.
    - The positions and times read the rows in place.
    - {!events} and {!events_of} decode fresh records on every call:
      they serve reports, the CLI and tests.
    - {!iter} decodes one event at a time and keeps none, so a
      whole-log pass over a large run allocates only short-lived
      values.
    - {!Row} reads a row's tag and fields in place and decodes
      nothing: a whole-log pass that needs only some fields of some
      events allocates nothing per event. The checker's audit reads
      its events this way. *)

type kind =
  | Send of { dot : Dsm_vclock.Dot.t; var : int; value : int }
      (** start of propagation of a write (once per write; a token
          batch yields one [Send] per item at flush time) *)
  | Receipt of { dot : Dsm_vclock.Dot.t; src : int }
  | Blocked of { dot : Dsm_vclock.Dot.t; waiting_for : Dsm_vclock.Dot.t }
      (** the write entered the delivery buffer; [waiting_for] is the
          wakeup constraint — the causal predecessor whose apply the
          protocol is waiting on (delay provenance, Definition 3) *)
  | Apply of {
      dot : Dsm_vclock.Dot.t;
      var : int;
      value : int;
      delayed : bool;  (** applied from the buffer — suffered a delay *)
    }
  | Skip of { dot : Dsm_vclock.Dot.t }
      (** the write was logically overwritten here, never applied *)
  | Return of {
      var : int;
      value : Dsm_memory.Operation.value;
      read_from : Dsm_vclock.Dot.t option;
    }

type event = { proc : int; time : Dsm_sim.Sim_time.t; kind : kind }

type t

val create : n:int -> m:int -> unit -> t

val n_processes : t -> int
val n_variables : t -> int

val record : t -> proc:int -> time:Dsm_sim.Sim_time.t -> kind -> unit
(** @raise Invalid_argument on bad process id. *)

val events : t -> event list
(** Global recording order (timestamp order). *)

val events_of : t -> int -> event list
(** The sequence [E_i] of one process. *)

val iter : (event -> unit) -> t -> unit
(** [events] without the list: every event in global order. *)

(** Rows read in place. Row [i] of a process's log is event [i] of its
    [E_i], and a field is meaningful only for the tags that carry it;
    read {!tag} first. *)
module Row : sig
  type tag = Send | Receipt | Blocked | Apply | Skip | Return
      (** the kind of the row's event *)

  type log
  (** The rows of one process. *)

  val log : t -> int -> log
  (** @raise Invalid_argument on bad process id. *)

  val length : log -> int
  val tag : log -> int -> tag

  val replica : log -> int -> int
  val gen : log -> int -> int
  val seq : log -> int -> int
  (** The parts of the row's dot: the write of a [Send], [Receipt],
      [Blocked], [Apply] or [Skip]; a [Return]'s read-from, whose
      replica is [-1] when it is [None]. *)

  val dot : log -> int -> Dsm_vclock.Dot.t
  (** The row's dot, decoded. *)

  val var : log -> int -> int
  (** The variable of a [Send], [Apply] or [Return]. *)

  val value : log -> int -> int
  (** The value of a [Send] or [Apply]. *)

  val delayed : log -> int -> bool
  (** Whether an [Apply] was delayed. *)

  val iter : (int -> log -> int -> unit) -> t -> unit
  (** [iter f t] calls [f proc log i] for every row, in global order. *)
end

val event_count : t -> int

(** {1 Queries used by the checker and reports} *)

val apply_order : t -> int -> Dsm_vclock.Dot.t list
(** Dots applied at a process, in apply order. *)

val apply_position : t -> proc:int -> dot:Dsm_vclock.Dot.t -> int option
(** Index (within [events_of proc]) of the first apply of [dot]. *)

val receipt_position : t -> proc:int -> dot:Dsm_vclock.Dot.t -> int option

val apply_time : t -> proc:int -> dot:Dsm_vclock.Dot.t -> Dsm_sim.Sim_time.t option
val receipt_time : t -> proc:int -> dot:Dsm_vclock.Dot.t -> Dsm_sim.Sim_time.t option

val delayed_applies : t -> (int * Dsm_vclock.Dot.t) list
(** All [(proc, dot)] whose apply was delayed. *)

val delay_count : t -> int
val delay_count_at : t -> int -> int

val blocked_count : t -> int
val skip_count : t -> int
val apply_count : t -> int
(** The counts are kept as events are recorded: each read is O(1). *)

val writes : t -> (Dsm_vclock.Dot.t * int * int) list
(** All writes issued in the run, as [(dot, var, value)], from the local
    applies at their issuers; deterministic order (issuer, then seq). *)

val to_history :
  ?floor:Dsm_vclock.Vector_clock.t -> t -> Dsm_memory.History.t
(** Reconstructs the abstract history [Ĥ]: per process, its writes (the
    applies at the issuer) and reads (the returns) in process order.
    @raise Invalid_argument if a process's own-write applies are not in
    dot-sequence order (would indicate a broken driver). *)

val pp_event : Format.formatter -> event -> unit
val pp_process : t -> int -> Format.formatter -> unit -> unit
(** One process's event sequence in the style of the paper's Figures
    1–2: [receipt_3(w2(x2)b) <3 apply_3(...) <3 ...]. *)

val apply_latencies : t -> float list
(** Receipt→apply latency of every remote apply that has a matching
    receipt, in time units; immediate applies contribute 0. Single pass. *)
