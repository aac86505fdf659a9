(** Schema-aware benchmark comparator: [dsm-sim bench diff OLD NEW].

    Both documents (any [causal-dsm-bench/v1] section file) are
    flattened to [(path, number)] pairs — ["sweep[0].ns_per_event"],
    ["overhead[1].overhead_pct"] — and every path present in both is
    compared under a direction inferred from its name:

    - {e lower is better}: segments mentioning [ns]/[ms]/[pct]/[bytes]/
      [latency]/[overhead]/[words]/[delays]/... — a regression when
      [new/old > fail_over];
    - {e higher is better}: [per_sec]/[throughput]/[speedup] — a
      regression when [old/new > fail_over];
    - {e info}: counts and identifiers ([n], [messages], [events]) —
      reported, never fatal.

    Paths present in only one document are listed but never fatal, so
    adding a metric to a bench section does not break CI against an old
    baseline. This replaces the former inline [awk]-threshold check in
    the workflow. *)

type direction = Lower_better | Higher_better | Info

type entry = {
  path : string;
  dir : direction;
  old_v : float;
  new_v : float;
  ratio : float option;
      (** worsening factor ([new/old] for lower-better, [old/new] for
          higher-better, [new/old] for info); [None] when the
          denominator is ~0 *)
  regressed : bool;
}

type t = {
  schema_old : string option;
  schema_new : string option;
  section_old : string option;
  section_new : string option;
  fail_over : float;
  entries : entry list;  (** shared paths, OLD-document order *)
  only_old : (string * float) list;
  only_new : (string * float) list;
}

val flatten : Dsm_stats.Json.t -> (string * float) list
(** Numeric leaves with dotted/indexed paths, document order. Array
    elements are keyed by their identifying fields when unique, and
    unlabeled elements are numbered {e among unlabeled elements only} —
    a section present in just one document surfaces as only-in-one
    (informational) instead of shifting later keys into false
    regressions. *)

val direction_of : string -> direction

val diff :
  ?fail_over:float ->
  old_doc:Dsm_stats.Json.t ->
  new_doc:Dsm_stats.Json.t ->
  unit ->
  t
(** Default [fail_over = 2.0] (fail when a metric worsens by more than
    2x). @raise Invalid_argument if [fail_over <= 1.0]. *)

val regressions : t -> entry list

val schema_mismatch : t -> (string * string) option
(** [Some (old, new)] when the [schema] (or failing that [section])
    fields disagree — a warning, not a failure. *)

val summary_table : ?all:bool -> t -> Dsm_stats.Table_fmt.t
(** By default info rows that did not regress are elided; [~all:true]
    shows every shared metric. *)

val pp : ?all:bool -> Format.formatter -> t -> unit
