(** Delay provenance: from a recorded execution to causal trace spans
    and a per-delay explanation.

    The span view and the explanation are both {e derived} from the
    same {!Execution.t} the checker audits — nothing is measured twice,
    so the blocked slices in an exported trace match the checker's
    delay list by construction.

    The explanation joins two independent sources per delayed apply:

    - the {b protocol's own claim} — the [Blocked] event it recorded at
      buffering time, naming the predecessor dot its wakeup condition
      waits on;
    - the {b checker's ground truth} — the causal predecessors actually
      missing at receipt time, derived from [↦co] without trusting the
      protocol's clocks.

    When the two agree the delay is a witnessed necessary delay; a
    protocol claim outside the ground-truth set is {e false causality}
    made visible (ANBKH waits on its vector-clock entries whether or
    not [↦co] requires them). For OptP, Theorem 4 says every row is a
    necessary delay whose claimed dot is among the missing ones — the
    explanation is an executable witness of that statement. *)

val spans : Execution.t -> Dsm_obs.Span.collector
(** Replays the execution's events into a span collector: the issuer's
    local apply becomes the [Issue], remote receipts / blocked records /
    applies / skips become per-destination phases. *)

(** {1 Trace files} *)

type format = Jsonl | Chrome

val format_of_string : string -> format option
(** ["jsonl"] and ["chrome"] (case-insensitive). *)

val format_to_string : format -> string

val write_trace : format -> path:string -> Execution.t -> unit
(** Assembles {!spans} and writes the chosen rendering. The chrome
    variant uses the execution's process count and last event time (open
    blocked slices extend to the latter). *)

(** {1 Explain} *)

type delay_explanation = {
  eproc : int;  (** where the apply was delayed *)
  edot : Dsm_vclock.Dot.t;  (** the delayed write *)
  evar : int;  (** variable written, [-1] if unknown *)
  eclass : Checker.delay_class;
  ewaiting_for : Dsm_vclock.Dot.t option;
      (** the protocol's claim ([None]: no [Blocked] event — round-based
          protocols leave provenance unattributed) *)
  eblocking : Checker.range list;
      (** checker ground truth, as {!Checker.delay}'s ranges *)
  eblocked_at : float option;
  eapplied_at : float option;
  ewait : float option;  (** apply minus blocked, when both known *)
  eagrees : bool;
      (** the claim is among the ground-truth blockers (a necessary
          delay correctly attributed) *)
}

type explanation = {
  rows : delay_explanation list;  (** checker report order *)
  total : int;
  necessary : int;
  unnecessary : int;
  attributed : int;  (** rows with a protocol claim *)
  witnessed : int;  (** rows whose claim the checker confirms *)
}

val explain : Execution.t -> Checker.report -> explanation

val pp_explanation : Format.formatter -> explanation -> unit
(** One line per delay — the causal chain in words — plus a verdict
    footer. *)
