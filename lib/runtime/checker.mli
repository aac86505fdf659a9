(** Protocol-independent run auditor.

    Takes a recorded {!Execution.t}, reconstructs the abstract history,
    re-derives the ground-truth causal order ([↦co]) with
    {!Dsm_memory.Write_vectors} — never trusting the protocol's own
    clocks — and checks each of the paper's properties:

    - {b safety} (§3.4): at every process, a write is applied only
      after every write of its causal past has been applied (or
      logically applied by a writing-semantics skip);
    - {b legality / causal consistency} (Definitions 1–2): every read
      returns the most recent causally preceding write on its variable;
    - {b delay accounting} (Definition 3): which applies were delayed,
      and — the optimality question — whether each delay was
      {e necessary} (some causal predecessor genuinely missing at
      receipt time) or {e unnecessary} ("false causality": everything
      needed was already applied, the protocol was just
      over-conservative). Theorem 4 says OptP's unnecessary count is
      identically 0; the tests enforce exactly that;
    - {b completeness} (class 𝒫 membership, §3.2): every write is
      applied at every process — writing-semantics protocols fail this
      by design, with each miss accounted as a skip or a lost write.

    {b Cost.} With full replication (no [?replication]) the audit
    costs at most O(n) per event for [n] processes, times a logarithmic
    factor from binary searches over the [w] writes where noted. It
    reads each event's row in place ({!Execution.Row}).
    - An apply checks safety only on the components where its write's
      vector exceeds the vector of its issuer's previous write, when
      that write was applied here and its own check reported nothing:
      the applied counts only grow, so every other component still
      holds. Otherwise, and for an issuer's first write, it checks all
      [n]. The table of grown components is built once per audit, in
      O(n·w).
    - A delayed apply is classified by a scan of the issuers that stops
      at the first one whose needed writes were not all covered at
      receipt. The delay keeps its receipt position, and {!blocking}
      rebuilds its ranges on demand, by binary search, from per-process
      coverage positions that the report keeps.
    - A read finds, per issuer, its last write on the variable inside
      the read's past by binary search and walks down from it while the
      writes are causally interposed: one test per issuer, plus one per
      violation reported.

    Per-write state lives in arrays over the dense write index of
    {!Dsm_memory.Write_vectors}, sized from the run, and vectors are
    read in place. The partial-replication audit stays O(w) per apply
    and builds each delay's ranges when it classifies it. *)

type violation =
  | Safety of {
      proc : int;
      applied : Dsm_vclock.Dot.t;
      missing : Dsm_vclock.Dot.t;
          (** in the causal past of [applied], not yet applied *)
    }
  | Illegal_read of { proc : int; detail : string }
  | Immediate_apply_marked_delayed of {
      proc : int;
      dot : Dsm_vclock.Dot.t;
    }
      (** bookkeeping bug: flagged delayed but applied at its receipt *)

type delay_class = Necessary | Unnecessary

type range = { issuer : int; gen : int; first : int; last : int }
(** The writes [first..last] (sequence numbers, inclusive) of slot
    [issuer], named as dots of occupant generation [gen]. *)

type basis
(** What {!blocking} reads a delay's ranges from. *)

(** A delayed apply, as {!check} found it; only the audit makes one. *)
type delay = private {
  dproc : int;
  ddot : Dsm_vclock.Dot.t;
  dclass : delay_class;
  dreceipt : int;
      (** the position in [dproc]'s event sequence of the write's last
          receipt before the delayed apply *)
  dbasis : basis;
}

val blocking : delay -> range list
(** The delay's causal predecessors missing at receipt time (empty iff
    [Unnecessary]). With full replication, at most one range per
    issuer, issuers ascending: the run from the receipt-time count + 1
    up to what the write needs from that issuer, named at generation 0
    like {!Safety}'s [missing]. These are rebuilt on each call, by one
    binary search per blocking issuer, from the coverage positions the
    report keeps. With partial replication, one single-write range per
    missing write, in reverse history order, kept from the audit. *)

val blocking_dots : range list -> Dsm_vclock.Dot.t list
(** The ranges expanded into dots, sequence numbers descending within
    each range: for a full-replication delay, issuer ascending then seq
    descending. *)

type report = {
  total_applies : int;
  total_delays : int;
  necessary_delays : int;
  unnecessary_delays : int;
  delays : delay list;
  delays_per_proc : int array;
  violations : violation list;
  complete : bool;  (** class-𝒫 completeness *)
  missing : (int * Dsm_vclock.Dot.t) list;
      (** (proc, write) never applied there: skips and losses *)
  lost : (int * Dsm_vclock.Dot.t) list;
      (** the subset of [missing] with no skip event either — writes
          that simply never arrived at their destination state, i.e. a
          liveness failure of the protocol or driver *)
  skipped : int;
}

val check :
  ?replication:(proc:int -> var:int -> bool) ->
  ?expected:(proc:int -> dot:Dsm_vclock.Dot.t -> bool) ->
  ?floor:Dsm_vclock.Vector_clock.t ->
  Execution.t ->
  report
(** [?replication] switches on partial-replication auditing: a process
    is only expected to apply writes on locations it replicates, safety
    requires only the {e replicated} part of a write's causal past to
    be applied first, and delay classification counts only replicated
    predecessors as blocking. Omitted = full replication (the paper's
    model).

    [?expected] switches on membership-aware completeness: process
    [proc] owes an apply of write [dot] only when the predicate holds.
    Churn drivers pass the final membership view — a process that left
    the view (or a write issued after a process departed) is excused
    from the completeness audit, while {e safety} and read-legality
    remain unconditional per process across every epoch: no filter ever
    excuses applying a write before its causal predecessors. Omitted =
    every process owes every write (the static-membership model).

    [?floor] switches on {e windowed} auditing for endurance runs whose
    full execution cannot be retained: the execution holds only the
    events after a convergence barrier, and [floor] gives the
    per-issuer write counts audited in earlier windows (every process
    had applied all of them at the barrier). Baseline counters start
    from the floor, read-froms naming compacted writes are resolved
    against it, and the completeness audit covers the window's writes
    only. Omitted = audit everything (the default everywhere outside
    the soak driver). *)

val is_clean : report -> bool
(** No violations and no lost writes (incompleteness by documented
    writing-semantics skips is reported, not judged — it is a protocol
    property, not a bug). *)

val pp_report : Format.formatter -> report -> unit
val pp_violation : Format.formatter -> violation -> unit
