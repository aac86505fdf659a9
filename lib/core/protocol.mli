(** Common interface of the protocol class [𝒫] (§3.2).

    Every protocol in the repository — OptP, ANBKH, the
    writing-semantics variants — implements {!S}: a per-process state
    machine with three entry points matching the paper's event
    vocabulary:

    - [write] produces the local apply plus messages to transmit (the
      [send] event);
    - [read] is wait-free and local, returning the value and the
      identity of the write that produced it (which the runtime uses to
      record the read-from relation exactly);
    - [receive] is the [receipt] event: it may apply the incoming write
      immediately, buffer it (a {e write delay}, Definition 3), unblock
      previously buffered writes, skip writes (writing semantics), and
      emit further messages (token protocols).

    Implementations are purely deterministic state machines: all
    communication is returned as {!effects} and performed by the caller
    (the simulation runtime), which keeps protocols directly
    unit-testable without a network. *)

type config = { n : int; m : int }
(** [n] processes, [m] memory locations. *)

val config : n:int -> m:int -> config
(** @raise Invalid_argument unless [n > 0] and [m > 0]. *)

type apply_record = {
  adot : Dsm_vclock.Dot.t;  (** which write was applied *)
  avar : int;
  avalue : int;
  afrom_buffer : bool;
      (** [true] when the write had been buffered before applying —
          i.e. it {e suffered a write delay} at this process. *)
}

type 'msg outbound =
  | Broadcast of 'msg  (** to all other processes *)
  | Unicast of { dst : int; msg : 'msg }

type 'msg effects = {
  applied : apply_record list;  (** applies performed, in order *)
  skipped : Dsm_vclock.Dot.t list;
      (** writes never applied here (overwritten) — only writing-
          semantics protocols produce these; non-empty values certify
          the protocol is outside the class [𝒫] *)
  to_send : 'msg outbound list;
  waiting_for : Dsm_vclock.Dot.t option;
      (** delay provenance: when the receive left its message buffered,
          the {e wakeup constraint} as a dot — the causal predecessor
          whose apply the buffer waits on; by construction one of the
          missing writes the checker lists for the resulting delay
          (Definition 3). [None] when the message was applied, skipped
          or discarded as a duplicate, and when the protocol cannot
          name a single write (round-based batching). *)
}

val no_effects : 'msg effects
val effects :
  ?applied:apply_record list ->
  ?skipped:Dsm_vclock.Dot.t list ->
  ?to_send:'msg outbound list ->
  ?waiting_for:Dsm_vclock.Dot.t ->
  unit ->
  'msg effects

val waiting : counter:int -> count:int -> 'msg effects
(** The effects of a receive that buffered its message until process
    [counter]'s write number [count] applies: nothing but that
    [waiting_for] dot. *)

val merge_effects : 'msg effects -> 'msg effects -> 'msg effects
(** Concatenates in order (first argument's effects first); the second
    argument's [waiting_for] wins when it has one. *)

module type S = sig
  type t
  type msg

  val name : string

  val create : config -> me:int -> t
  (** Fresh replica state for process [me] (0-based).
      @raise Invalid_argument if [me] is outside [0..n-1]. *)

  val me : t -> int

  val grow : t -> n:int -> unit
  (** [grow t ~n] widens the replica state to [n] processes in place —
      the membership view gained members. Vector components for the new
      slots start at zero (a process that had not joined had produced no
      events), so clocks captured before the growth remain comparable
      under the implicit-zero convention; messages already buffered stay
      buffered and are re-evaluated unchanged. No-op when [n] equals the
      current size.
      @raise Invalid_argument if [n] is smaller than the current size,
      or for protocols whose topology is static (token ring). *)

  val set_generation : t -> gen:int -> unit
  (** [set_generation t ~gen] declares that this process occupies its
      slot as the [gen]-th occupant (slot reuse). From then on every
      write stamps [gen] into the own entry of its [Write_co] vector —
      and thus into its dot — so receivers can distinguish this
      process's writes from a predecessor's in the same slot. Must be
      called before the first write; [gen = 0] (the default state) is
      the original occupant and keeps the dense generation-free fast
      path. *)

  val generation : t -> int
  (** The generation declared by {!set_generation} (0 if never
      called). *)

  val adopt : config -> me:int -> gen:int -> sponsor:string -> t
  (** [adopt cfg ~me ~gen ~sponsor] builds the state of a {e new}
      process taking over slot [me] at generation [gen], bootstrapped
      from a {!snapshot} of a live sponsor replica. Unlike {!restore}
      (same process resuming its own identity), the adopter keeps the
      sponsor's {e replica} image — store contents, Apply counters,
      last-write metadata — but none of the sponsor's {e process}
      identity: its [Write_co] claims nothing beyond the slot's own
      write counter (which continues from where the retired occupant
      stopped, so dots never collide), and the pending-message buffer
      starts empty. The reuse gate (see {!Dsm_runtime.Membership.free})
      guarantees the retired occupant's writes are already applied
      everywhere, so the adopter's first write is immediately
      deliverable at every replica.
      @raise Invalid_argument if the snapshot's config differs, or for
      protocols whose topology is static (token ring). *)

  val write : t -> var:int -> value:int -> Dsm_vclock.Dot.t * msg effects
  (** Perform a local write; returns the new write's identity. The
      effects always contain the local apply and normally one
      [Broadcast]. *)

  val read : t -> var:int -> Dsm_memory.Operation.value * Dsm_vclock.Dot.t option
  (** Wait-free local read: the current value of [var] and the dot of
      the write that produced it ([None] for the initial ⊥). *)

  val receive : t -> src:int -> msg -> msg effects
  (** Handle one delivered message. A message left buffered names its
      wakeup constraint in the effects' [waiting_for]. *)

  val buffered : t -> int
  (** Messages currently delayed at this process. *)

  val buffer_high_watermark : t -> int
  val total_buffered : t -> int
  (** Total messages that ever suffered a delay here. *)

  val buffer_wakeup_scans : t -> int
  (** Deliverability re-evaluations performed by the delivery buffer
      (oracle calls / rescan predicate evaluations) — the work metric
      behind the Scan-vs-Indexed comparison. *)

  val applied_vector : t -> Dsm_vclock.Vector_clock.t
  (** The paper's [Apply] array: per-issuer applied-write counts. *)

  val local_clock : t -> Dsm_vclock.Vector_clock.t
  (** The protocol's working vector ([Write_co] for OptP, the
      Fidge–Mattern vector for ANBKH). For introspection/figures. *)

  val msg_writes : msg -> (Dsm_vclock.Dot.t * int * int) list
  (** The writes a wire message carries, as [(dot, var, value)] — one
      entry for ordinary write messages, several for token batches,
      none for control messages. The runtime uses this to record
      [send]/[receipt] events per write without knowing the concrete
      message type. *)

  val msg_frame : msg -> Dsm_obs.Wire.frame
  (** The message's wire shape — scalar fields, dots, causal vectors —
      for byte-cost accounting (see {!Dsm_obs.Wire}). Pure: reads the
      message only; the vectors it lists are the live ones (the
      accountant copies what it retains). *)

  val pp_msg : Format.formatter -> msg -> unit

  (** {2 Durability}

      The crash–recovery model: a {!snapshot} is the process's entire
      durable image — for OptP that is [Apply], [Write_co],
      [LastWriteOn], the local store replica and the pending (buffered)
      messages; everything else a run holds for the process (network
      handlers, channel timers, unrecorded events) is volatile and dies
      with a crash. {!restore} rebuilds a working state from the last
      snapshot; the recovered process then catches up on writes it
      missed through the {e normal} receive path (anti-entropy replay),
      so delivery-buffer behaviour and optimality accounting are
      unchanged by recovery. *)

  val snapshot : t -> string
  (** Serialized durable state. The encoding is private to the
      implementation (only {!restore} of the same protocol reads it)
      and self-contained: no sharing with the live state survives, so
      mutating the process after [snapshot] does not alter the image. *)

  val restore : config -> me:int -> string -> t
  (** [restore cfg ~me s] rebuilds the state serialized by [snapshot].
      @raise Invalid_argument if the snapshot was taken by a different
      process or under a different configuration. *)
end

val vector_wait :
  applied:Dsm_vclock.Vector_clock.t ->
  wanted:Dsm_vclock.Vector_clock.t ->
  n:int ->
  src:int ->
  Dsm_sim.Delivery_buffer.wait ->
  Dsm_sim.Delivery_buffer.status
(** Figure 5, line 2, as a delivery-buffer oracle for a write from
    [src] carrying [wanted] (OptP's [Write_co], ANBKH's vector time):
    [Wait] on the sender gap, [Stuck] for a duplicate, else the first
    [k ≠ src] below [n] and [wanted]'s size with [wanted[k] > applied[k]],
    scanned from [w.resume], where the scan leaves its stopping point.
    [applied] only grows between restores, so the components below are
    still covered: resuming finds what a scan from 0 would. The scan is
    one call of {!Dsm_vclock.Vector_clock.first_exceeding}. *)

(** Shared receive skeleton over a delivery buffer. The wait oracle and
    the apply functions are the protocol's own top-level functions,
    passed with the state they read, so a receive cascade builds no
    closure. The one oracle evaluation of the incoming message decides
    whether it applies, is buffered and why, and routes it; the
    oracle-call count (every pinned wakeup-scan metric) is the seed's,
    where the buffer evaluated a buffered message again on [add]. *)
module Step (B : Dsm_sim.Delivery_buffer.S) : sig
  val receive :
    'm B.t ->
    ('s, 'm) Dsm_sim.Delivery_buffer.oracle ->
    's ->
    apply:('s -> src:int -> 'm -> from_buffer:bool -> apply_record) ->
    drained:('s -> src:int -> 'm -> apply_record) ->
    src:int ->
    'm ->
    'm effects
  (** The canonical receipt shape (OptP Figure 5 / causal broadcast):
      when the incoming message is [Ready], [apply] it and then drain
      the buffer through [drained] (the apply of a buffered message);
      otherwise buffer it ({!Dsm_sim.Delivery_buffer.S.add}) and, when
      it waits on a counter [k] reaching [c], report the dot [(k, c)]
      as its [waiting_for]. *)
end

(** Existential wrapper so heterogeneous protocols can be listed in
    experiment tables. *)
type packed = Packed : (module S with type t = 't and type msg = 'm) -> packed

(** Shared snapshot plumbing for implementations of {!S}.

    Every protocol state in the repository is closure-free plain data
    (vectors are int arrays, buffers are records, arrays and lists; the
    delivery-buffer oracles are passed per call, never stored), so the durable image is a [Marshal] round-trip — which is
    also a deep copy, giving {!S.snapshot} its no-sharing guarantee.
    [decode] must only be applied to a string produced by [encode] at
    the same state type; the protocols guard the public entry point by
    checking the embedded config and process id via [check_identity]. *)
module Snapshot : sig
  val encode : 'a -> string
  val decode : string -> 'a
  val check_identity :
    proto:string -> cfg:config -> me:int -> cfg':config -> me':int -> unit
end

val pp_apply_record : Format.formatter -> apply_record -> unit
