(** The experiment harness: one entry point per table and figure.

    The paper has no quantitative evaluation section; its "results" are
    Tables 1–2 (enabling-event sets over [Ĥ₁]) and the runs of Figures
    1, 2, 3, 6 plus the causality graph of Figure 7. Each [t*]/[f*]
    function below regenerates one of those artifacts. The [q*]
    functions are the quantitative companion experiments DESIGN.md
    §5 specifies: they measure the paper's headline claim — OptP delays
    a write only when necessary, causal-broadcast protocols delay more —
    across parameter sweeps, with every run audited by the checker.

    All functions are deterministic (fixed seeds) and return rendered
    tables/strings; the bench harness and the CLI only choose which to
    print. *)

(** {1 Protocol rosters} *)

val class_p_protocols : (module Dsm_core.Protocol.S) list
(** OptP and ANBKH — the members of class [𝒫]. *)

val all_protocols : (module Dsm_core.Protocol.S) list
(** Adds the writing-semantics variants (outside [𝒫]). *)

(** {1 Paper tables and figures} *)

val table1 : unit -> Dsm_stats.Table_fmt.t
(** Table 1: [𝒳_co-safe(e)] for every apply event of [Ĥ₁]. *)

val table2 : unit -> Dsm_stats.Table_fmt.t
(** Table 2: [𝒳_ANBKH(e)] for the events of the Figure 3 run,
    derived from Fidge–Mattern send timestamps recomputed from the
    recorded execution (not from the protocol's own clocks). *)

val figure1 : unit -> string
(** Both admissible sequences at [p₃] with their delay counts. *)

val figure2 : unit -> string
(** The non-optimal run: causal delivery pays one unnecessary delay,
    OptP pays none. *)

val figure3 : unit -> string
(** The ANBKH run with false causality, with per-process sequences. *)

val figure6 : unit -> string
(** The OptP run: per-process sequences plus each write's [Write_co]
    timestamp. *)

val figure7 : unit -> string
(** The write causality graph of [Ĥ₁] (edge list + Graphviz). *)

(** {1 Quantitative experiments (DESIGN.md §5)} *)

val q1_sweep_processes :
  ?ns:int list -> ?seeds:int list -> ?ops:int -> unit -> Dsm_stats.Table_fmt.t
(** Mean write delays per 100 applies vs number of processes. *)

val q2_sweep_latency_variance :
  ?sigmas:float list -> ?seeds:int list -> ?ops:int -> unit ->
  Dsm_stats.Table_fmt.t
(** Unnecessary delays (false causality) vs log-normal latency σ. *)

val q3_sweep_write_ratio :
  ?ratios:float list -> ?seeds:int list -> ?ops:int -> unit ->
  Dsm_stats.Table_fmt.t
(** Delays vs fraction of writes in the workload. *)

val q4_buffer_occupancy :
  ?seeds:int list -> ?ops:int -> unit -> Dsm_stats.Table_fmt.t
(** Peak and lifetime buffered messages under a hot-spot workload. *)

val q5_apply_latency :
  ?seeds:int list -> ?ops:int -> unit -> Dsm_stats.Table_fmt.t
(** Receipt→apply latency (mean / p95 / max) per protocol. *)

val q6_ws_skips :
  ?seeds:int list -> ?ops:int -> unit -> Dsm_stats.Table_fmt.t
(** Writes skipped by the writing-semantics variants vs variable
    locality, and the resulting message savings. *)

(** {1 Plumbing (exposed for tests and the CLI)} *)

type run_metrics = {
  protocol : string;
  delays : int;
  necessary : int;
  unnecessary : int;
  applies : int;
  skips : int;
  messages : int;
  buffer_high : int;  (** max over processes *)
  mean_apply_latency : float;
  clean : bool;  (** checker found no violations *)
}

val measure :
  (module Dsm_core.Protocol.S) ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  ?seed:int ->
  unit ->
  run_metrics
(** One audited run. @raise Failure if the checker finds a violation
    (an experiment on a broken run would be meaningless). *)

val send_vectors :
  Execution.t -> Dsm_vclock.Vector_clock.t Dsm_vclock.Dot.Map.t
(** Fidge–Mattern timestamps of every write's send event, recomputed
    from the execution's message pattern (write-sends are the counted
    events, as in ANBKH). *)

val q7_fifo_ablation :
  ?seeds:int list -> ?ops:int -> unit -> Dsm_stats.Table_fmt.t
(** Ablation: per-channel FIFO delivery vs unconstrained reordering.
    FIFO removes the per-sender-gap delays but not cross-process causal
    waits — quantifying how much of each protocol's buffering is due to
    plain channel reordering. *)

val q8_lossy_links :
  ?drops:float list -> ?seeds:int list -> ?ops:int -> unit ->
  Dsm_stats.Table_fmt.t
(** OptP over faulty links healed by the reliable-channel substrate:
    wire amplification (frames per protocol payload), retransmissions
    and completion-time dilation vs drop probability. Every run must
    still be checker-clean — the §3.1 channel abstraction is validated,
    not assumed. *)

val q9_divergence :
  ?ratios:float list -> ?seeds:int list -> ?ops:int -> unit ->
  Dsm_stats.Table_fmt.t
(** Replica divergence at quiescence: fraction of variables whose final
    value differs between some pair of replicas. Causal consistency
    permits permanent divergence on concurrent writes (there is no
    arbitration rule), and every protocol here exhibits it — including
    the token protocol, whose receivers share a total order but whose
    senders apply their own writes immediately, ahead of their round
    position. This quantifies the paper's intro point that causal
    memory "admits more executions" than stronger criteria. *)

val q10_metadata_size :
  ?ns:int list -> ?seeds:int list -> ?ops:int -> unit ->
  Dsm_stats.Table_fmt.t
(** Wire metadata per write message: the full [Write_co] vector (n
    entries, OptP) vs the direct-dependency list (the write causality
    graph's in-edges, [Opt_p_direct]). Both protocols have identical
    delay behaviour; the question is bytes on the wire as n grows. *)

val q5_histogram : ?seed:int -> ?ops:int -> unit -> string
(** ASCII histogram of OptP vs ANBKH receipt→apply latencies on one
    seed — the distributional view behind Q5's summary rows. *)

val q11_partial_replication :
  ?degrees:int list -> ?seeds:int list -> ?ops:int -> unit ->
  Dsm_stats.Table_fmt.t
(** Partial replication (Raynal–Singhal, the paper's [14]): messages on
    the wire, delays and buffer pressure as the replication degree
    shrinks from full (paper model) to 2 copies per location, under the
    matrix-clock OptP variant. Every run passes the replication-aware
    audit. *)

val q12_crash_recovery :
  ?seeds:int list -> ?ops:int -> unit -> Dsm_stats.Table_fmt.t
(** Crash–recovery campaigns ({!Churn_campaign} on static plans): OptP
    and ANBKH under a single crash and a crash-plus-partition plan,
    measuring checkpoint rollback, anti-entropy replay volume, recovery
    latency and sync traffic. Every run must end checker-clean with all
    live replicas converged. *)

val acceptance_plan : Dsm_sim.Fault_plan.t
(** The headline schedule: 8 replicas, a 500-time-unit partition
    ([t=300–800]) splitting them 4/4, processes 2 and 5 crashing in its
    shadow ([t=400], [t=500]) and recovering after heal ([t=1000],
    [t=1100]). *)

val acceptance_campaign :
  ?protocol:Dsm_core.Protocol.packed ->
  ?seed:int ->
  ?ops:int ->
  unit ->
  Churn_campaign.outcome
(** One full run of {!acceptance_plan} over an 8-process workload
    (default protocol OptP, [ops = 60] per process). The bench harness
    serializes the outcome to [BENCH_crash_recovery.json]. *)
