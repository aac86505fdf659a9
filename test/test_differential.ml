(* Differential testing: the indexed delivery buffer against the seed
   scanning Mailbox.

   Every protocol is compiled twice — [P] over [Delivery_buffer.Indexed]
   and [P.Scan] over the seed [Mailbox] — and both are driven through
   the full simulator on the same workload, network and seed. The two
   instantiations must be indistinguishable: identical histories (every
   read returns the same write), identical per-process apply sequences,
   identical delayed-apply sets, and identical buffer statistics.

   Seeds sweep three network regimes: heavy reordering (high-variance
   lognormal latency), lossy links (drops leave messages buffered
   forever on some replicas), and duplicating links (duplicates
   exercise the index's stuck-message parking). *)

module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Network = Dsm_sim.Network
module Engine = Dsm_sim.Engine
module Sim_run = Dsm_runtime.Sim_run
module Execution = Dsm_runtime.Execution
module History = Dsm_memory.History
module Replication = Dsm_core.Replication
module Partial_run = Dsm_runtime.Partial_run

let params_of_seed seed =
  let rng = Dsm_sim.Rng.create (seed * 7919) in
  let n = 2 + Dsm_sim.Rng.int rng 5 in
  let ratio = 0.2 +. (0.1 *. float_of_int (Dsm_sim.Rng.int rng 8)) in
  let sigma = 0.2 *. float_of_int (Dsm_sim.Rng.int rng 11) in
  let faults =
    (* sweep the three regimes deterministically *)
    match seed mod 3 with
    | 0 -> Network.no_faults
    | 1 -> { Network.drop = 0.15; duplicate = 0.; corrupt = 0. }
    | _ -> { Network.drop = 0.; duplicate = 0.25; corrupt = 0. }
  in
  (n, ratio, sigma, faults)

let run_one (module P : Dsm_core.Protocol.S) ?(queue = Engine.Indexed)
    ?(arena = true) ?(batch = false) ?(observe = false) ~seed () =
  let n, ratio, sigma, faults = params_of_seed seed in
  let spec =
    Spec.make ~n ~m:4 ~ops_per_process:40 ~write_ratio:ratio
      ~think:(Latency.Exponential { mean = 5. })
      ~seed ()
  in
  let latency =
    Latency.Lognormal { mu = log 10. -. (sigma *. sigma /. 2.); sigma }
  in
  if observe then begin
    (* the full observability stack: live registry, wire accountant,
       flight recorder — all pure reads of the run *)
    let metrics = Dsm_obs.Metrics.create () in
    let wire = Dsm_obs.Wire.create ~proto:P.name ~n () in
    let recorder = Dsm_obs.Timeseries.create ~metrics () in
    Sim_run.run (module P) ~spec ~latency ~faults ~seed:(seed + 1) ~queue
      ~arena ~batch ~metrics ~wire ~recorder ()
  end
  else
    Sim_run.run (module P) ~spec ~latency ~faults ~seed:(seed + 1) ~queue
      ~arena ~batch ()

let same_outcome name seed (o1 : Sim_run.outcome) (o2 : Sim_run.outcome) =
  let ctx fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) name seed in
  Alcotest.(check bool)
    (ctx "identical histories (reads and writes)")
    true
    (History.ops (Execution.to_history o1.Sim_run.execution)
    = History.ops (Execution.to_history o2.Sim_run.execution));
  let n = Execution.n_processes o1.Sim_run.execution in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (ctx "identical apply sequence at p%d" (p + 1))
        true
        (Execution.apply_order o1.Sim_run.execution p
        = Execution.apply_order o2.Sim_run.execution p))
    (List.init n Fun.id);
  Alcotest.(check bool)
    (ctx "identical delayed-apply sets")
    true
    (Execution.delayed_applies o1.Sim_run.execution
    = Execution.delayed_applies o2.Sim_run.execution);
  Alcotest.(check (array int))
    (ctx "identical buffer high watermarks")
    o1.Sim_run.buffer_high_watermarks o2.Sim_run.buffer_high_watermarks;
  Alcotest.(check (array int))
    (ctx "identical total-buffered counts")
    o1.Sim_run.total_buffered o2.Sim_run.total_buffered;
  Alcotest.(check int)
    (ctx "identical skip counts")
    o1.Sim_run.skipped_writes o2.Sim_run.skipped_writes

let seeds count = List.init count (fun i -> i + 1)

(* the acceptance sweep: >= 100 seeds each for OptP and ANBKH *)
let test_optp () =
  List.iter
    (fun seed ->
      same_outcome "OptP" seed
        (run_one (module Dsm_core.Opt_p) ~seed ())
        (run_one (module Dsm_core.Opt_p.Scan) ~seed ()))
    (seeds 100)

let test_anbkh () =
  List.iter
    (fun seed ->
      same_outcome "ANBKH" seed
        (run_one (module Dsm_core.Anbkh) ~seed ())
        (run_one (module Dsm_core.Anbkh.Scan) ~seed ()))
    (seeds 100)

(* the writing-semantics variant exercises remove_all / to_list and the
   skip-path counter advances *)
let test_optp_ws () =
  List.iter
    (fun seed ->
      same_outcome "OptP-WS" seed
        (run_one (module Dsm_core.Opt_p_ws) ~seed ())
        (run_one (module Dsm_core.Opt_p_ws.Scan) ~seed ()))
    (seeds 40)

(* partial replication exercises the flattened matrix counter space *)
let test_partial () =
  List.iter
    (fun seed ->
      let n = 4 + (seed mod 3) and m = 6 in
      let replication = Replication.ring ~n ~m ~degree:2 in
      let spec =
        Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let latency = Latency.Uniform { lo = 1.; hi = 120. } in
      let o1 =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      let o2 =
        Partial_run.run_scan ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      let ctx fmt =
        Printf.sprintf ("OptP-partial seed %d: " ^^ fmt) seed
      in
      Alcotest.(check bool)
        (ctx "identical histories") true
        (History.ops o1.Partial_run.history = History.ops o2.Partial_run.history);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (ctx "identical apply sequence at p%d" (p + 1))
            true
            (Execution.apply_order o1.Partial_run.execution p
            = Execution.apply_order o2.Partial_run.execution p))
        (List.init n Fun.id);
      Alcotest.(check (array int))
        (ctx "identical buffer high watermarks")
        o1.Partial_run.buffer_high_watermarks
        o2.Partial_run.buffer_high_watermarks)
    (seeds 30)

(* Engine-machinery variants: the same 270-seed sweep must be
   insensitive to which event queue backs the engine (flat indexed heap
   vs the reference pairing heap) and to whether delivery envelopes go
   through the recycling arena or are freshly allocated. All four
   {queue} x {arena} configurations run the identical simulation —
   identical RNG draws, identical event order — so every observable in
   [same_outcome] must match the baseline bit for bit. *)

let engine_variants =
  [
    ("indexed*alloc", Engine.Indexed, false);
    ("heap*arena", Engine.Heap, true);
    ("heap*alloc", Engine.Heap, false);
  ]

let test_variants (module P : Dsm_core.Protocol.S) name count () =
  List.iter
    (fun seed ->
      let base = run_one (module P) ~seed () in
      List.iter
        (fun (vname, queue, arena) ->
          same_outcome
            (Printf.sprintf "%s[%s]" name vname)
            seed base
            (run_one (module P) ~queue ~arena ~seed ()))
        engine_variants)
    (seeds count)

let test_variants_partial () =
  List.iter
    (fun seed ->
      let n = 4 + (seed mod 3) and m = 6 in
      let replication = Replication.ring ~n ~m ~degree:2 in
      let spec =
        Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let latency = Latency.Uniform { lo = 1.; hi = 120. } in
      let base =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      List.iter
        (fun (vname, queue, arena) ->
          let o =
            Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1)
              ~queue ~arena ()
          in
          let ctx fmt =
            Printf.sprintf
              ("OptP-partial[%s] seed %d: " ^^ fmt)
              vname seed
          in
          Alcotest.(check bool)
            (ctx "identical histories") true
            (History.ops base.Partial_run.history
            = History.ops o.Partial_run.history);
          Alcotest.(check int)
            (ctx "identical engine step counts")
            base.Partial_run.engine_steps o.Partial_run.engine_steps)
        engine_variants)
    (seeds 30)

(* Delivery batching coalesces same-edge deliveries behind one wakeup.
   It may permute same-instant deliveries across DISTINCT edges — a
   measure-zero event under the continuous latency laws used here — so
   on this sweep the batched run must reproduce the unbatched outcome
   exactly (engine step counts differ: wakeups replace per-envelope
   events; [same_outcome] compares semantics, not step counts). *)
let test_batched_parity (module P : Dsm_core.Protocol.S) name count () =
  List.iter
    (fun seed ->
      same_outcome
        (Printf.sprintf "%s[batched]" name)
        seed
        (run_one (module P) ~seed ())
        (run_one (module P) ~batch:true ~seed ()))
    (seeds count)

(* Observation parity: arming the wire accountant, the flight recorder
   and a live metrics registry must not move the run. The accountant
   prices frames without touching the RNG, and recorder scrapes are
   extra engine events whose callbacks only read the registry — so the
   same seed sweep as above must reproduce every semantic observable
   exactly (engine step counts legitimately differ: scrape ticks add
   events). *)

let test_observed (module P : Dsm_core.Protocol.S) name count () =
  List.iter
    (fun seed ->
      same_outcome
        (Printf.sprintf "%s[observed]" name)
        seed
        (run_one (module P) ~seed ())
        (run_one (module P) ~observe:true ~seed ()))
    (seeds count)

let test_observed_partial () =
  List.iter
    (fun seed ->
      let n = 4 + (seed mod 3) and m = 6 in
      let replication = Replication.ring ~n ~m ~degree:2 in
      let spec =
        Spec.make ~n ~m ~ops_per_process:30 ~write_ratio:0.5
          ~think:(Latency.Exponential { mean = 5. })
          ~seed ()
      in
      let latency = Latency.Uniform { lo = 1.; hi = 120. } in
      let base =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1) ()
      in
      let metrics = Dsm_obs.Metrics.create () in
      let wire = Dsm_obs.Wire.create ~proto:"OptP-partial" ~n () in
      let recorder = Dsm_obs.Timeseries.create ~metrics () in
      let o =
        Partial_run.run ~replication ~spec ~latency ~seed:(seed + 1)
          ~metrics ~wire ~recorder ()
      in
      let ctx fmt =
        Printf.sprintf ("OptP-partial[observed] seed %d: " ^^ fmt) seed
      in
      Alcotest.(check bool)
        (ctx "identical histories") true
        (History.ops base.Partial_run.history
        = History.ops o.Partial_run.history);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (ctx "identical apply sequence at p%d" (p + 1))
            true
            (Execution.apply_order base.Partial_run.execution p
            = Execution.apply_order o.Partial_run.execution p))
        (List.init n Fun.id);
      Alcotest.(check (array int))
        (ctx "identical buffer high watermarks")
        base.Partial_run.buffer_high_watermarks
        o.Partial_run.buffer_high_watermarks;
      Alcotest.(check int)
        (ctx "identical message counts")
        base.Partial_run.messages_sent o.Partial_run.messages_sent)
    (seeds 30)

(* Churn_campaign replaced a separate static-membership driver, which
   is now a front door to it. On a churn-free plan it must reproduce
   that driver byte for byte — same RNG consumption, same event
   scheduling, same wire traffic, same recoveries. The parity is frozen
   as golden digests: the static driver ran every plan of the sweep
   below, and a digest of each run's canonical text rendering
   ([parity_text]) was recorded; Churn_campaign must reproduce all of
   them.

   The sweep crosses three complete-broadcast protocols with clean,
   lossy and corrupting links; recovering, permanent and
   partition-shadowed crashes; no link fault, a one-way cut, a flapping
   link or a delay spike; and the [settle] / [checkpoint_every] knobs.
   The audit's completeness fields are left out of the rendering: a
   slot that stays down is excused by the driver's [?expected] domain
   rather than after the fact, which changes [lost] but not [clean]. *)

module Churn_campaign = Dsm_runtime.Churn_campaign
module Fault_plan = Dsm_sim.Fault_plan
module Checker = Dsm_runtime.Checker
module Operation = Dsm_memory.Operation
module Dot = Dsm_vclock.Dot
module Rng = Dsm_sim.Rng
module Wire = Dsm_obs.Wire

type parity_plan = {
  spec : Spec.t;
  faults : Network.faults;
  plan : Fault_plan.t;
  settle : bool;
  checkpoint_every : float;
  seed : int;
}

let parity_plans = 120

(* a crash inside a two-sided partition, recovering after the heal *)
let shadowed_crash rng ~n =
  let at = Dsm_sim.Sim_time.of_float in
  let half = n / 2 in
  let cut = Rng.uniform rng 30. 90. in
  let victim = Rng.int rng n in
  let crash = cut +. Rng.uniform rng 10. 60. in
  let heal = cut +. 150. in
  Fault_plan.make
    [
      Fault_plan.Cut
        {
          groups = [ List.init half Fun.id; List.init (n - half) (( + ) half) ];
          at = at cut;
        };
      Fault_plan.Crash { proc = victim; at = at crash };
      Fault_plan.Heal { at = at heal };
      Fault_plan.Recover
        { proc = victim; at = at (heal +. Rng.uniform rng 10. 80.) };
    ]

let parity_plan i =
  let seed = i + 1 in
  let n = 3 + (i / 12 mod 3) in
  let rng = Rng.create (31 * seed) in
  let horizon = 300. in
  let crashes =
    let one = Fault_plan.random rng ~n ~horizon ~crashes:1 ~partitions:0 () in
    match i / 3 mod 3 with
    | 0 -> one
    | 1 ->
        List.filter (function Fault_plan.Recover _ -> false | _ -> true) one
    | _ -> shadowed_crash rng ~n
  in
  let links oneways flaps inflations =
    Fault_plan.random_links rng ~n ~horizon ~oneways ~flaps ~inflations ()
  in
  let link_faults =
    match i / 9 mod 4 with
    | 0 -> []
    | 1 -> links 1 0 0
    | 2 -> links 0 1 0
    | _ -> links 0 0 1
  in
  {
    spec =
      Spec.make ~n ~m:3 ~ops_per_process:30 ~write_ratio:0.5
        ~think:(Latency.Exponential { mean = 10. })
        ~seed ();
    faults =
      (match i mod 3 with
      | 0 -> Network.no_faults
      | 1 -> { Network.drop = 0.1; duplicate = 0.05; corrupt = 0. }
      | _ -> { Network.drop = 0.2; duplicate = 0.05; corrupt = 0.2 });
    plan = Fault_plan.make (crashes @ link_faults);
    settle = i / 36 mod 2 = 0;
    checkpoint_every = (if i / 72 = 0 then 50. else 500.);
    seed;
  }

let dot_text d = Printf.sprintf "%d.%d" (Dot.replica d) (Dot.seq d)
let opt_dot = function None -> "-" | Some d -> dot_text d

let value_text = function
  | Operation.Bot -> "_"
  | Operation.Val v -> string_of_int v

let ints a = String.concat "," (List.map string_of_int a)

let kind_text = function
  | Execution.Send { dot; var; value } ->
      Printf.sprintf "send %s x%d=%d" (dot_text dot) var value
  | Execution.Receipt { dot; src } ->
      Printf.sprintf "receipt %s from %d" (dot_text dot) src
  | Execution.Blocked { dot; waiting_for } ->
      Printf.sprintf "blocked %s on %s" (dot_text dot) (dot_text waiting_for)
  | Execution.Apply { dot; var; value; delayed } ->
      Printf.sprintf "apply %s x%d=%d delayed=%b" (dot_text dot) var value
        delayed
  | Execution.Skip { dot } -> Printf.sprintf "skip %s" (dot_text dot)
  | Execution.Return { var; value; read_from } ->
      Printf.sprintf "return x%d=%s from %s" var (value_text value)
        (opt_dot read_from)

let op_text = function
  | Operation.Write w ->
      Printf.sprintf "w %s x%d=%d" (dot_text w.wdot) w.wvar w.wvalue
  | Operation.Read r ->
      Printf.sprintf "r %d/%d x%d=%s from %s" r.rproc r.rslot r.rvar
        (value_text r.rvalue) (opt_dot r.read_from)

(* canonical text rendering of a run; floats in hex, so exact *)
let parity_text (o : Churn_campaign.outcome) ~wire =
  let b = Buffer.create 65536 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  List.iter
    (fun (e : Execution.event) ->
      line "%d %h %s" e.proc (Dsm_sim.Sim_time.to_float e.time)
        (kind_text e.kind))
    (Execution.events o.execution);
  List.iter (fun op -> line "%s" (op_text op)) (History.ops o.history);
  List.iter
    (fun (s : Churn_campaign.replica_state) ->
      line "state %d apply=%s clock=%s store=%s" s.sproc
        (ints (Array.to_list s.sapplied))
        (ints (Array.to_list s.sclock))
        (String.concat ","
           (List.map (fun (v, d) -> value_text v ^ "@" ^ opt_dot d) s.sstore)))
    o.final_states;
  let hex_opt = function Some t -> Printf.sprintf "%h" t | None -> "-" in
  List.iter
    (fun (c : Churn_campaign.catch_up) ->
      line "recovery %d crashed=%s recovered=%h rolled_back=%d caught_up=%s \
            replayed=%d"
        c.cproc (hex_opt c.crashed_at) c.started_at c.rolled_back
        (hex_opt c.converged_at) c.replayed)
    o.catch_ups;
  let n = Execution.n_processes o.execution in
  line "down %s"
    (ints
       (List.filter
          (fun p -> not (List.mem p o.active_at_end))
          (List.init n Fun.id)));
  line "counts %s"
    (ints
       [
         o.payloads_sent; o.frames_sent; o.retransmissions;
         o.duplicates_discarded; o.aborted_payloads; o.engine_steps;
         o.commits; o.snapshot_bytes; o.rolled_back_events;
         o.ops_skipped_inactive; o.sync_requests; o.sync_replies;
         o.replayed_writes; o.stale_deliveries_dropped;
         o.net_partition_dropped; o.net_crash_dropped;
       ]);
  line "end %h clean=%b live_equal=%b" o.end_time o.clean o.live_equal;
  let a = o.report in
  line "audit applies=%d delays=%d necessary=%d unnecessary=%d violations=%d"
    a.Checker.total_applies a.Checker.total_delays a.Checker.necessary_delays
    a.Checker.unnecessary_delays
    (List.length a.Checker.violations);
  let w = Wire.totals wire in
  line "wire frames=%d header=%d payload=%d meta=%d delta=%d" w.Wire.frames
    w.Wire.header w.Wire.payload w.Wire.meta w.Wire.delta_meta;
  Buffer.contents b

let churn_parity_run (module P : Dsm_core.Protocol.S) c =
  let wire = Wire.create ~proto:P.name ~n:c.spec.Spec.n () in
  let o =
    Churn_campaign.run
      (module P)
      ~spec:c.spec
      ~latency:(Latency.Exponential { mean = 8. })
      ~faults:c.faults ~plan:c.plan ~initial:c.spec.Spec.n ~settle:c.settle
      ~checkpoint_every:c.checkpoint_every ~seed:c.seed ~wire ()
  in
  (o, String.sub (Digest.to_hex (Digest.string (parity_text o ~wire))) 0 16)

let parity_protocols : (string * (module Dsm_core.Protocol.S)) list =
  [
    ("OptP", (module Dsm_core.Opt_p));
    ("ANBKH", (module Dsm_core.Anbkh));
    ("OptP-direct", (module Dsm_core.Opt_p_direct));
  ]

(* the first 16 hex digits of each run's [parity_text] MD5, in plan
   order: recorded from the static driver, then, for the 39 plans per
   protocol with a permanent crash, re-recorded once the survivors
   joined the final fixpoint *)
let golden_digests =
  [
    ( "OptP",
      {|
      949bb7752951d673 676606d8202aaddf 3c56012352a9894e a1298822682522d6
      8f3bb102b3f06419 d5e4fb2fd4cf48c7 9c2c3be6428c4395 983e740e02252e7a
      48cc49e2b35390ee 8ea869b4e79c1eb9 f98c554a6baf411d f326196e686e35f9
      733b67988fb3fe18 f844b052369aa18e 8af46532a67b2e40 a88749da0e7f5fe7
      01f1fbab2dd566d1 a871b8384fbeb43f 523c5df27590f69d f88f31c722d8e763
      a16e9976fd67cef9 b8beed19ea948e58 eb554c6509da1d22 c560ff62adf58bf4
      3f59b89f44e7676d e7dfeed3446c2cdc 2f9097d8ee7f3ab6 7574654cf74f1ca0
      b0a97e26ac76a213 0aba099d02561767 92111ac765b67b14 c755c55d6abfbfca
      677551a942f21ad2 4f07494046e38f83 729f6e71517c88a4 3be46d7622b85d89
      449557df5372767a fabd2dfd2eb105be 06303a94a75122e0 084f07ec42d16835
      caa6d4a99d92c320 fe061acabd643635 e5c3648cebbef691 4c0aab3ed6b16969
      989af1acfa1f7120 0ada0cc0cb4e950d 24119aaf0aea8c94 8efe37160b606812
      f19fab607602866c 64c28f48015367e8 9be56f1f28e9331f b92a2b4f80740694
      8a8ef11adcaab8a2 b9f0d6aabb09eab4 0bc288ee106cd436 3b7619c5c57a872e
      467d025e16c07697 f565cbdf1569a2f9 ed4a15a896850d41 2c40edf32c23c3b8
      75c807a328ed1cd4 b8dbfe5c2643db9f d5a42bd6ed7a965b b9bf207ee9c60019
      504c5247ec4924c4 97cf83de21f3c34b e67968414057a935 2e4c2fab223f56cf
      ae50f7185c825725 a9e516e995ee9b31 ba014471f38958e9 939d53c08e69e3ce
      d8c4850140767ff9 ce3041e244e4344f 7cab0401ea13c39c ec4e4c491d90d4e8
      8e73fe3f2f197e8e c2bb8643ea9596cf a8ab21ba59694e0f 66da287cc3a170ef
      f3821096047bb2d1 abe5100d692f153c e0fc58d329eaa37b e92c8b6409f73cd0
      224e9a487f5d7531 f4a0277175282a49 1ae9fc893ce2be66 ba2200a0703906db
      8beabb83c464a7f5 265154e74f358cd9 04554af44c7395b9 14d47402d4e18e8f
      d74a075028c55ff1 947a07e9457aabc9 0a8fe399e402d255 7ca2a6d5e459dfa3
      63e59b8c8d9992b5 70207ea463f6cbaa f22014182b61e5af b223dcd173fe46ee
      ba155437a4186637 af8fa63081f3a414 3fbfa641baca2e15 739d9e8aa27ee314
      db18c55d04809253 f40de32aa8b70a53 b4e48658664cd57b f0e4a401e1cb306c
      c767629d352f213f b067f48122437781 2b418d108f54f7c5 df7b3abf0aba46b5
      1ebef6c80fa5c462 6769f90ef3bf94bd 7f126ca71549fdab d619ae840b068a24
      0878249a02b29a0a 7144dd72ac727681 10f116b5a3a389d0 203a816ea1a76aa6
      |} );
    ( "ANBKH",
      {|
      26ee970c0265707e 1beb1806a41b57c1 5676a4e3c5a29591 82055104f8c01933
      9dcf341885d92d67 824ff7726135271b 329b384d50ff5a52 ed63da3772a70162
      d2353ba8e8407b6e faa01813e8dcb6ad 30589a9193293bd5 7e9137bd9385d331
      c73285f384e3953a 6bfe7565b4a120e5 924c8a72229f3652 3918aea2315fd0cc
      77e6f2f9ed0936f9 e0867b2a999cbc12 31044f73c7cc11a2 e8a2c45bc750dee8
      bcc61aa3e72f0b64 c62ff41146a343f1 7fcf641c07dc680d 4fbab15c2e681e01
      5e95e36f642bade6 ac53bac2c8e38b70 b5d12b5adaf9a48e 3b70eb1b24d8cf8e
      866fc28ac1530cd6 19f80252b81c93a0 913d10884e76d29e fc7ad3c696c16890
      eac06aaf10c2db3e 8a8a0a0dceb4ea77 ca45b7222310e749 73c29b5422b3ae57
      288ed02e45cd4c81 e8c2709f47f719e5 2a09ae149de5b434 1b770d7ebd55aaf1
      3cb1d481102a6ff8 a672f1b2ba505ef3 30d11e3ef580166f ea25ed31c44d083d
      ca34ad2405b6b847 3d831dd19bfef647 75b577698aeae6cb 98ea924d819abc38
      592a2d78eed661cc a4da70871fed29f4 4efb3c9b7c9a5489 9b4c068e76ce2ed8
      25c4966854af5de3 4f20b74cb2007461 34e7b9f6f511b606 1b9c4902c6478aed
      74a2cdbe9898b443 61b12b7329fc642f d85685d86bd404e1 347d765ac2b8a195
      8a7543d2664fb9d6 392de67d7cf4637b f5185a83c04d38cb 4c483b33ad6ad7a5
      25bd75598d546ebf 7fa31aa1726b5474 927335db86764e03 046022a4172c2b86
      cd7191638787d114 0b4d49726ff3ac8e 59228ea8db936786 af1d45759f8e6d02
      ec8bb884291367f3 e8169ef75300505e 50ca1dc41057f6ac 903715cffbbd3f19
      990f103477ee1f9a e088de2cba153eac 33ff65dd3a5ca504 78517b99a17d9cf2
      a4d05671d9d344fe 5c8a84322ebe3cf7 8ba5e784f6b0d3d8 178e4aa11fc8fbb7
      218443e2f6c02c1b e64606c688ff39f7 174ae3e681cad39f fc7e0d3c7702805f
      35104eee99fbb7f5 050d03ef9c3ec8f8 baa9b7c43d2101a0 38e2fefb0e870465
      4a0eba3ac9208249 11633847b84aa04c ed0429f70f23e1aa e94bff6a9b03465c
      224fb8d824230af6 26eca5a5804c89c2 a2aa66b4d6582ede 7cd77c551eb745dc
      5e2f5a2f32554b7f 1e01b615c8dba974 205cb19179cfcd0e 6661a067a826cca8
      929939b28c83fbf0 f75430ef93fe24bb 793240946d9256f1 5e1d1f5f8e23cfb4
      df7d05b5ff97ce11 b09103f34babd09b 9a600bf56f40f6f4 2321cddd0f9017b5
      df22b43e004257ee 1b6c06646ceddb9a 730a72d36fa1a531 343eb3a36abbcb4b
      7343e2aff380092a 120f6514c67fc058 c06ded5287053496 681e957ba08d681f
      |} );
    ( "OptP-direct",
      {|
      db88891311cf8a43 bcde0e8d9f0b83b2 51c931e35d9d90f3 4e7182286de0610a
      2781ab4554bcbbe6 ba1cedfbe43ee3a7 443f0f7264e8f7f7 f64fc2813f9d61fa
      1a78323748c2fe95 2d7a36907329fb65 26f5a8de3eff6b73 fb20a3c70ff59f30
      1118421612554054 197e27e26ad80659 0637c307b403f6e4 71cea2dff5891148
      640a014e1706b236 29e1cadca6fafb65 ed9c7e532fba5aa1 b549d57e8bcfc06b
      e83dbc7dd4e315dd 3c9681d288bf5305 6030180e1a5506e9 253cabd5ae212cd9
      de8a3aed5eceb6c0 74ffa77e54a183cc 05e104be7c01cd6e 614f67b6750849a8
      f3ffba91220a8404 c1d62522b0613538 f1438fceebcc67f1 a76954a040a91f1d
      dce2cad18b5b149e efa7e8c9a506973a ac8294ce2f1d5df8 76c7a95f2f31c246
      4c5792d7aed88360 176c9c81e7309d35 e41af17e0df8d366 65e7a5841bfe047a
      a5ed6bba87645118 499a0f737749e10e 773b854e89f8533f 0f3617fa0a8cb9f2
      ff62b68a8a9a684d 49034f26f953e9f3 ad051df8845a6ba0 0d9b5629ceb83b67
      a3d93e688a2b785f 23cecff76fd196e1 05a9add766020703 79bc3a09ebf10939
      5da8534daec048d1 b31f5202773ec74e 017939da1f112f8d 53f35bfadf919c82
      0761991cac18d622 8f1a6af5e5bad51d a99251a44b580f7b b1d47f60f52a46cc
      d85b67a498cbc657 dc64f0e27eb82b47 e7105aa8177e9386 cc5135a8fd5ad0da
      9ea1cde0aaef9a6f f1ca2dbb403b4787 4e27425f90f21d89 6cb51e2b4f89721a
      41239aaa1e270525 bb7143660cf73e84 10255861449829c8 c925a0a978151017
      ee125abc44b473a2 3e05d361c842ff13 6bdce23f861e4c9f eb16d713a425618f
      0f9bb9373344ab26 a19b7a7c4fdd5b06 52f184ecaa182517 58b62d78b997ab1f
      6473348b5ad346ac f3377ab3f50e63f0 6a056617122bc867 a76acaa2b3500fb0
      08ea008574e03b2e 3dd1b83337bcddc7 7931f1fbc72d5978 1ccffdd0d3e2c6f5
      9681e494d62c11fd 00b3753504e54867 12f04e12dff87dc8 20a870951d9c6851
      35a54d500544dc3f ea7d17d5767b9713 ee28d4ba6a476ccd c6478d994f1d94ff
      7d5a0c6d781c4bc2 a91a97197d583832 2fc48e3bb4569768 b615c20bf1205d39
      8ec171ba17fc04e6 dd5f321bd7919426 80ecdfcbfeaf39e0 da66c10632ac8f4f
      d06aa0cac60246f3 71b707adddae9ac0 d3a0a116d7cff708 fd68f3a39df6b531
      900ba3251895544f 6d418c3d9c185d72 a035f13700d1e158 2016f1ad3c53889e
      c190fdba1dd8b967 5e09ac8bfde5fe39 9b34c0a7d9af5e8b c580126016089de2
      171b971360c90b93 c2fa4c3c77706b59 68036f0794370319 bebb216858c052de
      |} );
  ]

(* The unclean runs, pinned as they are in both drivers with the writes
   the audit reports lost ([proc:dot]). Each has a slot that crashes for
   good under drop and corruption, its send queue abandoned at the
   crash, and some of the corpse's writes reached no survivor: they are
   missing at all of them. *)
let unclean_runs =
  let lost_5 = "0:1.3 2:1.3 0:1.4 2:1.4 0:1.5 2:1.5" in
  let lost_113 = "0:2.3 1:2.3 0:2.4 1:2.4 0:2.5 1:2.5 0:2.6 1:2.6" in
  [
    ("OptP", 5, lost_5);
    ("OptP", 113, lost_113);
    ("ANBKH", 5, lost_5);
    ("ANBKH", 113, lost_113);
    ("OptP-direct", 5, lost_5);
    ("OptP-direct", 113, lost_113);
  ]

let lost_text (o : Churn_campaign.outcome) =
  String.concat " "
    (List.map
       (fun (p, d) -> Printf.sprintf "%d:%s" p (dot_text d))
       o.report.Checker.lost)

let test_churn_free_parity (name, golden) () =
  let p = List.assoc name parity_protocols in
  let digests =
    String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) golden)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "one digest per plan" parity_plans
    (List.length digests);
  List.iteri
    (fun i want ->
      let ctx s = Printf.sprintf "%s plan %d: %s" name i s in
      let o, digest = churn_parity_run p (parity_plan i) in
      Alcotest.(check string) (ctx "golden digest") want digest;
      Alcotest.(check (option string))
        (ctx "clean, or the pinned lost writes")
        (List.find_map
           (fun (n, j, lost) -> if n = name && j = i then Some lost else None)
           unclean_runs)
        (if o.clean then None else Some (lost_text o)))
    digests

(* Churny campaigns: the runs the churn-free sweep never reaches —
   fresh joins, crash-rejoins, graceful leaves, detector suspicions and
   their refutations, client sessions migrating between homes. Pinned
   the same way, as the first 16 hex digits of an MD5 over a canonical
   rendering: [parity_text] plus the membership, catch-up, detector and
   session fields it leaves out. The corpus covers every Nemesis
   scenario, a block of random schedules under each complete-broadcast
   protocol, and the emergent (detector-driven) plan of the CI smoke.
   Random seeds alone would not do: none of the first 96 per protocol
   refutes a suspicion, while five corpus scenarios do. *)
module Nemesis = Dsm_runtime.Nemesis
module Session_tier = Dsm_runtime.Session_tier

let churny_text (o : Churn_campaign.outcome) ~wire =
  let b = Buffer.create 65536 in
  Buffer.add_string b (parity_text o ~wire);
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let hex_opt = function Some t -> Printf.sprintf "%h" t | None -> "-" in
  line "membership joins=%d rejoins=%d leaves=%d epoch=%d" o.joins o.rejoins
    o.leaves o.final_epoch;
  List.iter
    (fun (c : Churn_campaign.catch_up) ->
      line "catch-up %d %s transfer=%d gap=%d bytes=%d"
        c.cproc
        (match c.ckind with
        | Churn_campaign.Fresh_join -> "join"
        | Rejoin -> "rejoin"
        | Recover -> "recover")
        c.transfer_writes c.transfer_gap c.transfer_bytes)
    o.catch_ups;
  List.iter
    (fun (s : Churn_campaign.suspicion) ->
      line "suspicion %d by %d phi=%h at=%h true=%b latency=%s refuted=%s"
        s.speer s.sobserver s.sphi s.sat s.strue (hex_opt s.slatency)
        (hex_opt s.srefuted_at))
    o.suspicions;
  List.iter
    (fun (epoch, at, why) -> line "view %d %h %s" epoch at why)
    o.view_reasons;
  line "fd heartbeats=%d false=%d refutations=%d transfer=%d leaks=%d"
    o.heartbeats_sent o.false_suspicions o.refutations o.transfer_bytes
    o.quarantine_leaks;
  (match o.sessions with
  | None -> ()
  | Some r ->
      line "sessions %s"
        (ints
           [
             r.Session_tier.ops_done; r.writes_done; r.reads_done; r.retries;
             r.blocked_rejections; r.unavailable_rejections; r.dedup_hits;
             r.replies_lost; List.length r.degraded; r.duplicate_writes;
             List.length r.migrations;
           ]);
      List.iter
        (fun v ->
          line "%s"
            (Format.asprintf "%a" Dsm_memory.Session_guarantees.pp_violation v))
        r.violations);
  Buffer.contents b

(* one schedule, driven exactly as [Nemesis.run] drives it, with a wire
   accountant attached; a campaign that raises renders as its error *)
let churny_run ?metrics ?recorder (s : Nemesis.schedule) =
  match Nemesis.protocol_by_name s.protocol with
  | None -> Alcotest.fail ("unknown protocol " ^ s.protocol)
  | Some (Dsm_core.Protocol.Packed (module P)) -> (
      let spec =
        Spec.make ~n:s.universe ~m:s.vars ~ops_per_process:s.ops_per_process
          ~write_ratio:s.write_ratio ~seed:s.seed ()
      in
      let wire = Wire.create ~proto:P.name ~n:s.universe () in
      match
        Churn_campaign.run
          (module P)
          ~spec ~latency:s.latency ?faults:s.faults ~plan:s.plan
          ~initial:s.initial ?detector:s.detector ~mixed:true
          ?sessions:s.sessions ~seed:s.seed ~wire ?metrics ?recorder ()
      with
      | o -> (Some o, churny_text o ~wire)
      | exception e -> (None, "raised " ^ Printexc.to_string e))

(* the emergent-membership smoke of CI: [dsm-sim run -n 6 -m 3 --ops 25
   --seed 3 --latency exp:8 --fd --crash 1@120:320 --crash 3@200] *)
let fd_smoke_run ?metrics ?recorder () =
  let t = Dsm_sim.Sim_time.of_float in
  let spec =
    Spec.make ~n:6 ~m:3 ~ops_per_process:25 ~write_ratio:0.5 ~seed:3 ()
  in
  let wire = Wire.create ~proto:Dsm_core.Opt_p.name ~n:6 () in
  let o =
    Churn_campaign.run
      (module Dsm_core.Opt_p)
      ~spec
      ~latency:(Latency.Exponential { mean = 8. })
      ~faults:Network.no_faults
      ~plan:
        (Fault_plan.make
           [
             Fault_plan.Crash { proc = 1; at = t 120. };
             Fault_plan.Recover { proc = 1; at = t 320. };
             Fault_plan.Crash { proc = 3; at = t 200. };
           ])
      ~initial:6
      ~detector:(Dsm_runtime.Failure_detector.config ~threshold:3. ())
      ~seed:3 ~wire ?metrics ?recorder ()
  in
  (Some o, churny_text o ~wire)

let churny_seeds = 48

let churny_cases =
  List.map
    (fun (sc : Nemesis.scenario) ->
      ("scenario " ^ sc.sched_.name, fun () -> churny_run sc.sched_))
    Nemesis.scenarios
  @ List.concat_map
      (fun protocol ->
        List.init churny_seeds (fun i ->
            ( Printf.sprintf "%s seed %d" protocol (i + 1),
              fun () ->
                churny_run (Nemesis.random_schedule ~protocol ~seed:(i + 1) ())
            )))
      [ "optp"; "anbkh"; "optp-direct" ]
  @ [ ("fd smoke", fun () -> fd_smoke_run ()) ]

(* the first 16 hex digits of each case's [churny_text] MD5, in
   [churny_cases] order *)
let golden_churny =
  {|
      0ca8382fb4fdc9b7 528e63afaf8a1c46 bfe57325c361434a 3ea64f7ca6d659d8
      64fcd0c630e5a6de 43752ac5e9494f42 a59004f2bc21b1d9 3eb53f8799bb1ca7
      8665129768d349fb ceab31ec5736a4c3 3bf16495fdc2fef4 0977f242b70c0f62
      37df350328712166 a11063e40f8dd2b4 28eae8ca47eacbdb 5fc5c400d45bf6f3
      db5e31cf9c9e3177 e7d11073daa7df4f 2be5ec2632854414 121ac0c70b425755
      09f9c3550b36c46c f0ce94045bc12d3a 62daa8dec7f4323f 436e520738e291be
      98505fcb2c7127a9 95e11e048eac5d9b af352d3d2ee29525 42f2515061c921eb
      eed815723023458c 6835818a8cd92791 830701ceca974594 d08b4e6657f9a5be
      bfcb22b301068e0d 395ee04133736f1a a5f1d4df55fa9368 e7ff6bca67730c86
      5288f43296e5c083 e51a34ef324b07bc e7a6a8db665307cf 6874a7037f659ea4
      bf0cac97d2807684 62211ecc6fde1eb7 9d132dc6ec76b9d0 9ff12e594e08dff9
      7959ae117d727947 bb170f3582c06829 2323705edca78768 c270af5a10ec613e
      8c135ab7c30a6374 5f2efc35c8177455 d2a8b2713291deab 18e2bf1c2d4759d4
      a41a12b7c68d0147 5a187b3c6456d185 4e0aba812196bd30 74e0895ec38ad3fa
      931ebb2ee6548232 e9cac02c3158a072 1571548c64c7804c 51716281a56d916b
      5aa798d7fd4d3a22 4bff0ee14d80cb8e b426ad0f433224ec 4d1916d25485f5e7
      1b4cdb513f1dbcb3 d13d86912b3d3989 8f43a8e937ffd580 c0661f123de20ec9
      63084b7f8f950e70 8e8005604b9796df 9072cec929c4a8a9 7a4ddbbb87810994
      9cba1a6f504b2071 1f8557fcabba8611 d6234bfd72f74ab7 401c67721b477bc3
      c23f2713702872ad 9e27ac4fb7014d67 3990ac956cc389c1 b478787c5ab52841
      41749f9ca29ad8db a08fb97713cd8bd6 58a8b68badc3fd3f a4f04dd39971b524
      827fe6094b36144e cf6d1d88aadadf57 55d99ea74bc2896c 4c7e9da89b30f640
      d0f077bd662c7db8 f42d03fb311d5870 14aa59f4bff1c46a 5ffb793f0c2b89e6
      08ec3a65fd3f579b 4a03c49458177b68 bd6db024220ce83c 298fe73efb95bb49
      49a84e03a7387ab6 22c165888c8b62e9 b3106565e9f484de 74f275b78f8c85f4
      1e8fe53b654bca0f f838e27f8252084b e8e0bd3ee288ccb1 895e307398f225df
      70454077ef8cf4d9 b600c7f7c2e0c20c f983c8e08df16848 9529e79768f8cf99
      b732616bd9814fe0 a74da52a7c8411b3 6cc03106015f5cfa 7eff0bc44a9ea117
      2059bc50ac7f7f7e f04c1cf6e1fdd703 059eddfb396a07e2 2fa9869abbb75962
      99c43d7eeb72cca9 242a93bd2d07c308 6cd44ec52ae9c145 988537fc07ad08c3
      8beb948ad2a8450c 1e7f0179111b2338 31abbbe0ae2ab2fd 0b889c8e4c91d5f8
      d16dcbb2a15e2cc9 f6ade02451391298 be7f661568863e80 aaf6bd76acc5eff9
      575e95daa357d7c9 e04fa18951852b69 e737ce823548f646 12bdb2e3312525ca
      4f3f187773d1dcd3 ff48a37c17f6cff2 4bdb9d12e1325fd2 884bbb255e77e157
      9a88ca7b74eac2e9 f5654fe17b469008 7ddd9bb4c2a6d52c d6bc72ec5bfd0e8f
      9a3f7d7491ea03f4 89207ed739dac1cb 64e4173a3829b9a8 de32b224c0812f37
      a84c09ca1f171218 36839493379d3844 1bef59b89d0936ee b74f9d87fbffb15d
      940d875e63245f0f ae44236c1147014e afb45f109b61e033 4183ff89509341ef
      b88f7558d1d06456 e4c3c9e3ba24551a 345095ea71716bcc b02191d27f1301c5
      35d54e08954b617d f9d34402dacb08da 3e99456034e4df6b a861c4f1a183ba48
  |}

let test_churny_golden () =
  let digests =
    String.split_on_char ' '
      (String.map (function '\n' -> ' ' | c -> c) golden_churny)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "one digest per case" (List.length churny_cases)
    (List.length digests);
  let outcomes =
    List.map2
      (fun (name, run) want ->
        let o, text = run () in
        Alcotest.(check string)
          (name ^ ": golden digest")
          want
          (String.sub (Digest.to_hex (Digest.string text)) 0 16);
        o)
      churny_cases digests
    |> List.filter_map Fun.id
  in
  (* the branches the shared runtime moved must all be reached *)
  let some p = List.exists p outcomes in
  let catch_up p =
    some (fun (o : Churn_campaign.outcome) -> List.exists p o.catch_ups)
  in
  Alcotest.(check bool) "a fresh join" true
    (catch_up (fun c -> c.Churn_campaign.ckind = Churn_campaign.Fresh_join));
  Alcotest.(check bool) "a crash-rejoin" true
    (catch_up (fun c ->
         c.Churn_campaign.ckind = Churn_campaign.Rejoin
         && c.Churn_campaign.crashed_at <> None));
  Alcotest.(check bool) "a refuted suspicion" true
    (some (fun o ->
         List.exists
           (fun s -> s.Churn_campaign.srefuted_at <> None)
           o.Churn_campaign.suspicions));
  Alcotest.(check bool) "a session migration" true
    (some (fun o ->
         match o.Churn_campaign.sessions with
         | Some r -> r.Session_tier.migrations <> []
         | None -> false))

(* Observer pins: a campaign's metric export and flight-recorder
   series, one MD5 per run. The registry exports in registration order,
   so these pin where every campaign series registers as well as what
   it holds. Three Nemesis scenarios (sessions, detector refutations,
   churn), the CI detector smoke, and a static campaign with no
   detector, no sessions and no permanent crash. *)
let observed_cases =
  let scenario name ~metrics ~recorder =
    match Nemesis.find_scenario name with
    | Some sc -> ignore (churny_run ~metrics ~recorder sc.sched_)
    | None -> Alcotest.fail ("unknown scenario " ^ name)
  in
  let small_plan ~metrics ~recorder =
    let t = Dsm_sim.Sim_time.of_float in
    ignore
      (Churn_campaign.run
         (module Dsm_core.Opt_p)
         ~spec:
           (Spec.make ~n:4 ~m:3 ~ops_per_process:40 ~write_ratio:0.5
              ~think:(Latency.Exponential { mean = 10. })
              ~seed:11 ())
         ~latency:(Latency.Exponential { mean = 8. })
         ~plan:
           (Fault_plan.make
              [
                Fault_plan.Crash { proc = 1; at = t 120. };
                Fault_plan.Cut { groups = [ [ 0; 1 ]; [ 2; 3 ] ]; at = t 150. };
                Fault_plan.Heal { at = t 260. };
                Fault_plan.Recover { proc = 1; at = t 320. };
              ])
         ~initial:4 ~seed:3 ~metrics ~recorder ())
  in
  [
    ( "session-kill-home",
      scenario "session-kill-home",
      "333109f0bb64463b0c7d2954dfc25963" );
    ( "false-suspicion-storm",
      scenario "false-suspicion-storm",
      "bddc417cd36611f1cb1df3a7dbda96a9" );
    ( "churn-storm",
      scenario "churn-storm",
      "8b4a02b5d55d52385da95fab748986bc" );
    ( "fd smoke",
      (fun ~metrics ~recorder -> ignore (fd_smoke_run ~metrics ~recorder ())),
      "6e8ec9d31f85f0e0a97b3e4b9d790a60" );
    ("small plan", small_plan, "5b04b2a916b5ac2c69748ee8c32ad2ec");
  ]

let test_observed_campaigns () =
  List.iter
    (fun (name, run, want) ->
      let metrics = Dsm_obs.Metrics.create () in
      let recorder = Dsm_obs.Timeseries.create ~metrics () in
      run ~metrics ~recorder;
      Alcotest.(check string)
        (name ^ ": metrics + series MD5")
        want
        (Digest.to_hex
           (Digest.string
              (Dsm_obs.Metrics.to_json metrics
              ^ Dsm_obs.Timeseries.to_jsonl recorder))))
    observed_cases

(* Survivors after a permanent crash: OptP campaigns with one slot
   crashing for good, every 5 time units up to t=300, for every victim,
   n in {3, 4}, seeds 1-4, over perfect, lossy and corrupting links
   (5,040 runs, about 9 s). No run may end with unequal live replicas:
   a survivor can apply a corpse's write only after the survivors'
   gossip rounds, so every survivor joins the final fixpoint. Before
   that, 173 runs ended unequal, 40 of them in the quick slice (n=4,
   seed 4, corrupting links: 240 runs). *)
let sweep_links =
  [
    Network.no_faults;
    { Network.drop = 0.1; duplicate = 0.05; corrupt = 0. };
    { Network.drop = 0.2; duplicate = 0.05; corrupt = 0.2 };
  ]

let live_unequal_runs ~ns ~links ~seeds =
  let count = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun faults ->
          List.iter
            (fun seed ->
              for victim = 0 to n - 1 do
                for k = 1 to 60 do
                  let at = Dsm_sim.Sim_time.of_float (5. *. float_of_int k) in
                  let o =
                    Churn_campaign.run
                      (module Dsm_core.Opt_p)
                      ~spec:
                        (Spec.make ~n ~m:3 ~ops_per_process:30
                           ~write_ratio:0.5
                           ~think:(Latency.Exponential { mean = 10. })
                           ~seed ())
                      ~latency:(Latency.Exponential { mean = 8. })
                      ~faults
                      ~plan:
                        (Fault_plan.make
                           [ Fault_plan.Crash { proc = victim; at } ])
                      ~initial:n ~seed ()
                  in
                  if not o.live_equal then incr count
                done
              done)
            seeds)
        links)
    ns;
  !count

let test_survivor_sweep ~ns ~links ~seeds () =
  Alcotest.(check int)
    "runs ending live_equal=false" 0
    (live_unequal_runs ~ns ~links ~seeds)

let () =
  Alcotest.run "differential"
    [
      ( "indexed buffer == seed mailbox",
        [
          Alcotest.test_case "OptP, 100 seeds" `Quick test_optp;
          Alcotest.test_case "ANBKH, 100 seeds" `Quick test_anbkh;
          Alcotest.test_case "OptP-WS, 40 seeds" `Quick test_optp_ws;
          Alcotest.test_case "OptP-partial, 30 seeds" `Quick test_partial;
        ] );
      ( "queue x arena variants",
        [
          Alcotest.test_case "OptP, 100 seeds x 3 variants" `Quick
            (test_variants (module Dsm_core.Opt_p) "OptP" 100);
          Alcotest.test_case "ANBKH, 100 seeds x 3 variants" `Quick
            (test_variants (module Dsm_core.Anbkh) "ANBKH" 100);
          Alcotest.test_case "OptP-WS, 40 seeds x 3 variants" `Quick
            (test_variants (module Dsm_core.Opt_p_ws) "OptP-WS" 40);
          Alcotest.test_case "OptP-partial, 30 seeds x 3 variants" `Quick
            test_variants_partial;
        ] );
      ( "delivery batching parity",
        [
          Alcotest.test_case "OptP, 100 seeds" `Quick
            (test_batched_parity (module Dsm_core.Opt_p) "OptP" 100);
          Alcotest.test_case "ANBKH, 100 seeds" `Quick
            (test_batched_parity (module Dsm_core.Anbkh) "ANBKH" 100);
        ] );
      ( "observation parity: wire + recorder + live metrics",
        [
          Alcotest.test_case "OptP, 100 seeds" `Quick
            (test_observed (module Dsm_core.Opt_p) "OptP" 100);
          Alcotest.test_case "ANBKH, 100 seeds" `Quick
            (test_observed (module Dsm_core.Anbkh) "ANBKH" 100);
          Alcotest.test_case "OptP-WS, 40 seeds" `Quick
            (test_observed (module Dsm_core.Opt_p_ws) "OptP-WS" 40);
          Alcotest.test_case "OptP-partial, 30 seeds" `Quick
            test_observed_partial;
        ] );
      ( "churn campaign == fault campaign on static membership",
        List.map
          (fun ((name, _) as golden) ->
            Alcotest.test_case
              (Printf.sprintf "%s, %d plans" name parity_plans)
              `Quick
              (test_churn_free_parity golden))
          golden_digests );
      ( "churny campaigns",
        [
          Alcotest.test_case
            (Printf.sprintf "%d cases, golden digests"
               (List.length churny_cases))
            `Quick test_churny_golden;
          Alcotest.test_case "observer pins, 5 runs" `Quick
            test_observed_campaigns;
          Alcotest.test_case "survivors after a permanent crash, 240 runs"
            `Quick
            (test_survivor_sweep ~ns:[ 4 ]
               ~links:[ List.nth sweep_links 2 ]
               ~seeds:[ 4 ]);
          Alcotest.test_case
            "survivors after a permanent crash, 5,040 runs" `Slow
            (test_survivor_sweep ~ns:[ 3; 4 ] ~links:sweep_links
               ~seeds:[ 1; 2; 3; 4 ]);
        ] );
    ]
