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
    (History.ops o1.Sim_run.history = History.ops o2.Sim_run.history);
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
      2b2ce30a351d6583 7434703beb8f1adb 378f87e3b6b574e8 2d97da53809b92bd
      1356b2b937a29031 24f1cf2db01715b1 3513f8e48723aa4f 967d4ce41272a008
      9c401ba9affd2860 5c0d22636d5943ab e4fdeb1b18ee3e03 180ec57d0a5323ee
      15bd9b45698d74e7 05872b9e636c035a bb74b8f719a7d4e8 1288d94d4705cfcb
      356877a94f7e6175 15c994d1037d7ae0 7e2d9e0456890033 13a32e9bfb680e23
      8e9afd8503bb76c9 636974a88002af2c 81d26e50122a6929 c8a2ca904cbcbee2
      e1d7bf35c7d38420 5c690ca2696164f0 539c9e06c8aa6223 a9dd1ba977a33e58
      f49d584cc5e44296 6b3e6b504a1c6eaa 7a3fcb3f0b60eb7b 0b43afd8d3aabe78
      6bfad6113e8157ae 4d01a25bdc6d10eb 76c040b131c9b008 0a5f8dc6dfc2a3d4
      ed6099fc0ebc0e51 16476b2d095a2a2b af706cfca2ce9e32 82f75f38f3d41690
      6e1851196a3e6ce7 3a50d2ead8e0bd53 2512cf2ca6a13d2d f9b213774c9f10b8
      ad26c091a6d9878d 8a30811a01ba56f0 ab2f5fb614c96775 ec4f3d42cfc89def
      aec46b5f5e99879c 96a0ba8797e7ffc0 29bc6ddf17d4aedd 7f8f06df55c6bfa8
      dd084474143947d6 a1a57861281e8b24 23554375c49a89a6 aac5d223464cfd27
      3ffed5da7927003b a95b6f6de7670669 71f9a06d29924692 95a77f97f7697dcb
      647e0554841211ca c972a4bf33483a49 8cae73bb419fff96 65e7f9d5c8a3f36a
      5c478e4bdb628e24 19eccc5a18f9c058 85f40a9d4426e929 77164de6e33052d6
      ecf84223fc1433ec f23f093bc15c34b8 286dd3dd32cbdac5 0239380e6d71ca6f
      43ebc4cf6fc73839 221cb03dd0675d91 272dc82ab4b496fc ccdc4bebc064c952
      1b6cf230b1ca785b d10546bd0057f2b6 b33aea0a3961c3c1 026b944e4ea798b9
      a90a2c2fa8a96c5c 0d572867d3913c43 527fedb7e009e584 1b911f320ebf3f28
      7467b158d0538df4 ca9ebba23d1c9f08 f2ea61cc5855db3e d745e7c093fa5514
      e576a6b588493a3d f2897de37324dd01 c36172999c67d886 6e4e648e195295d1
      2e1f92f1569f5dea bbc524e9046fee9e 17f42fc8b09cd103 96b1d5bfaf06b1e3
      2b61a8b27dc37501 41c7d8e14a9993ca f2542a0e672c7866 8f5d85bbcf28fb1e
      15745be7e11c137d 5ed3e5122722d8e7 84fcfc368dc23a90 d7dffcbca342791d
      84b3a3bb3f6c3a9f c8065611053221a8 fe3de606ccb8980c c5c3b3cd44d82ca7
      8cf190fda4e1801a b149cc9d5bf5d444 90030ca5062f00fc ad4714fab5f5093b
      d1dc31467c66891c 0c3618a33b446fb3 734c54c171c0dbfc cc6dcf7003771de0
      48a34a4030beaf67 a1d4e24dbb729c15 db1fb0ba6eea9e29 994c986b033004e6
      |} );
    ( "ANBKH",
      {|
      956b85903ccab3b7 b61c58a83f7e7b5e cbf4b17476616ef9 c2390e1d6a5ebb69
      7cb8266b901837d7 a7c80eca926b8d7d 5234b9eedab0e597 48ffec4e4e7b5d01
      321bc55e82d1a548 730b7579c26154c5 a3b2d626cade316d 30d61348c5b13ece
      d62703a9713e7785 7b3b3e69982dcee1 96d7d1fc6d1ad328 cfe13d75d66f8852
      374fb7f49483cf36 a2d3d63fd47a86cb 63a273298ba52775 b72acc5b4a62dcb4
      089495d8dc64e0ca 6eb6a45ea40522f5 f53f3fca89095e52 ee481ee77c4944b2
      cc8b20f06d617504 d7ce6364dedf0c37 5dfc571660c639ee fdb0fcec2f6b858b
      492f3eb68c23d8ba 8319101dd34e816e c62e463e5fd27468 9da19e38e59419aa
      c99f99abf1ce1c9f 97979ce7e8ec0e8b 9a9f6e6b808c6623 1d3ebf163eb9804c
      5b6ddd70ced0ac91 c1b0945149c87c10 dffa3e15e3dbe60d 27c8eece609cf2ee
      6e478d6268900b83 449a62f933044e44 5223338b2ea5b1cb 19f3bfed0bbc0921
      9da6d1bddb0610fb 3e20251cd6b607ad 94a6d1af23602bba 8aa5e49df302c1ac
      d6dfc8d5b767e265 913eec3d1803ae37 beda0dc82bddeef9 00f527c5bc5ee795
      2d1e78c5f52e808a 8ad417884eddecd2 7dfed9cb5f0226a3 55a24d75858d36d7
      7ca9e4129fe015d7 4acf93b3e5e85595 13088db7c4c29a3c 65f3830f7f64dfe9
      6f032a1583cad343 1bef68b626722af6 7d591827dd647c7e d70c129df891e401
      2b55fd13bc4ca08a 223b99c065ae5f06 23775ac6c54178db d95014da8b484e24
      fd77e1b5c6d3093b 100107742403a859 28f1cff0e63cd162 a0e59d2fd3e001f2
      d23a0bdf3d7a7149 9b3b2c89bf032ec5 d056063f1836937a 6ea555dea50d0f67
      08482b3fb051098f 0316bea0e499b2bd 0b12bcfc3d3bd472 9009dc3a000fcf34
      625d2d9e057cda9d 3bab24cd753df541 6654cde6694e256c 72f1f8233bb905dd
      4b418aa39053022f e7316f5e52a947bc 1dabdfdbc0077a32 b5ae41ba9ec9c16d
      b3d01b6b83f3408a 18b4124b1358accc edcbfa79ad9245a9 9d25ecf3d580270d
      c3ce9bae54bbb141 a4bbc8ca0c26ce1f 3024ea08ff4caffe 8c3593400c612491
      2ad753b722839e24 e29b65a90243974f 179480ac0be819ff 7b72ebeb12cf1ec2
      c83e24538af23a48 a95ebcb612688f2e 05e15ef2856cd75b f8124828051c2e1a
      08af8c3423b7eaf8 03962954b4d2a56e a6b1164812c7a8c8 8dd4312a850554f2
      f9781d2f1f200a51 adcd2b200ccefd6b 5ee818a391f8fdcc 988508292623da6f
      d4dbcfe0263d004b 09dd05baaa149b24 498e1cbb733f9c1a ba1abcd15f15712a
      3925c9e2eea95f9f 5f07b8eca143cbdd 79b7387bd4298dc4 7f5b1cdab22a39b9
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
      d54f2f313e3506fa 6522895a415633e1 afc93ea2381e2542 b90099bd6966474a
      360ae4e50d90fd4d 5930d4356dba589a 600d5675229b210c 6d97afff8889df37
      0018bb862701e7e2 e6239f5522e9ec26 0f5dbe10c770fa55 e0447401c76daaf4
      761a2514079f44eb cf556d7dc39d2216 28eae8ca47eacbdb a88d8f33da5464d5
      6fd56e146a3e2702 0cc3468e3de7e361 38acf820342cf645 ce45eb32c4f737bf
      8960422de6aebc7f 24d38a3fa54521d9 d0bfcdd290ea3dcd 2ab8aef7cc494ac5
      074a0409384256b9 8f555053737a2149 108df7056871059c f0bd8a9e315e4c22
      c5f201608b50834e 8e06a4910642b9d4 77a3b4a8223dd94f aa139593ba7a6928
      8ba8fa4482c048db a535787916642b49 11f30982e1015cc3 0ad46fac3afefd54
      a05750f2392bbb08 c5628b20a4b5c54e 3d989d7404b21a69 73f746f1cbd25963
      69a0decfb6b3b4d8 9243b1532cf2d2a2 359af81ca1050628 0797a1b5ff8edb1b
      81d3b7dae114986f c8c74428505c76cc e7e272b528d25fc7 e2ae580b20bbdb21
      2f767525b511fa91 a7691c59b06f34d6 54c457d5be34712e 3ec614dc313f4cf5
      3d14efb8ed208bb6 209c500642780b1c 5ef63a75f8b5be64 0e44bdeac0281834
      b68fdbfae439d468 76cb9a30b6d952f3 7a33daaece0015c2 f1ad7e2b576f2567
      0ee00519baf60e76 fd79e5b0bbae7e03 71a69fa3d2091436 899e75f18eb3a8bf
      e1ccc3350cce6c92 bfdac9eeac685394 3054e554b5811036 b7996f127128a888
      7059511a25fa1483 def3b016065681bc c438280354f1cba6 77abbd24ebc3fccc
      aa3496906fc9bdf2 b96107a8f69c3699 b7c20d0c6fde7773 e690084123e93768
      34e92d504a960a55 dc20ac751b0226f6 954b1fbd16b4a993 6ae2691fb98788a0
      19a6fdd24e0c5f51 45560542c8c72085 8292045a6903bc03 0405b9fff41a0f5c
      11cd87f652c802a3 056f145288ba36e2 8d02ab1b6046e0a1 5e31cb97a4f1dc1e
      3fb11638038d331b 381e7d502da8d9ec cec68c3380d20a33 24d2f88e0aa81f46
      14951d75fe608aa0 cb704756a99b0044 8740c92dc095b007 0fe38cd6991a9dd8
      1cf6c1b96ba54fdf 87c87c9bae087c1e 2b5ca5c64e457aaf 5617c892d76228a7
      9040115b005ed350 745fac59bf72c65e dc129f11bd87c538 0d1977bb939b2e57
      e60293a5466b2b67 84183e73e1f81232 92d93ff9dfcfd71e eaba4519f1d052fb
      21b779c689892035 fcbf049143c59961 eb71bc3b68782924 7eff0bc44a9ea117
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
      35d54e08954b617d f9d34402dacb08da 3e99456034e4df6b 1f103ef9692bbbe8
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
      "517f598b0cf77b53b533636f05e902c4" );
    ( "false-suspicion-storm",
      scenario "false-suspicion-storm",
      "bcaea8f32c016222266ffac713b4ff00" );
    ( "churn-storm",
      scenario "churn-storm",
      "8f70a91884b6ed7d3c0ffa9ea243adcc" );
    ( "fd smoke",
      (fun ~metrics ~recorder -> ignore (fd_smoke_run ~metrics ~recorder ())),
      "ad3318d6c454b36be836d6cce1ddebd4" );
    ("small plan", small_plan, "568cecb4c6a01958775c3754bd468c62");
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
