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

(* recorded from the static driver: the first 16 hex digits of each run's
   [parity_text] MD5, in plan order *)
let golden_digests =
  [
    ( "OptP",
      {|
      266f52bb963e8ddd 6cf25762bd424219 31648d13a02aaaf8 19732c846a74ead1
      56ee5925ec555c74 364e3ac6db5e636d 8c9f4c6715ef648b 60af3b75d019838c
      3a3fe636b6a5d365 9782a1f931c6ac59 78073839a73fece2 fefe64f6cd4df190
      70988dc3524bd954 b63698cada56e179 0f32e6668c6f0e37 3d33cf10a0c42e9f
      a64f11c91450e988 79322a4700634842 eb7259d8846d0deb 417a9026d83fff3a
      778815a4d60dba10 f2100b75ee817ce2 8375e385d344f715 9da32b28c18caaf2
      501280c6352275b2 717297bb552302bd c1e5c54c3f163c81 b4143566b2e8f215
      dfa4842653fa2def f5ca697a117b7fbf d6afdeb983fd76ac dc48834c23bbe113
      e53bc079dc33374e 21776f5ac23ef0ff f6d5103f8d20b786 04ffe1f3980ddc65
      01c39ef036de68d8 9c5579dad91a8306 bc82f89246012b0e 1586e1fa0a137bad
      76df940cd03b04a1 6f6950e83c4641d0 db3080989a4ab68d 797d721bd056da19
      1a017735cce5e91f 041f8ee577623a2a c1f8744c83da745c bd562a33b4eb3f2e
      d48042b13547007b 2ffe73e461a95331 6606078dc70b9d57 72f493e80c3d37de
      925fe0277b71782a 69706410e1366524 207379203b8ea2bb 0f259a4f3ea6a78b
      b0fb05a70f4dfa17 37bc2edc597a126c d87ba8cd4b96993e 35e898e54a9e6912
      ff780d7453d89d66 a1cf98e4dea9c9e4 724a4fd64ddf9e00 c0e5b389d0459e69
      e81d2b8390bcd3f1 083838c69676ac40 2fe745b41d62bc4c a9627b262a8464b0
      38634f15312bc3b4 ff0e27c24937acf3 24395edf2491b42b 505eed1fb15c28d8
      4e984591f653857b ad58efbf8c5b00f7 312a216b460b7da4 0fc06f253eca697b
      2d652c7129a7cb9e 1ae44516f5007180 5ffe7607d1eacd2b 56e4c61efa2b8664
      1c8d49c03736f86a 5b5e7dd18a888d2c 3a2db1121a6af5d0 59c6d5e77cb2a3b4
      ca8b173a7985b8be 7c0201e39a0b0b9c 89988b073334c242 56b88eb1b05f2d85
      22872be62c9c5b8c 95b6fc8540926b13 b0c0f232858f9481 21689c1557d783f2
      c94295d47fbd9306 d8c12c9881c3c2f7 bf028efe8d5fc586 4dad47dd8255d0ca
      265000a824cd96e0 ffa8ea221b184d5a 4c04aa0d1d2e0140 ca3715b1ffe6cf63
      9e9400b97e6f81f9 0c4bb77c96baede8 a7cb324380f36740 dbc575541ef40f36
      5d9c46cccf1a0720 138a404b4d0680a5 280a27c8a182da07 28a8687c105efca6
      fbb2b6b95a6e4cce 03454327e808b957 dde38002fb234f01 7b2ceb451110e6e7
      8cd7c3b3a513be03 aee1c7eef8ca214d 7364e43fef66b6ab 4298f12a7d73ba8c
      5c030e0d84a0a177 35fa27feb304e4a6 3c13796b79d00ec2 5f873195ed9d7e7c
      |} );
    ( "ANBKH",
      {|
      edeca33555df1860 232dd666c1bad635 842772a7aa3e1991 39923f562e144ced
      6d1bd378e895e6ce c54f7ba9d32d1c70 f78dbd23198491ff 10201ba2aba384b4
      269829744a70fa97 1cc1f7db5b5560fd 3ffdf67de79d2d3b 945f24068ff26b94
      69f9c1de2877f7a4 a21fb05bb1c50bd2 c81e6f35ab11a637 74be5663d3f99240
      f52bfc6a65538127 46dcb8d738726b0a bd0d2f09651d0f8d f409f6e26cd81e08
      c14812c9381fa22b 8876a815585df041 13c0cc0e4cba184e 8df000195bfabdd8
      aa150552e34531aa 766fd314e4f374b7 49fa4649859c109e de8ca97e04d0d216
      4d1ea7a976eda18a d5ea716f0f1283d4 85c49896a91955ff 6dfe26c77417f846
      23d54d623e8a99a5 28799f4d2d5b5d95 fbaed725775b27a9 27d63173d7645729
      a2ef52c1d72f049c dfe7435ff9804b6a 2fab084c2c6cf975 784920c227679673
      ada66f60cd43df85 7d64bda8952da690 98c42b5f8279a4c2 fcbbf98ec73048f0
      821bc78667a9847a e6afd3d537b30896 6d9761f81567507f 60b6cf6b07e90c6d
      4b443369275dd2f6 a317b859012e7412 f5643ddeb75cc0d5 e70622ae3903e62b
      99fffd7aac103965 37ebe5214a31da79 261123d01661236d 0468890ea26f46aa
      947dd966852eeb33 0e8883e9c45e94e1 2e5966ee863a216b eb9baefe1fc2bb7c
      05e5dd73f93422bf 47d502ccd987c681 158393cb2baf3fce a486acdee7fa01b2
      24cd306d6a8617f1 47db027bb4740775 233179fc28b869ba 07271d1ac9620707
      20e58d0c169a57e6 0c2a2fdfb7a6deb8 1ae2b8b090fe56ec 72a7e328db53d7a3
      1b0dfb95d804b818 c6f8264d816bc9e2 86e18a334a2f9881 724a13fda421e7a1
      427a9d7b1268ca3d c0abe8ba606848b0 71f494f19daf5fd9 b006cfced7b32066
      6ded0f2e33fdb2aa 032db7f0578aef32 f2fc337884c8616c c03a5a2c406f46fe
      3a55303135479173 d725590cac564416 754ff0098d3ca3fc 659480b66b27f135
      9367bb6e546d33e5 5a5bd7148f512287 deaee4a9a13aeb5c 630e8d7689065b7f
      d43553a8c50b4edb 8e4bd214af996598 169b89c2b5279af1 8de71773599aa784
      0eecb08ff1790e74 128f01bd8ffd6ee4 438937e98468ed74 3079edcec980928f
      b5f010a26c19a45c 5ab1065e4fbf85a5 a5089e7e1cc94ba2 e032fcd0c9d09dc1
      a34e9b4e77436667 ce5a1a86c52de05d fc19bbf16dbb0e6d 1a1f9f8763b7c1fe
      45b7fbf18e3fab45 2797d07c5d880ead cdf5991e9d78fb25 49911cc4aab03ecd
      5ce1e8283769a055 5e232f28715aa60d f8632e707912ec38 be8fcddfa12cedef
      325ee9d26cc83f7c 79909a4d277b338d 107c8d83f15728b8 e382a69d688b4e3a
      |} );
    ( "OptP-direct",
      {|
      27006e5c7d9f1f58 0e6792e779514a6b 97c9aa841c399f91 68ae78a703776956
      644bc2d9fc8f70dc 292db705b9bcf9ef a2b131f0ae26d40f 383b28017b7de282
      28a0977688517040 35271dbb9970eef0 1f2998e3474b3253 93db6785f3796f14
      b939ebef4178f7d5 8ee63934349dc210 7f305683b24bf827 9a7b0d40ac35e572
      85f8027424ba8dc9 fe14dd084883146d b64a9927c3c3c43d 71674366e4c8dd0e
      e6f3f2797c5f24e2 7d7b0083b95b0df5 85f85ff34784ee60 a4e43302432af9da
      3534a4ccad243b59 776527c7f9fb2e26 2830329981b7945a 75672e055d14bd4b
      979f1b0d4704a335 2346949c26e68d12 d03b2375c7c981a9 c3145fc789b7f8b0
      0efb0bb49e8d88ce 58964bc48e8fc3de ff43386f039dff62 34951390d0ae5ccd
      9b917f1a1b0af761 e3c0c0a05ab30699 1467d08c2ccb4fff 3afe3456298f63bb
      1384b11b44bcc41c 5b76ee9c7e6a6821 e432829ae13f9bd6 7b3a7789fbcb24e9
      ef96e9ed75dea8ff 5cb150679aefaa93 10305d61eddb02e3 e7a5fa7f5b5b6bea
      2b98263c0890daab 42fd61b53af132e3 62f49b4bcc8c758c 0e7ade0dc66787eb
      dc1152ce8f0bf28e 8efc3bc9a5abd842 bfb7bc88ad3d8071 41675c6beaccecad
      884b288e8dfef511 aa8ead885b9f78cf 57f12546a101646a 06773e1e02916531
      bf4bf2dfe6cc3e84 6cdd09e050be1c73 85614d0cb337abab 8fc18fd97d04fd2a
      de5fc98da8f020cc bb01477fa438d9e2 a4a5edec63983575 85dff9fe69eb2d37
      76881cd76beed899 04e17fad6910067c accfcf60fc56be24 296e70eaac4170c2
      61681dbd36da9a7e dd47ed8ba53b4f56 78272f0ff0343c81 758c8e8f3a18b7f2
      43b1c66072a508de e9b832f7f881fcc4 114663f5771dfed3 12bbdc81acb8db87
      31e59f231a67dc9c 8ca2e7b1a13e395a 91f0cdce99b7be85 fbbb0354e7712c61
      b7ca7bf6774867c2 0d052b9efa710659 ae2a1d5b1df2fc95 669d967e70a4fa55
      f96e45fa1bf07204 f22aedd163a77b6e 7286553eb8968b44 926941cbbf4a2f19
      deec0f749a4644d3 a0c71a91de0b88fd 40c1f2ca605df768 1d11c61d5fd358ac
      6c8cf12db78c9ce5 5d16668425864d96 f37a6fc1afc0340d da5a8759beb4e9d6
      2ee1b77e61c7a240 3167c75a7e3119c6 4793c74e9fef7f50 66ba88572a73344d
      f5c71ec9769d66b3 d48bd5d7f49d39a2 be16f97542816291 9634e943091d6b8d
      025f48afb69abbf7 d3cd6371878e2b94 30bf1feea40ef6b9 d3a1b5eed76cf8b9
      eb4211b89a30ab64 b78edf5b3935548d 974c213235c9b2d6 c3d4872cb0e14dfe
      93ecfe94a99d2342 97ab7e87e8d6312c fe113daea5ee44b9 bbf60984c9a838df
      |} );
  ]

(* The unclean runs, pinned as they are in both drivers with the writes
   the audit reports lost ([proc:dot]). Each has a slot that crashes for
   good under drop and corruption, its send queue abandoned at the
   crash. On plans 5 and 113 some of the corpse's writes reached no
   survivor and are missing at all of them. On plan 95 one of them reached a
   single survivor, which held it buffered through the survivors'
   gossip rounds and applied it only afterwards, so the others never
   apply it (live_equal=false); under ANBKH that survivor's later
   writes stay buffered behind it. *)
let unclean_runs =
  let lost_95 = "1:2.4 3:2.4" in
  let lost_5 = "0:1.3 2:1.3 0:1.4 2:1.4 0:1.5 2:1.5" in
  let lost_113 = "0:2.3 1:2.3 0:2.4 1:2.4 0:2.5 1:2.5 0:2.6 1:2.6" in
  [
    ("OptP", 5, lost_5);
    ("OptP", 95, lost_95);
    ("OptP", 113, lost_113);
    ("ANBKH", 5, lost_5);
    ("ANBKH", 95, "1:0.17 3:0.17 1:0.18 3:0.18 1:0.19 3:0.19 " ^ lost_95);
    ("ANBKH", 113, lost_113);
    ("OptP-direct", 5, lost_5);
    ("OptP-direct", 95, lost_95);
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
    ]
