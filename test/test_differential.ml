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
      266f52bb963e8ddd 6cf25762bd424219 31648d13a02aaaf8 97f18d83aa364ad0
      36764978e25c17ee e67c88748f7900fa 8c9f4c6715ef648b 60af3b75d019838c
      3a3fe636b6a5d365 9782a1f931c6ac59 78073839a73fece2 fefe64f6cd4df190
      6627a491d6475ac7 aea983801831e318 92aabc37279c9162 3d33cf10a0c42e9f
      a64f11c91450e988 79322a4700634842 eb7259d8846d0deb 417a9026d83fff3a
      778815a4d60dba10 8b1ad2068a6fc228 cda3127ce3b7dabd 17e5d632dbadbe4d
      501280c6352275b2 717297bb552302bd c1e5c54c3f163c81 b4143566b2e8f215
      dfa4842653fa2def f5ca697a117b7fbf ffcf00801a4340a5 1b21605766191e02
      77d6e63a9fbc7085 21776f5ac23ef0ff f6d5103f8d20b786 04ffe1f3980ddc65
      01c39ef036de68d8 9c5579dad91a8306 bc82f89246012b0e 2efd9f72fe4fc853
      657147bccc7aecf1 cb59ccc6cdf8b2f0 db3080989a4ab68d 797d721bd056da19
      1a017735cce5e91f 041f8ee577623a2a c1f8744c83da745c bd562a33b4eb3f2e
      21e7e77559a505ea 64a16f28fe9cfeb7 7ac7a9e62495a179 72f493e80c3d37de
      925fe0277b71782a 69706410e1366524 207379203b8ea2bb 0f259a4f3ea6a78b
      b0fb05a70f4dfa17 dbfb62911f73d09c dc618eb3a8f7809f c3fdba89ea813148
      ff780d7453d89d66 a1cf98e4dea9c9e4 724a4fd64ddf9e00 c0e5b389d0459e69
      e81d2b8390bcd3f1 083838c69676ac40 2e6bbc24aa6ee444 63e645ece2fb97e8
      9427b8624d9ab9ef ff0e27c24937acf3 24395edf2491b42b 505eed1fb15c28d8
      4e984591f653857b ad58efbf8c5b00f7 312a216b460b7da4 e3372bfc24b39195
      720a6ff47f6f950b 17abd54b6cffa8f2 5ffe7607d1eacd2b 56e4c61efa2b8664
      1c8d49c03736f86a 5b5e7dd18a888d2c 3a2db1121a6af5d0 59c6d5e77cb2a3b4
      eb125edb59b08044 ca41649545790496 698b85758c7a19fd 56b88eb1b05f2d85
      22872be62c9c5b8c 95b6fc8540926b13 b0c0f232858f9481 21689c1557d783f2
      c94295d47fbd9306 d0867c8d3dff4c44 17f364a9d0af9147 3681733d056bcdb3
      265000a824cd96e0 ffa8ea221b184d5a 4c04aa0d1d2e0140 ca3715b1ffe6cf63
      9e9400b97e6f81f9 0c4bb77c96baede8 03440640a9fd3b33 26ee51362b95d76c
      9b5f3ca0b684111c 138a404b4d0680a5 280a27c8a182da07 28a8687c105efca6
      fbb2b6b95a6e4cce 03454327e808b957 dde38002fb234f01 ebd25cc96703796c
      c1ef293bbfd431fa c93d112d90097755 7364e43fef66b6ab 4298f12a7d73ba8c
      5c030e0d84a0a177 35fa27feb304e4a6 3c13796b79d00ec2 5f873195ed9d7e7c
      |} );
    ( "ANBKH",
      {|
      edeca33555df1860 232dd666c1bad635 842772a7aa3e1991 655730838e986f24
      2bf263b4a763c4f9 f1d4468793fb2e2c f78dbd23198491ff 10201ba2aba384b4
      269829744a70fa97 1cc1f7db5b5560fd 3ffdf67de79d2d3b 945f24068ff26b94
      758cd3891d4ef21f 25b785b02fccfc64 ac251c95be80554b 74be5663d3f99240
      f52bfc6a65538127 46dcb8d738726b0a bd0d2f09651d0f8d f409f6e26cd81e08
      c14812c9381fa22b e8d188129a58b472 fdee523ef907e58a 9c490ee93fece9f8
      aa150552e34531aa 766fd314e4f374b7 49fa4649859c109e de8ca97e04d0d216
      4d1ea7a976eda18a d5ea716f0f1283d4 aa98839effd6dd10 de6e4b3f38cdddc4
      6569c73fd3de6ee2 28799f4d2d5b5d95 fbaed725775b27a9 27d63173d7645729
      a2ef52c1d72f049c dfe7435ff9804b6a 2fab084c2c6cf975 4b7d3b1b1602a351
      da2115267a33a93e 21a109bec5e60800 98c42b5f8279a4c2 fcbbf98ec73048f0
      821bc78667a9847a e6afd3d537b30896 6d9761f81567507f 60b6cf6b07e90c6d
      2d8712017f1dfd45 a56f8106da69d748 88edc158628db664 e70622ae3903e62b
      99fffd7aac103965 37ebe5214a31da79 261123d01661236d 0468890ea26f46aa
      947dd966852eeb33 15ed609bb4134d8c 378b8708c5ee3cce c5fdc97715652b0d
      05e5dd73f93422bf 47d502ccd987c681 158393cb2baf3fce a486acdee7fa01b2
      24cd306d6a8617f1 47db027bb4740775 b9d750a52da87d1c 842c3f6845449aa5
      d40fd1a2e9ad0c5a 0c2a2fdfb7a6deb8 1ae2b8b090fe56ec 72a7e328db53d7a3
      1b0dfb95d804b818 c6f8264d816bc9e2 86e18a334a2f9881 bdb5935d2ef735b7
      df6f7dc871207425 16adccb2e20e7704 71f494f19daf5fd9 b006cfced7b32066
      6ded0f2e33fdb2aa 032db7f0578aef32 f2fc337884c8616c c03a5a2c406f46fe
      45db2b5aa55aed63 4ad64626886d9a7a d96181085a5b577c 659480b66b27f135
      9367bb6e546d33e5 5a5bd7148f512287 deaee4a9a13aeb5c 630e8d7689065b7f
      d43553a8c50b4edb d5cf02eb3900649e 04054a37c2bd7226 4e3bd0dd61f838ce
      0eecb08ff1790e74 128f01bd8ffd6ee4 438937e98468ed74 3079edcec980928f
      b5f010a26c19a45c 5ab1065e4fbf85a5 24903be372d1925c a2d915aeae9d38b1
      c8c95a9e71c496cc ce5a1a86c52de05d fc19bbf16dbb0e6d 1a1f9f8763b7c1fe
      45b7fbf18e3fab45 2797d07c5d880ead cdf5991e9d78fb25 232d9e4e12b19ff7
      a5c6fe6ed8e6143d c98de625b8958a58 f8632e707912ec38 be8fcddfa12cedef
      325ee9d26cc83f7c 79909a4d277b338d 107c8d83f15728b8 e382a69d688b4e3a
      |} );
    ( "OptP-direct",
      {|
      27006e5c7d9f1f58 0e6792e779514a6b 97c9aa841c399f91 0eaeed284e3d946f
      3519d7fed3a04fb5 14e964716a9ad5c7 a2b131f0ae26d40f 383b28017b7de282
      28a0977688517040 35271dbb9970eef0 1f2998e3474b3253 93db6785f3796f14
      f5b6454de3f74b54 99d1db6cb79c30c1 13d43b8a4e43183f 9a7b0d40ac35e572
      85f8027424ba8dc9 fe14dd084883146d b64a9927c3c3c43d 71674366e4c8dd0e
      e6f3f2797c5f24e2 9b53d71ea9ff7483 d436d0c881f7958d 99f7943c32f3a1dd
      3534a4ccad243b59 776527c7f9fb2e26 2830329981b7945a 75672e055d14bd4b
      979f1b0d4704a335 2346949c26e68d12 c0394aa7276fb00f bb2c6a58900d6107
      bfaa6ae50060de60 58964bc48e8fc3de ff43386f039dff62 34951390d0ae5ccd
      9b917f1a1b0af761 e3c0c0a05ab30699 1467d08c2ccb4fff 600875fcfa5b17b4
      dbefb771bf5896e1 960eb3f99774963a e432829ae13f9bd6 7b3a7789fbcb24e9
      ef96e9ed75dea8ff 5cb150679aefaa93 10305d61eddb02e3 e7a5fa7f5b5b6bea
      a5f672e10b8a7e01 aa1b1a27e470a638 2b7af0fb91cffd4e 0e7ade0dc66787eb
      dc1152ce8f0bf28e 8efc3bc9a5abd842 bfb7bc88ad3d8071 41675c6beaccecad
      884b288e8dfef511 31294878cf8511aa d32a40cb5c3dc794 6cb902302049c203
      bf4bf2dfe6cc3e84 6cdd09e050be1c73 85614d0cb337abab 8fc18fd97d04fd2a
      de5fc98da8f020cc bb01477fa438d9e2 e752d390e9363cde e26d546bd121578d
      7bb7ae5a61c4ccda 04e17fad6910067c accfcf60fc56be24 296e70eaac4170c2
      61681dbd36da9a7e dd47ed8ba53b4f56 78272f0ff0343c81 0c42cea643102045
      3e45154c8f8977ca 343302e5902478e4 114663f5771dfed3 12bbdc81acb8db87
      31e59f231a67dc9c 8ca2e7b1a13e395a 91f0cdce99b7be85 fbbb0354e7712c61
      bc9d2bbff448c315 d560784215d3262a 199988bbfdf05b05 669d967e70a4fa55
      f96e45fa1bf07204 f22aedd163a77b6e 7286553eb8968b44 926941cbbf4a2f19
      deec0f749a4644d3 cf0066bda800578a 88cbff3949acf461 1d30e04e422d2110
      6c8cf12db78c9ce5 5d16668425864d96 f37a6fc1afc0340d da5a8759beb4e9d6
      2ee1b77e61c7a240 3167c75a7e3119c6 2b3730e06aab3b50 24f109e90ae2888f
      dd4d1680de0cb679 d48bd5d7f49d39a2 be16f97542816291 9634e943091d6b8d
      025f48afb69abbf7 d3cd6371878e2b94 30bf1feea40ef6b9 eef412c09d8898c2
      e2c484e27357e413 2feb6906ba17de94 974c213235c9b2d6 c3d4872cb0e14dfe
      93ecfe94a99d2342 97ab7e87e8d6312c fe113daea5ee44b9 bbf60984c9a838df
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
      6a6fb3411edad729 f3910a5f1b61f68a 63e885a37058a29c 4b83d9e06b22882f
      fd8e0840df9de16e 8cafe5f77314d9ea 7ff5aea849dd0b65 aaadfc16f7454b18
      c08a13ee33bd47a1 fe1279b5d9bc449b 4e09bdc71aaa3a21 f314c5b20c971f10
      ebd56ff4c9536e6c c7593247efff9f19 3a966ed9a14f649f bb47257104b8004e
      be1963d2f2341097 d68a4e81979a5cb2 39c1d8d5abcd5905 f64e3d631ed73fae
      c64f374863fa3f65 ec8f266e37356a8b 385a6c309c157265 ec81e135ce369dab
      1691ed518635d8df b18c2a5a16ff550e 4a240a43327f7684 5dc0b877803fc9ed
      75f7148876963def 6abd2b0451512419 2aca3b132d631fb9 9cb39b94db7e633e
      972f6fa072277298 7a19b4ef19d53f5b b4597cd9f6739d66 8463642d387e7244
      ced19104ddc6a3a8 324ab27bbe7eb33e c4c8cea7bfc4642e 09722c61dd2470a7
      4e3e806e858c6780 610d5f4916111217 187c17241ac8b6a7 956830a12454770f
      cc990051f296daa2 c8ae781b4a1e498d 53ae7d7ec8c18ecb 720745b66fcdad62
      8bedc275b424ef15 09eb727809faccdd 4fa96e0ef15a7433 8b9765f8f3b1d7ef
      fdeddd081a55bea6 ecac2cb7a9d5c2cb 0e9784a5cc31590e 12f9cc4fd11f0b95
      f42340e89b0d7e7e 313485eb1897882d d08ea74036f5b83e 3f253f69d0856891
      1e6a1c42c2b3dfb8 af2670cf9c05359b 79ddf89c75b7c753 2f6246f058a31e45
      d8bee0f5cfb70c94 6cfd93ec26bfc3aa 83a6cb6f7b8df9ea fe80d5e120072665
      8847ba4a6aeb7406 38e4e793b6c3ab9d ad6487f63cd8185e c75e1d1efe766f2e
      28fefa2b2b649743 1fc2c8816a6fd37b 39d38a1cf9e72f03 4b6cc7750aa6fbef
      7a6ef6ecdaeb0057 adddb7b888bbb65f 0e2c8baf9918c3c1 8160c5c740308e5f
      005c948d621c5d6c cebaa2b8ebdeb408 9d60b769527b1636 b0c11947c14a0bed
      0ff9ebdea433553c 5561d29de0e78d10 49c533b631c7b965 9b41876fdacff7f7
      377434af8509aa7c 4d27b5840f827603 31185d5f4818aeb4 a0a3317b8ba841d0
      bb4ae004afc791a8 7aab9f667786202f 787325a23d8e5d8b 78613c16d94e124b
      1eec88d88c7bf8c5 9a480eed6cc77fad 9f6c390e7614234b 4074656b61a61457
      18b7a27dda3806fc 63637df693a6651a a8d34d8e4533aa1b 5520e566de36fdc2
      a81f3aa723e655ac 3babb23ace821a28 eabf376e9f7c186a 319459b772d30836
      ad798dd32d6d7b24 d920d5bd3a44267a 1fc30041df688940 8f52b662b24b4b4f
      30843934b0665287 a8cb381e7ac45c2d c8ddf6c218dd60ea d9abe9577da99aa7
      15b993a4cea62ab2 4e17114df196a147 c663e4337c0f6fff 98fed3eb9b6a1b6c
      f5a7a6270a9eee64 659d121ad4989624 c239d8f5f72b583a 3a0c0366d0c9ad5b
      9e13f525b7ebce63 e8c3df3deac448c7 e1a2a2078228c21a 9bb2aab9de22da17
      197b7b315aef681b 395a6a101cae3d5d 5614d6a486dd3182 e440063a93232389
      4e0a78e9e3c9cdef 038a94db7fc7f48f 0669ce53c1126a5d b391b91b84e64028
      9128e8340706e39b bcbbc14dc2815ebb ca34cdda8f7b2ce6 c3c3f46fb5133ba4
      da16502d042904d1 244dbd1d7a8fdf30 399024c2853dd850 3fab76b7c701a4be
      de051a6490f2d883 6f9e95cbd6d8d640 8369cd30d5966f3f 099d8fe9a483a6f0
      6455847de2c7ff8e 6ca798ca15ab68f7 7cdffbcde24ca833 f58c3817cbc8f88e
      e47fae95ff6550f5 55ef28eb7641a59a f7eaa1acc5022c8e 7ddc87774f989fa2
      d417dc7fb9054cd3 38188496a3452417 316e940df83fcc91 2bfe506781774c41
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
      "cc5a5ea76e95ac20abc3c4bd26b7c879" );
    ( "false-suspicion-storm",
      scenario "false-suspicion-storm",
      "94a6d6949f9d74260000836323dc8a00" );
    ( "churn-storm",
      scenario "churn-storm",
      "95fc2663d16f14f2fc58e86b7d14370b" );
    ( "fd smoke",
      (fun ~metrics ~recorder -> ignore (fd_smoke_run ~metrics ~recorder ())),
      "ea72d33ac5476ed32c0e181495273d08" );
    ("small plan", small_plan, "4f0b527f30cbc542cbc67ea75ad371c3");
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
