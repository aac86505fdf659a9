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
    ?(arena = true) ?(observe = false) ~seed () =
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
      ~arena ~metrics ~wire ~recorder ()
  end
  else
    Sim_run.run (module P) ~spec ~latency ~faults ~seed:(seed + 1) ~queue
      ~arena ()

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
      bbaa7846520f0ab2 6221f3b41b18c8e3 8cff20457f9c76ac f18443ced4fca22d
      6443ad70c9daa307 f3e5a038f52a4226 de26f9285faaabd1 06b1977690a7de3f
      d33c82a2ca42b1bc 6ff98b77f13ece00 e4c4691da7d4b59b a675671b950c4ae7
      1a278963a4bf753b c5d342b0259e9199 728580a66cce294a 0ba8b36afb39270e
      c40c9c6a93fa57b1 a3301fded002b2dd fbde2a226a13f848 b1112ba708b6a626
      6386a4895da3f97f 940de744c4c89a09 97e6569857ce307f 21907c6cd9e6c9cb
      6b5b0610681e4abc 2e2078db3408b34a bf95d09b14a6580d 3694a6a591079310
      0d5fb36c89457466 851074bbecc17f67 95699cb31bbb4afa 605239e535f0019b
      4ee34cd7aaf5aca5 b98c1882562783e8 332ca36f6e27424e 56909acaed0c62e5
      25ff25c1ee06d5d4 f53c86173d46442f 83f3f8e96d8155eb be9618ecf22ff8ee
      1aeff71e6502d3ed 99b97c7b85097eac 7be6b4a4324c1bbc a556b7671d774863
      fd6e228dfa3a9843 6a17b6d395b1cdfc 19963a6186005a06 cf90ed5c4f461455
      7d672034ad692343 05aa6b87f62ffb1a 4189ed4a87d75ee3 a27e29a20be8b1c9
      6c1224598a4e5626 0eabfa41df04f99e 2a8f77a620cc4ba2 72fd16be2ae29f93
      26fb72723a243d18 0f4e116c81bc0407 1f84394e00e662ba 1064eba29de34b40
      2855555002e94dd3 e4e24c6d3c44dcac 7113f32e7b8ffc18 f30d9ab4e729c7e0
      ed3316cb7f09d6b5 2162c6c25dae04e6 f343ed176f054d46 c0f0e031c29b6f8b
      99dd9a3c6cc573db 1caaca85a8646bcf 08435a689c66aa15 4daccd7d2f4628e9
      c29c79de37adeab4 09c7b6c6646abb56 7641e088411ae246 8987ea87ffb28e14
      cb4e9fcd098f6dcf edf1614d3aeeec53 8373cb799fe2c99c a66772dbb6bc2dce
      8dcdc7279af02935 0def08d478835dd5 541d08066c3ef607 94f913cf83430265
      bfa074f703094d50 918961eb14903677 4df22e4550ed1be0 a088d8bf5921933c
      da7b4ad5aa1048d8 d6af340854057c99 6427a1397bbfa677 faf852fcef0ad437
      42518a52a72ad62f 5dffb0bb675a263d 4b974f043b22634d f98774f45a83a266
      36c7f6f2a35eb102 3b0d1eb6402dc972 737ab37534c26486 10f3e1c609b66272
      5240b7566087b7db 101b8e593d08fa42 6d17d9aa1f3bcaad 373d6da3c4d7dadd
      9f8a92ef98ea3f40 521c00ba2b700149 787e9734f630b381 d911ef776d1e984f
      2066c7893d4b321c 1b185f7acb90964e 8bc02f1740a371b1 9a276dfa2e284a4f
      e355a6fb0c110e85 31de8a648e28bb9a 59b4305fc51343d8 d8a53cd1aa14204d
      820321346cebbfc4 9f339d66079cea89 6036c84ac98f559e 47316b75b8c39ad7
      |} );
    ( "ANBKH",
      {|
      12a7e17b223a3817 cd447e95875e4214 ef7384a1b2e19a14 4d9cd6dfdf9c81c7
      badae209f79d83fc 143c4088f013392e 366323969fedc5ec 606ae10536f8f1a1
      392c2fc951698388 deb1849a1fccb492 ed8ae3be1207c7c3 224e9491b5aaa668
      d95e18ae9dc4db64 d017066f676e03c3 b33d2516f18ab46b 302099e43eeb5b53
      a8572e54cdca487f 922dce61f61a311f f782850313feb0a7 9e3aabf101bb4877
      d19e5842b694c1e4 ba76729ffe1c246a cdcbef3de005aa6a e5acef1e424e8c72
      e0bafa8ed60fbb24 1c74be5c63a22354 0d655a54c7234e36 61ce07654931b9a3
      a72264bee8f0b120 4ca047d47c99aaa5 99ce589880b85ad7 43087aa570a23b2a
      86d636258f270661 108c73de889e805d 46b869f43c9d8ca8 440cf7eefe893d4c
      fe45e5c238292031 0f8dbb80f390a380 126368bb73ff62a1 f1c6266ea9a11d09
      a8f87749d4094ba3 bdcb7f88a38a327d 4f8bcb6522701e08 f0467a80bc1d20df
      eb8caf4fef85fd2c df281556e76458ce fd6254bf70f50547 6533db8950b06d97
      458065905f660f19 fcdffdb522470dad 37ccbabca8ff77da 1771fdd0a0835a13
      a53c5d2d3b6d6ae2 adba0f3be962e279 488ba16052501d71 8d9558d9a712edc4
      c76b91f226394e6d d6366d0b3eb3b2bb 90215678a45e76f9 cbb2c86ef502e289
      3989cc44538b56d4 0a8d78292fd176a1 2877d4ce25f5e4c1 1559a420c0ed67a6
      af35f7b612d264ab fe28fa2f5b943bd2 8243721ad01eead6 afd714a83878dee0
      d9c6143b16fe6e4b e64c53ee7569a128 ccfcd17462c9d009 3b1e1d0559738272
      f1422b41fb9dfb23 e7054b521fe2a080 e1b8d58409f26a8c da6ea258f68e8e5c
      2ae6ad8384829f25 332cd0512996e45b 361efa151d38394a 10548d664decb7d0
      040a268b314f966f f1a946d5a1f61cb4 900441020181bc2b 30382b00b418c310
      545f0002dae05fd6 7203908ea0d24b40 93a25c769384078a 187d8dd4ccb6676e
      c71a4028a3a1e1ae 07c4f2814b7bdd72 63425ba201efcf1f 9f2d28ffbdb7f814
      11dab65ed58d1a41 11a89926b7ba94eb 44676fb51e5b3bc2 867c2e2dd2117b4a
      7e3f6093a63b6a68 79b6817c395a44fd 7222c3665bc6b0e2 9a9c3aa33da8c584
      d9cdc18e427be446 b64858cf07e15c96 2f57ce8f57f25dd7 c236bfce362a6f57
      58797b0743387368 4ad5ec52b97b9c89 88a792931d762aee 5e845333c916b4d2
      83ca9ba8aab50bc4 57c8e4a05d377d16 d6599ae5bf31e11d b7586f827f718c83
      f6142b9f8a3cb808 d09497f1a6d95398 e1839d36392447bc aacb2fb5e7d9303e
      a416d0e3286e31f6 867cac2ec1d02964 cf6222a620a51087 e94e81ca7690dd89
      |} );
    ( "OptP-direct",
      {|
      bd2c2ae00b1744f5 ef995a0779617b25 47efa7691f51108a 1f004a6e59ec4c23
      58549bb25855849f ef50ff255f441757 e784683db18fe62a 7ebd97836d261b07
      1b71605fdd98c285 1dd5a183d30464e4 03103ebea05fec16 17ac02abaea2aeb9
      d8a1334e3560ae93 e26aeab8823dc6f1 eac85cb0036ec242 e2761ef08f614e9b
      71a338cd228d1def 1256e01bc21a166a 21b9a3fe9213f83c 357d74062f234fde
      af7b083209243107 e60f1fa521780370 24686cc16cd82bc6 9dcdc03e0152bcef
      cdc73926c420bca1 73f4b781fb338840 d474dbe6a9a3bf04 bf2494f1e5cb62eb
      ce3f0d5fcbd3ffe0 9c0562dfd90d77e6 341baf29e7006d31 c486b79f9b8cc6dc
      6d1768aa388742d5 00527e6964c0cafe d52acce027442478 557c16a3398c495e
      698be4d759854255 919bffdd3ab608aa e3eb29ec8fede5b7 d0310ceec06a25e3
      790abbbb1ea2021e 4d4d41b161eb7372 ab5358a50c8b1867 ed65992119fbdf35
      bebae686d7b8e5ea 5a10dee518aaa50c 8d14b68b47aaa2af 7c9ea823384329f2
      fcef910addfa5063 03b0841aaac1d48f 5c90a129e79ec2a5 6f4985663ec7ccef
      f805584ce445c5cc e24c3c8a9b17bb26 177af83888d32311 3085d24130a8372f
      48032475d749d088 43a22bf4ac34c6b6 c5aff320cbd4a1c4 ed644542df91dc9c
      e167becaea6177c1 612c2038a5f2fc5c 1a5361450d09804a 3b1506819d1e68eb
      b4b91b607f27b3a0 fef884d91ad9fdec b87d1d6a1c6a6f1a c0cd0dbce0cc96c7
      54e7519b5826442d 5ba5004369c046e0 e72f9f1169d3808f a424ba7b980d8b22
      cc1f7a3e76b30142 d50dd6b6f1a85bed df20e6e9e76fc739 df39e22d3d68a246
      8185a80a975eda0b 60623b73a5aad5bc a6da05be7fa932ad 62cef1e5b5952fb1
      e53c8f306d7ee067 5dac97d31d13b52c 854f06f6fa13abd5 a0276b274b323e00
      29cf1d0eb478ebdd b709a62d08592772 a414b1a753aae819 6d415a3d65e42e32
      d1e594553a585573 755748c85b3f5e4b 22ee73cd2c6af4a9 7f17ff1cc931f1e4
      7bfec979b7396c9d c7cd2932a26ac2cb 15da2e1d353fd637 370d42c9931ad682
      9a250b450f55d3d4 828b058c226e9a27 8d5807f7caffc29b cc2f2d4c76593c0f
      1304ed1f16677384 d8cc1b680248733e 5508a07294cb8760 5f3206db46fb7ecc
      74c04ac3a504eb60 2f8916a2a2db90ce c12d008ec2ad0703 6bf964ab77deabb0
      a6ba3c0a08924dba 76b0d850c2437dbb 6696c189c65fbd3d deb27fa8df11bf59
      9d13a5f227aa5e58 38df65fb66a71089 ec3b2b223668bf03 473945229bfcee70
      f8d1a1dfec017c08 3bcdd81165f6685a 94e4acea2ce84963 52b0123d17a87ade
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
      3cfee1effd0023bf 4203c64c193e375f f35c7ca91921f12a a1747b3fc1dbbc34
      698ef256d4bb3e07 1f09fc620221a8d7 9b11a3f8c1c7915d 5c61ed5609e338db
      bd0d6e2d5d6c67d7 fa1a3a87f89bc1f8 d30b28e66ee0a931 b54e53f11102f9f0
      d6f8fdae907363b4 dac0140f9d316bae 4d49afd82138202a d9f600f2d6af43ca
      56c86eec3bcaea9e a1d64daeb1bce41f 1371d8d64b24b38f 953a5a64dabf47bb
      2d6c5c5612013a97 e9f50d9a7f930931 6275922d570e9920 cba5a45673d67a76
      6ff9a9adef9125cd b7d8da715962d90f 0424179cb4629a05 e0cf88740c143edb
      2b1a9869b0ee94b8 79d652ff0f7a46e3 122c6c4706ad8a99 20a6855551e366ef
      0317b29950cd45fc 3ee2ea9147873212 2aed569becd510e2 630650ba9f49c8c6
      130cb8352e94f5ce 6d8ac1414ee53c5e 1df04c5e4b66c82d 502555dbd441c6d5
      434234ef25878315 66a2bb669e4a1c5c a4c358021cee5eef 8b84853ae85fe2fa
      a1ed079b873ee8b2 583b736b4abb9b3e 99b0a71c23c01a28 0e66b8eae0ca34ed
      81800440f824e07b 8fd51d069286826e 8865d55885e06b71 55ab9c91b22019b0
      b37e906fd3fd9990 67daf5ec3ca7b662 a38190fe4e9bc3b2 95f38c708ed6bae3
      11daf2b34c883308 0cc71329ae7a4b33 a918ef24839ddc49 d82da2d7313b749a
      38740e77b7737892 76628576c7b615de ae6337174da35c9c c01894fb9bb62146
      8c2caa8668491acd 4f83724b4ff68f38 1fbff1f05bffd4ee 6b235e61a6939eda
      56e2c4a356338eb9 6316bd661442317c 231d82a1f9ce7fba b795f20a94f91df5
      7a274532c9092350 91897adfb9b50f05 a9fb340895b63b5d f9a1438f9c48c42f
      89f4bc7e9e7ac912 1123b5988afccbe5 200e19ab6f79b212 085f5765541d6607
      0c4eeefac192f31e 355364554a9bce39 79f4d45866799135 54a76d60f672cda7
      bd0c9f645f20b902 b3bec069581c79f4 d637af24a3f0442b b135c0a04d5cd219
      c6e74f8f2a503f25 7ab94396d327b4af c5dd2cf8485da005 d1ba154d563990d6
      bbe822df759097cc d920cfe4ef955382 e13df086e315e90e 51efc1834a4b6cf6
      3d8b117e176437e6 3b4cbf0c5410dafc c9a150908d04a915 33d054dbc3600d0a
      ce82e5987ab58e40 4c9fc0de23496f7e 614eea5fa2af650f 4901514e2552efe6
      2700c15796fb506a 26f0bf836ad57cf3 b13a88648394d52f bb707ed5e65d0e5a
      8de8034c9ac9c9e5 3b55719e43c3f326 773704763d7f6839 1013c633a0e499fa
      b15b2f5f8e0e7159 7deac29ae490116c 0a29db2f897fe72d 04a35769c69ea978
      4f2f15732071da30 7d8fc918c69d9a92 066ff92c98dd6a18 815679969267cc18
      25f62885d52d1fd9 aaf898db2667ee4e a394ea8a600e476f f06f004beb4bec84
      82120e5e644f72db 3c43cd835ff91ca2 4c394aa569ef2cdf 632d5fd67445d2dd
      4eb3153b71b028da 7fbdb8df4423c643 297833deca36173a 958361625f27e91f
      1966e04d8ef8b1f3 a8214f9abd169f61 028f97ac15892d4e d96385111eb47039
      d705cea43066239c 7baf48036768903e f0041276b7c43fa1 864eabfdd75bc2fe
      457bb4b8114ba55b d0d9f66e09af44ae dc17e65ec29e4e96 fbb8f2be47e604e2
      e3297de31ff76fe6 6d37f861b451d3e9 b5f23555dcbf5bbf 288131dc7dd752c9
      ac73bc8be14d0a2a 310cbd0d882a18b4 8b8d380d2b22e2f0 5d8742361de61c86
      529abb76dc91cc78 14b466ac7ba5e0e3 e27618e04d2ce6d9 d9dcb472d05c221f
      315319c3295a7d50 a0a6578645c69032 ca2d4a34ab10c76d dba576117d812992
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
      "24aaa127a82b31e8f7cf79148d3af5cf" );
    ( "false-suspicion-storm",
      scenario "false-suspicion-storm",
      "0bf419a89b57805f7379183d7f74fd34" );
    ( "churn-storm",
      scenario "churn-storm",
      "7af88c1a982a82267b712fb34dd93e1b" );
    ( "fd smoke",
      (fun ~metrics ~recorder -> ignore (fd_smoke_run ~metrics ~recorder ())),
      "3490177d9e2e77b78f49c1026a127412" );
    ("small plan", small_plan, "304430d82e156efe0e5db6627b8bda7d");
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
