(* Emergent membership: phi-accrual failure detection over gossip
   heartbeats, and the suspicion-driven view-change pipeline.

   Four layers, bottom-up:
   - [Failure_detector] in isolation: arming, accrual, interval
     clamping, the heartbeat-period prior, forget, determinism;
   - an emergent campaign on a fixed seed: no scripted membership at
     all — the plan only crashes processes, the detector produces the
     whole view history (true suspicions with bounded detection
     latency, refutation-driven rejoin of the recovered slot), and the
     run stays clean with Theorem 4 accounting intact;
   - determinism: the same seed replayed gives byte-identical
     membership and suspicion histories;
   - the false-suspicion storm: a heavy-tailed network and a twitchy
     threshold, no crashes — slow-but-alive slots get suspected,
     refute by heartbeat, rejoin under a fresh incarnation, and every
     run across the sweep still ends clean with zero ghost dots and
     zero unnecessary OptP delays. *)

module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Fault_plan = Dsm_sim.Fault_plan
module Sim_time = Dsm_sim.Sim_time
module Latency = Dsm_sim.Latency
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec
module Fd = Dsm_runtime.Failure_detector
module Membership = Dsm_runtime.Membership
module Churn_campaign = Dsm_runtime.Churn_campaign
module Checker = Dsm_runtime.Checker

(* ---------------------------------------------------------------- *)
(* the detector in isolation                                         *)
(* ---------------------------------------------------------------- *)

let test_config_validation () =
  Alcotest.check_raises "threshold <= 0"
    (Invalid_argument "Failure_detector.config: threshold must be positive")
    (fun () -> ignore (Fd.config ~threshold:0. ()));
  Alcotest.check_raises "heartbeat_every <= 0"
    (Invalid_argument
       "Failure_detector.config: heartbeat_every must be positive")
    (fun () -> ignore (Fd.config ~heartbeat_every:(-1.) ()));
  Alcotest.check_raises "window < 2"
    (Invalid_argument "Failure_detector.config: window must be >= 2")
    (fun () -> ignore (Fd.config ~window:1 ()));
  let cfg = Fd.config () in
  Alcotest.(check (float 0.)) "default threshold" 3. cfg.Fd.threshold;
  Alcotest.(check (float 0.)) "default period" 20. cfg.Fd.heartbeat_every;
  Alcotest.check_raises "me outside universe"
    (Invalid_argument "Failure_detector.create: me outside the universe")
    (fun () -> ignore (Fd.create cfg ~universe:3 ~me:3))

let test_accrual () =
  let cfg = Fd.config ~threshold:2. ~heartbeat_every:10. ~window:8 () in
  let d = Fd.create cfg ~universe:2 ~me:0 in
  (* unarmed: no suspicion no matter the silence *)
  Alcotest.(check (float 0.)) "unarmed phi" 0. (Fd.phi d ~peer:1 ~at:1000.);
  Alcotest.(check (option (float 0.))) "unarmed last" None
    (Fd.last_heard d ~peer:1);
  (* first observation arms the clock, records no interval *)
  Fd.observe d ~peer:1 ~at:100.;
  Alcotest.(check (option (float 0.))) "armed" (Some 100.)
    (Fd.last_heard d ~peer:1);
  Alcotest.(check (float 0.)) "prior-only mean" 10. (Fd.mean_interval d ~peer:1);
  (* regular arrivals at the heartbeat period: mu = period *)
  for k = 1 to 8 do
    Fd.observe d ~peer:1 ~at:(100. +. (10. *. float_of_int k))
  done;
  Alcotest.(check (float 1e-9)) "mu at the period" 10.
    (Fd.mean_interval d ~peer:1);
  (* phi grows linearly with silence and crosses the threshold exactly
     where the accrual formula says: t = threshold * mu * ln 10 *)
  let cross = 2. *. 10. *. Float.log 10. in
  Alcotest.(check bool) "below threshold just before" false
    (Fd.suspicious d ~peer:1 ~at:(180. +. cross -. 0.1));
  Alcotest.(check bool) "suspicious at the crossing" true
    (Fd.suspicious d ~peer:1 ~at:(180. +. cross +. 0.1));
  (* monotone in silence *)
  Alcotest.(check bool) "phi monotone" true
    (Fd.phi d ~peer:1 ~at:250. > Fd.phi d ~peer:1 ~at:200.);
  (* out-of-order and self evidence are ignored *)
  Fd.observe d ~peer:1 ~at:90.;
  Alcotest.(check (option (float 0.))) "out-of-order ignored" (Some 180.)
    (Fd.last_heard d ~peer:1);
  Fd.observe d ~peer:0 ~at:500.;
  Alcotest.(check (option (float 0.))) "self ignored" None
    (Fd.last_heard d ~peer:0)

let test_clamping_and_forget () =
  let cfg = Fd.config ~threshold:3. ~heartbeat_every:10. ~window:4 () in
  let d = Fd.create cfg ~universe:2 ~me:0 in
  (* a burst of near-simultaneous arrivals must not collapse mu below
     half the heartbeat period (else any ordinary gap looks fatal) *)
  Fd.observe d ~peer:1 ~at:0.;
  for k = 1 to 10 do
    Fd.observe d ~peer:1 ~at:(float_of_int k *. 0.001)
  done;
  Alcotest.(check bool) "burst cannot collapse mu" true
    (Fd.mean_interval d ~peer:1 >= 0.5 *. 10.);
  (* one partition-length gap must not inflate mu past 4 periods *)
  Fd.observe d ~peer:1 ~at:10_000.;
  Alcotest.(check bool) "gap cannot blow up mu" true
    (Fd.mean_interval d ~peer:1 <= 4. *. 10.);
  (* forget drops the history and disarms the clock *)
  Fd.forget d ~peer:1;
  Alcotest.(check (option (float 0.))) "forgotten" None
    (Fd.last_heard d ~peer:1);
  Alcotest.(check (float 0.)) "phi disarmed" 0.
    (Fd.phi d ~peer:1 ~at:1_000_000.);
  Alcotest.(check (float 0.)) "mu back to the prior" 10.
    (Fd.mean_interval d ~peer:1)

let test_adaptive_heterogeneous_links () =
  (* one observer, two links of equal mean rate but unequal noise:
     peer 1 is metronomic (heartbeat-period arrivals), peer 2
     alternates short and long gaps around the same mean. The adaptive
     detector must (a) keep the quiet link's threshold — and hence its
     detection time — exactly at the base, and (b) raise only the noisy
     link's bar, absorbing the long half of its legitimate cadence that
     the fixed detector false-suspects on. *)
  let base = 1.5 and hb = 10. in
  let mk adaptive =
    Fd.create
      (Fd.config ~threshold:base ~heartbeat_every:hb ~window:16 ~adaptive ())
      ~universe:3 ~me:0
  in
  let fixed = mk 0. and adapt = mk 1.5 in
  (* noisy cadence: bursts of nine 5-unit gaps, then one legitimate
     40-unit silence — piggyback chatter alternating with a lull. The
     burst drags the window mean far below the lull, so the fixed
     detector's phi crosses its bar near the end of every lull. *)
  let noisy_gap k = if k mod 10 = 0 then 40. else 5. in
  let feed d =
    (* identical evidence streams into both detectors *)
    for k = 0 to 40 do
      Fd.observe d ~peer:1 ~at:(hb *. float_of_int k)
    done;
    let t2 = ref 0. in
    Fd.observe d ~peer:2 ~at:!t2;
    for k = 1 to 40 do
      t2 := !t2 +. noisy_gap k;
      Fd.observe d ~peer:2 ~at:!t2
    done;
    !t2
  in
  let end_fixed = feed fixed in
  let end_adapt = feed adapt in
  Alcotest.(check (float 0.)) "identical feeds" end_fixed end_adapt;
  (* quiet link: zero measured noise, so the adaptive bar IS the base
     bar and the two detectors cross into suspicion at the same
     silence *)
  Alcotest.(check (float 1e-9)) "quiet link: cv 0" 0.
    (Fd.interval_cv adapt ~peer:1);
  Alcotest.(check (float 1e-9)) "quiet link: threshold unchanged" base
    (Fd.effective_threshold adapt ~peer:1);
  let detection_silence d ~peer =
    (* earliest silence (0.1 steps) at which the detector suspects *)
    let last = Option.get (Fd.last_heard d ~peer) in
    let rec go s =
      if Fd.suspicious d ~peer ~at:(last +. s) then s else go (s +. 0.1)
    in
    go 0.1
  in
  Alcotest.(check (float 1e-9)) "quiet link: equal detection time"
    (detection_silence fixed ~peer:1)
    (detection_silence adapt ~peer:1);
  (* noisy link: the measured cv is real, the bar rises *)
  Alcotest.(check bool) "noisy link: positive cv" true
    (Fd.interval_cv adapt ~peer:2 > 0.3);
  Alcotest.(check bool) "noisy link: threshold raised" true
    (Fd.effective_threshold adapt ~peer:2 > base);
  (* false suspicions: probe just before each arrival of another 40
     gaps of the same cadence — every probe is legitimate silence,
     every suspicion a false alarm *)
  let false_alarms d =
    let n = ref 0 and t2 = ref end_fixed in
    for k = 41 to 80 do
      t2 := !t2 +. noisy_gap k;
      if Fd.suspicious d ~peer:2 ~at:(!t2 -. 0.5) then incr n;
      Fd.observe d ~peer:2 ~at:!t2
    done;
    !n
  in
  let ff = false_alarms fixed and fa = false_alarms adapt in
  Alcotest.(check bool)
    (Printf.sprintf "noisy link: fewer false suspicions (%d < %d)" fa ff)
    true
    (fa < ff && ff > 0);
  (* a real crash on the noisy link is still detected: silence grows
     past even the raised bar *)
  Alcotest.(check bool) "noisy link: genuine crash still detected" true
    (Fd.suspicious adapt ~peer:2
       ~at:(Option.get (Fd.last_heard adapt ~peer:2)
           +. (Fd.effective_threshold adapt ~peer:2 *. Float.log 10.
              *. (4. *. hb))
           +. 1.))

let test_detector_determinism () =
  let run () =
    let cfg = Fd.config ~threshold:2.5 ~heartbeat_every:7. ~window:6 () in
    let d = Fd.create cfg ~universe:3 ~me:0 in
    let rng = Rng.create 99 in
    let t = ref 0. in
    let acc = Buffer.create 256 in
    for _ = 1 to 200 do
      t := !t +. (25. *. Rng.float rng);
      let peer = 1 + Rng.int rng 2 in
      Fd.observe d ~peer ~at:!t;
      Buffer.add_string acc
        (Printf.sprintf "%.6f:%.6f;" (Fd.phi d ~peer:1 ~at:(!t +. 3.))
           (Fd.phi d ~peer:2 ~at:(!t +. 3.)))
    done;
    Buffer.contents acc
  in
  Alcotest.(check string) "same seed, same phi trace" (run ()) (run ())

(* One bound for every config and arrival history: a silence of
   [worst_case_silence] after an armed peer's last arrival drives phi
   to the peer's effective threshold. Gaps range up to ten heartbeat
   periods, so both ends of the interval clamp are exercised. *)
let prop_worst_case_silence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"worst-case silence always crosses"
       ~count:2000
       ~print:QCheck2.Print.(tup5 float float int float (list float))
       QCheck2.Gen.(
         tup5 (float_range 0.1 10.) (float_range 0.1 100.) (int_range 2 32)
           (float_range 0. 4.)
           (list_size (int_range 0 64) (float_range 0. 10.)))
       (fun (threshold, heartbeat_every, window, adaptive, gaps) ->
         let cfg = Fd.config ~threshold ~heartbeat_every ~window ~adaptive () in
         let d = Fd.create cfg ~universe:2 ~me:0 in
         Fd.observe d ~peer:1 ~at:0.;
         let last =
           List.fold_left
             (fun at gap ->
               let at = at +. (gap *. heartbeat_every) in
               Fd.observe d ~peer:1 ~at;
               at)
             0. gaps
         in
         Fd.phi d ~peer:1 ~at:(last +. Fd.worst_case_silence cfg)
         >= Fd.effective_threshold d ~peer:1))

(* ---------------------------------------------------------------- *)
(* emergent campaigns                                                *)
(* ---------------------------------------------------------------- *)

let mk_spec ~universe ~seed =
  Spec.make ~n:universe ~m:3 ~ops_per_process:25 ~write_ratio:0.5
    ~think:(Latency.Exponential { mean = 10. })
    ~seed ()

let exp_latency = Latency.Exponential { mean = 8. }

(* p1 crashes and physically recovers mid-run (the detector must both
   notice the silence and accept the refutation); p3 crashes for good
   (the detector is the only thing that can exclude it from the view) *)
let emergent_plan =
  Fault_plan.make
    [
      Fault_plan.Crash { proc = 1; at = Sim_time.of_float 120. };
      Fault_plan.Recover { proc = 1; at = Sim_time.of_float 320. };
      Fault_plan.Crash { proc = 3; at = Sim_time.of_float 200. };
    ]

let run_emergent ?(detector = Fd.config ()) ?(seed = 7) () =
  Churn_campaign.run
    (module Dsm_core.Opt_p)
    ~spec:(mk_spec ~universe:6 ~seed)
    ~latency:exp_latency ~plan:emergent_plan ~initial:6 ~detector ~seed ()

let test_emergent_fixed_seed () =
  let o = run_emergent () in
  Alcotest.(check bool) "detector recorded in the outcome" true
    (o.Churn_campaign.detector <> None);
  Alcotest.(check bool) "heartbeats flowed" true
    (o.Churn_campaign.heartbeats_sent > 0);
  (* every view change came from the detector: the plan scripted none *)
  Alcotest.(check bool) "epochs advanced without scripted churn" true
    (o.Churn_campaign.final_epoch > 0);
  Alcotest.(check bool) "view provenance covers every epoch" true
    (List.length o.Churn_campaign.view_reasons
    = o.Churn_campaign.final_epoch);
  (* both crashed slots were suspected, truly *)
  let true_susp =
    List.filter (fun s -> s.Churn_campaign.strue) o.Churn_campaign.suspicions
  in
  let suspected_slots =
    List.sort_uniq compare
      (List.map (fun s -> s.Churn_campaign.speer) true_susp)
  in
  Alcotest.(check bool) "both corpses suspected" true
    (List.mem 1 suspected_slots && List.mem 3 suspected_slots);
  (* detection latency is bounded by the accrual worst case: the
     largest silence a clamped window can demand before phi crosses *)
  let cfg = Option.get o.Churn_campaign.detector in
  let bound =
    cfg.Fd.threshold *. Float.log 10. *. (4. *. cfg.Fd.heartbeat_every)
  in
  List.iter
    (fun s ->
      match s.Churn_campaign.slatency with
      | Some l ->
          Alcotest.(check bool)
            (Printf.sprintf "p%d detection latency %.1f within %.1f"
               (s.Churn_campaign.speer + 1) l bound)
            true
            (l > 0. && l <= bound)
      | None -> ())
    true_susp;
  (* the recovered slot re-entered through refutation *)
  Alcotest.(check bool) "p2 refuted its suspicion and rejoined" true
    (o.Churn_campaign.refutations >= 1 && o.Churn_campaign.rejoins >= 1);
  Alcotest.(check bool) "p2 active at the end" true
    (List.mem 1 o.Churn_campaign.active_at_end);
  Alcotest.(check bool) "p4 excluded at the end" true
    (not (List.mem 3 o.Churn_campaign.active_at_end));
  (* the audit machinery is untouched by the emergent pipeline *)
  Alcotest.(check bool) "clean" true o.Churn_campaign.clean;
  Alcotest.(check bool) "live replicas converged" true
    o.Churn_campaign.live_equal;
  Alcotest.(check int) "zero ghost dots" 0 o.Churn_campaign.quarantine_leaks;
  Alcotest.(check int) "Theorem 4: no unnecessary delays" 0
    o.Churn_campaign.report.Checker.unnecessary_delays

let history_fingerprint o =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Format.asprintf "%a\n" Churn_campaign.pp_view_reason r))
    o.Churn_campaign.view_reasons;
  List.iter
    (fun s ->
      Buffer.add_string b
        (Format.asprintf "%a\n" Churn_campaign.pp_suspicion s))
    o.Churn_campaign.suspicions;
  Buffer.add_string b
    (Format.asprintf "epoch=%d active=%s hb=%d@."
       o.Churn_campaign.final_epoch
       (String.concat ","
          (List.map string_of_int o.Churn_campaign.active_at_end))
       o.Churn_campaign.heartbeats_sent);
  Buffer.contents b

let test_emergent_determinism () =
  let a = history_fingerprint (run_emergent ()) in
  let b = history_fingerprint (run_emergent ()) in
  Alcotest.(check string) "byte-identical view history" a b;
  (* and a different seed genuinely moves the run *)
  let c = history_fingerprint (run_emergent ~seed:8 ()) in
  Alcotest.(check bool) "another seed differs" true (a <> c)

let test_emergent_random_sweep () =
  (* crashes are the only scripted input; every view transition is the
     detector's. 16 seeds, mixed permanent and recovered crashes —
     downtimes are drawn past the accrual worst case so the detector
     has a fair chance at every corpse. *)
  for seed = 1 to 16 do
    let rng = Rng.create (6397 * seed) in
    let victims = if seed mod 2 = 0 then [ 1; 4 ] else [ 2 ] in
    let plan =
      Fault_plan.make
        (List.concat_map
           (fun p ->
             let at = 60. +. (120. *. Rng.float rng) in
             let crash =
               Fault_plan.Crash { proc = p; at = Sim_time.of_float at }
             in
             (* half the corpses come back — long after detection *)
             if Rng.float rng < 0.5 then
               [
                 crash;
                 Fault_plan.Recover
                   {
                     proc = p;
                     at = Sim_time.of_float (at +. 200. +. (60. *. Rng.float rng));
                   };
               ]
             else [ crash ])
           victims)
    in
    let o =
      Churn_campaign.run
        (module Dsm_core.Opt_p)
        ~spec:(mk_spec ~universe:6 ~seed)
        ~latency:exp_latency ~plan ~initial:6 ~detector:(Fd.config ()) ~seed
        ()
    in
    let ctx s = Printf.sprintf "seed %d: %s" seed s in
    Alcotest.(check bool) (ctx "clean") true o.Churn_campaign.clean;
    Alcotest.(check bool) (ctx "live_equal") true o.Churn_campaign.live_equal;
    Alcotest.(check int) (ctx "zero ghost dots") 0
      o.Churn_campaign.quarantine_leaks;
    Alcotest.(check int)
      (ctx "no unnecessary delays")
      0 o.Churn_campaign.report.Checker.unnecessary_delays;
    Alcotest.(check bool)
      (ctx "crashes were detected")
      true
      (List.exists (fun s -> s.Churn_campaign.strue)
         o.Churn_campaign.suspicions)
  done

let test_emergent_rejects_scripted_churn () =
  Alcotest.check_raises "scripted churn refused in emergent mode"
    (Invalid_argument
       "Churn_campaign.run: emergent mode scripts no membership — drop the \
        Join/Leave events; crashes and partitions are the only inputs, the \
        detector produces the view history (pass ~mixed:true — the nemesis \
        driver does — to combine both)")
    (fun () ->
      ignore
        (Churn_campaign.run
           (module Dsm_core.Opt_p)
           ~spec:(mk_spec ~universe:6 ~seed:1)
           ~latency:exp_latency
           ~plan:
             (Fault_plan.make
                [ Fault_plan.Join { proc = 5; at = Sim_time.of_float 50. } ])
           ~initial:4 ~detector:(Fd.config ()) ~seed:1 ()))

(* ---------------------------------------------------------------- *)
(* false-suspicion storm                                             *)
(* ---------------------------------------------------------------- *)

let test_false_suspicion_storm () =
  (* no crash anywhere: a heavy-tailed network plus a twitchy threshold
     manufactures suspicion of slow-but-alive slots. Every suspicion is
     a false positive, every false positive must be refuted by a later
     heartbeat and survived through the rejoin path. *)
  let storms = ref 0 and refuted = ref 0 in
  for seed = 1 to 16 do
    let o =
      Churn_campaign.run
        (module Dsm_core.Opt_p)
        ~spec:(mk_spec ~universe:5 ~seed)
        ~latency:
          (Latency.Bimodal
             {
               fast = Latency.Exponential { mean = 6. };
               slow = Latency.Pareto { scale = 40.; shape = 1.3 };
               p_slow = 0.12;
             })
        ~plan:(Fault_plan.make []) ~initial:5
        ~detector:(Fd.config ~threshold:1.1 ~heartbeat_every:15. ())
        ~seed ()
    in
    let ctx s = Printf.sprintf "storm seed %d: %s" seed s in
    storms := !storms + o.Churn_campaign.false_suspicions;
    refuted := !refuted + o.Churn_campaign.refutations;
    (* nothing ever crashed, so every suspicion is false... *)
    Alcotest.(check int)
      (ctx "all suspicions false")
      (List.length o.Churn_campaign.suspicions)
      o.Churn_campaign.false_suspicions;
    (* ...and every one was refuted: nobody is excluded at the end *)
    Alcotest.(check int)
      (ctx "every suspicion refuted")
      o.Churn_campaign.false_suspicions o.Churn_campaign.refutations;
    Alcotest.(check int) (ctx "full view at the end") 5
      (List.length o.Churn_campaign.active_at_end);
    Alcotest.(check bool) (ctx "clean") true o.Churn_campaign.clean;
    Alcotest.(check bool) (ctx "live_equal") true o.Churn_campaign.live_equal;
    Alcotest.(check int) (ctx "zero ghost dots") 0
      o.Churn_campaign.quarantine_leaks;
    Alcotest.(check int)
      (ctx "no unnecessary delays")
      0 o.Churn_campaign.report.Checker.unnecessary_delays
  done;
  (* the sweep as a whole must actually have stormed, else the
     threshold is too lax to test anything *)
  Alcotest.(check bool) "the storm produced suspicions" true (!storms > 0);
  Alcotest.(check int) "and refuted them all" !storms !refuted

let test_adaptive_storm_suppression () =
  (* end-to-end: the false-suspicion storm of [test_false_suspicion_storm]
     (heavy-tailed network, twitchy threshold, zero crashes) re-run with
     the adaptive gain on. Same seeds, same workload: the per-link noise
     estimate must strictly reduce the total number of false suspicions
     across the sweep, and every run must still end clean. *)
  let sweep ~adaptive =
    let total = ref 0 in
    for seed = 1 to 8 do
      let o =
        Churn_campaign.run
          (module Dsm_core.Opt_p)
          ~spec:(mk_spec ~universe:5 ~seed)
          ~latency:
            (Latency.Bimodal
               {
                 fast = Latency.Exponential { mean = 6. };
                 slow = Latency.Pareto { scale = 40.; shape = 1.3 };
                 p_slow = 0.12;
               })
          ~plan:(Fault_plan.make []) ~initial:5
          ~detector:
            (Fd.config ~threshold:1.1 ~heartbeat_every:15. ~adaptive ())
          ~seed ()
      in
      let ctx s =
        Printf.sprintf "adaptive=%g seed %d: %s" adaptive seed s
      in
      Alcotest.(check bool) (ctx "clean") true o.Churn_campaign.clean;
      Alcotest.(check int)
        (ctx "every suspicion refuted")
        o.Churn_campaign.false_suspicions o.Churn_campaign.refutations;
      total := !total + o.Churn_campaign.false_suspicions
    done;
    !total
  in
  let off = sweep ~adaptive:0. and on = sweep ~adaptive:1. in
  Alcotest.(check bool) "the fixed threshold stormed" true (off > 0);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive suppresses the storm (%d < %d)" on off)
    true (on < off)

(* ---------------------------------------------------------------- *)
(* delta state transfer                                              *)
(* ---------------------------------------------------------------- *)

let test_delta_transfer_bounded () =
  (* scripted churn with a rejoin: the sponsor cuts its log at the
     joiner's Apply vector, so the transferred entry count is bounded
     by the componentwise vector gap (one single-write message per
     missing dot) — and a rejoiner restored from a snapshot pays only
     for the gap, not the whole log *)
  let plan =
    Fault_plan.make
      [
        Fault_plan.Join { proc = 4; at = Sim_time.of_float 80. };
        Fault_plan.Crash { proc = 1; at = Sim_time.of_float 120. };
        Fault_plan.Join { proc = 1; at = Sim_time.of_float 220. };
      ]
  in
  let o =
    Churn_campaign.run
      (module Dsm_core.Opt_p)
      ~spec:(mk_spec ~universe:6 ~seed:3)
      ~latency:exp_latency ~plan ~initial:4 ~seed:3 ()
  in
  Alcotest.(check bool) "clean" true o.Churn_campaign.clean;
  let saw_rejoin = ref false and saw_fresh = ref false in
  List.iter
    (fun c ->
      let name =
        Printf.sprintf "p%d %s" (c.Churn_campaign.cproc + 1)
          (match c.Churn_campaign.ckind with
          | Churn_campaign.Fresh_join -> "fresh"
          | Churn_campaign.Rejoin -> "rejoin"
          | Churn_campaign.Recover -> "recover")
      in
      Alcotest.(check bool)
        (name ^ ": transferred entries bounded by the vector gap")
        true
        (c.Churn_campaign.transfer_writes <= c.Churn_campaign.transfer_gap);
      match c.Churn_campaign.ckind with
      | Churn_campaign.Fresh_join ->
          saw_fresh := true;
          Alcotest.(check bool) (name ^ ": bootstrap is non-empty") true
            (c.Churn_campaign.transfer_writes > 0)
      | Churn_campaign.Rejoin ->
          saw_rejoin := true;
          (* restored from a snapshot: the gap is only what it missed
             while down, strictly less than the sponsor's whole log *)
          Alcotest.(check bool)
            (name ^ ": delta strictly smaller than a full bootstrap")
            true
            (c.Churn_campaign.transfer_gap
            < o.Churn_campaign.replayed_writes
              + c.Churn_campaign.transfer_writes
            || c.Churn_campaign.transfer_writes = 0)
      | Churn_campaign.Recover -> ())
    o.Churn_campaign.catch_ups;
  Alcotest.(check bool) "exercised a fresh join" true !saw_fresh;
  Alcotest.(check bool) "exercised a rejoin" true !saw_rejoin

let () =
  Alcotest.run "failure_detector"
    [
      ( "accrual detector",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "phi accrual" `Quick test_accrual;
          Alcotest.test_case "clamping and forget" `Quick
            test_clamping_and_forget;
          Alcotest.test_case "deterministic phi trace" `Quick
            test_detector_determinism;
          Alcotest.test_case "adaptive thresholds on heterogeneous links"
            `Quick test_adaptive_heterogeneous_links;
          prop_worst_case_silence;
        ] );
      ( "emergent membership",
        [
          Alcotest.test_case "fixed seed: crashes only, detector-driven view"
            `Quick test_emergent_fixed_seed;
          Alcotest.test_case "byte-identical view history on replay" `Quick
            test_emergent_determinism;
          Alcotest.test_case "random sweep, 16 seeds" `Quick
            test_emergent_random_sweep;
          Alcotest.test_case "scripted churn refused" `Quick
            test_emergent_rejects_scripted_churn;
        ] );
      ( "false-suspicion storm",
        [
          Alcotest.test_case "slow-but-alive: suspected, refuted, clean"
            `Quick test_false_suspicion_storm;
          Alcotest.test_case "adaptive gain suppresses the storm" `Quick
            test_adaptive_storm_suppression;
        ] );
      ( "delta transfer",
        [
          Alcotest.test_case "entry count bounded by the vector gap" `Quick
            test_delta_transfer_bounded;
        ] );
    ]
