(* Benchmark and reproduction harness.

   Running this executable regenerates every table and figure of the
   paper (sections T1, T2, F1, F2, F3, F6, F7), runs the quantitative
   companion experiments of DESIGN.md §5 (Q1–Q6), the crash-recovery
   (R) and churn-storm (C) campaigns, and finishes with Bechamel
   micro-benchmarks of the protocol hot paths (section M).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --no-micro   # skip Bechamel section
     dune exec bench/main.exe -- --only T1,Q2 # selected sections
     dune exec bench/main.exe -- --json F     # also write results to F
     dune exec bench/main.exe -- --stress-quick # tiny S section (smoke) *)

module Experiment = Dsm_runtime.Experiment
module Table_fmt = Dsm_stats.Table_fmt

let section name title body =
  Printf.printf "\n================================================\n";
  Printf.printf "%s — %s\n" name title;
  Printf.printf "================================================\n";
  body ();
  flush stdout

let print_table t = print_string (Table_fmt.render t)

(* ------------------------------------------------------------------ *)
(* Paper artifacts                                                     *)
(* ------------------------------------------------------------------ *)

let t1 () = print_table (Experiment.table1 ())
let t2 () = print_table (Experiment.table2 ())
let f1 () = print_string (Experiment.figure1 ())
let f2 () = print_string (Experiment.figure2 ())
let f3 () = print_string (Experiment.figure3 ())
let f6 () = print_string (Experiment.figure6 ())
let f7 () = print_string (Experiment.figure7 ())

(* ------------------------------------------------------------------ *)
(* Quantitative experiments                                            *)
(* ------------------------------------------------------------------ *)

let q1 () = print_table (Experiment.q1_sweep_processes ())
let q2 () = print_table (Experiment.q2_sweep_latency_variance ())
let q3 () = print_table (Experiment.q3_sweep_write_ratio ())
let q4 () = print_table (Experiment.q4_buffer_occupancy ())
let q5 () =
  print_table (Experiment.q5_apply_latency ());
  print_newline ();
  print_string (Experiment.q5_histogram ())
let q6 () = print_table (Experiment.q6_ws_skips ())
let q7 () = print_table (Experiment.q7_fifo_ablation ())
let q8 () = print_table (Experiment.q8_lossy_links ())
let q9 () = print_table (Experiment.q9_divergence ())
let q10 () = print_table (Experiment.q10_metadata_size ())
let q11 () = print_table (Experiment.q11_partial_replication ())
let q12 () = print_table (Experiment.q12_crash_recovery ())

(* ------------------------------------------------------------------ *)
(* Crash-recovery acceptance campaign                                  *)
(* ------------------------------------------------------------------ *)

module Recovery = struct
  module CC = Dsm_runtime.Churn_campaign

  (* (protocol, outcome, wall seconds) for the JSON writer *)
  let results : (string * CC.outcome * float) list ref = ref []

  let run () =
    let table =
      Table_fmt.create
        ~title:
          "R: acceptance campaign - 8 replicas, 500-unit partition, \
           p3+p6 crash and recover"
        ~header:
          [
            "protocol";
            "recovery latency";
            "replayed";
            "rolled back";
            "commits";
            "retransmits";
            "audit";
          ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Left;
      ];
    results := [];
    List.iter
      (fun (name, packed) ->
        let t0 = Sys.time () in
        let o = Experiment.acceptance_campaign ~protocol:packed () in
        let wall = Sys.time () -. t0 in
        results := !results @ [ (name, o, wall) ];
        let lats = List.filter_map CC.catch_up_latency o.CC.catch_ups in
        let lat_str =
          match lats with
          | [] -> "-"
          | l ->
              Printf.sprintf "%.0f"
                (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
        in
        Table_fmt.add_row table
          [
            name;
            lat_str;
            string_of_int o.CC.replayed_writes;
            string_of_int o.CC.rolled_back_events;
            string_of_int o.CC.commits;
            string_of_int o.CC.retransmissions;
            (if o.CC.clean && o.CC.live_equal then "clean+converged"
             else "VIOLATIONS");
          ])
      [
        ("OptP", Dsm_core.Protocol.Packed (module Dsm_core.Opt_p));
        ("ANBKH", Dsm_core.Protocol.Packed (module Dsm_core.Anbkh));
      ];
    print_table table
end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

module Micro = struct
  open Bechamel
  open Toolkit
  module V = Dsm_vclock.Vector_clock
  module Protocol = Dsm_core.Protocol

  let vclock_merge =
    let a = V.of_array (Array.init 32 (fun i -> i + 1))
    and b = V.of_array (Array.init 32 (fun i -> 32 - i)) in
    Test.make ~name:"M1 vclock.merge n=32"
      (Staged.stage (fun () -> ignore (V.merge a b)))

  let vclock_compare =
    let a = V.of_array (Array.init 32 (fun i -> i + 1))
    and b = V.of_array (Array.init 32 (fun i -> if i = 7 then 99 else i + 1)) in
    Test.make ~name:"M2 vclock.compare_partial n=32"
      (Staged.stage (fun () -> ignore (V.compare_partial a b)))

  (* one full write step (local apply + message build) of each protocol;
     state is rebuilt per batch through make_with_resource *)
  let protocol_write (module P : Protocol.S) label =
    Test.make_with_resource ~name:label Test.multiple
      ~allocate:(fun () -> P.create (Protocol.config ~n:8 ~m:16) ~me:0)
      ~free:(fun _ -> ())
      (Staged.stage (fun state -> ignore (P.write state ~var:3 ~value:1)))

  let optp_write =
    protocol_write (module Dsm_core.Opt_p) "M3a OptP write step n=8"

  let anbkh_write =
    protocol_write (module Dsm_core.Anbkh) "M3b ANBKH write step n=8"

  (* in-order receive: a sender state generates messages consumed by a
     fresh receiver *)
  let receive_step =
    Test.make_with_resource ~name:"M4 OptP receive step n=8" Test.multiple
      ~allocate:(fun () ->
        let cfg = Protocol.config ~n:8 ~m:16 in
        let sender = Dsm_core.Opt_p.create cfg ~me:1 in
        let receiver = Dsm_core.Opt_p.create cfg ~me:0 in
        (sender, receiver))
      ~free:(fun _ -> ())
      (Staged.stage (fun (sender, receiver) ->
           let _, eff = Dsm_core.Opt_p.write sender ~var:2 ~value:7 in
           match eff.Protocol.to_send with
           | [ Protocol.Broadcast m ] ->
               ignore (Dsm_core.Opt_p.receive receiver ~src:1 m)
           | _ -> assert false))

  let engine_event =
    Test.make ~name:"M5 engine schedule+run 1k events"
      (Staged.stage (fun () ->
           let e = Dsm_sim.Engine.create () in
           for i = 1 to 1000 do
             Dsm_sim.Engine.schedule_at e
               (Dsm_sim.Sim_time.of_float (float_of_int i))
               (fun () -> ())
           done;
           ignore (Dsm_sim.Engine.run e)))

  let end_to_end =
    let spec =
      Dsm_workload.Spec.make ~n:4 ~m:4 ~ops_per_process:50 ~write_ratio:0.5
        ~seed:7 ()
    in
    Test.make ~name:"M6 full OptP simulation (4 procs x 50 ops)"
      (Staged.stage (fun () ->
           ignore
             (Dsm_runtime.Sim_run.run
                (module Dsm_core.Opt_p)
                ~spec
                ~latency:(Dsm_sim.Latency.Exponential { mean = 10. })
                ())))

  let tests =
    Test.make_grouped ~name:"micro"
      [
        vclock_merge;
        vclock_compare;
        optp_write;
        anbkh_write;
        receive_step;
        engine_event;
        end_to_end;
      ]

  (* returns the measured rows so --json can serialize them *)
  let run () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |]
    in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
    in
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let table =
      Table_fmt.create ~title:"Bechamel micro-benchmarks"
        ~header:[ "benchmark"; "time/run (ns)"; "r²" ]
        ()
    in
    Table_fmt.set_align table
      [ Table_fmt.Left; Table_fmt.Right; Table_fmt.Right ];
    let rows =
      Hashtbl.fold
        (fun name ols acc ->
          let time =
            match Analyze.OLS.estimates ols with
            | Some (t :: _) -> Some t
            | Some [] | None -> None
          in
          (name, time, Analyze.OLS.r_square ols) :: acc)
        results []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
    in
    List.iter
      (fun (n, t, r) ->
        let fmt_opt f = function Some v -> f v | None -> "-" in
        Table_fmt.add_row table
          [
            n;
            fmt_opt (Printf.sprintf "%.1f") t;
            fmt_opt (Printf.sprintf "%.4f") r;
          ])
      rows;
    print_table table;
    rows
end

(* ------------------------------------------------------------------ *)
(* Buffer stress: indexed wakeups vs scanning drain                    *)
(* ------------------------------------------------------------------ *)

module Stress = struct
  module P = Dsm_core.Opt_p
  module Protocol = Dsm_core.Protocol

  type result = {
    sn : int;  (** processes *)
    senders : int;
    writes_per_sender : int;
    messages : int;
    scan_ms : float;
    indexed_ms : float;
    speedup : float;
  }

  (* Causally chained script: sender [i] first receives everything
     senders [1..i-1] sent (so its Write_co vector carries cross-process
     constraints), then issues [writes] writes of its own. Delivering
     the whole script to a fresh receiver in reverse send order is the
     protocol's worst case: every message buffers until the very last
     one — (sender 1, seq 1) — arrives and triggers a single cascade
     that drains the entire buffer. The seed Mailbox re-scans the whole
     buffer after every apply (O(B²·n) total); the delivery index wakes
     exactly one message per apply (O(B·n)). *)
  let build ~senders ~writes =
    let cfg = Protocol.config ~n:(senders + 1) ~m:4 in
    let sent = ref [] in
    for i = 1 to senders do
      let s = P.create cfg ~me:i in
      List.iter (fun (src, m) -> ignore (P.receive s ~src m)) (List.rev !sent);
      for k = 1 to writes do
        let _, eff = P.write s ~var:(k mod 4) ~value:k in
        match eff.Protocol.to_send with
        | [ Protocol.Broadcast m ] -> sent := (i, m) :: !sent
        | _ -> assert false
      done
    done;
    (* head of [sent] is the newest write: the list as-is IS the
       deep-reorder delivery order (senders then seqs descending) *)
    (cfg, !sent)

  let drain (module I : P.IMPL) cfg script =
    let r = I.create cfg ~me:0 in
    let applied =
      List.fold_left
        (fun acc (src, m) ->
          acc + List.length (I.receive r ~src m).Protocol.applied)
        0 script
    in
    (applied, I.applied_vector r)

  (* Sys.time has coarse resolution: repeat until enough CPU time
     accumulates, report per-drain milliseconds *)
  let time_drain impl cfg script =
    let reps = ref 0 and elapsed = ref 0. and out = ref None in
    while !elapsed < 0.2 && !reps < 100 do
      let t0 = Sys.time () in
      out := Some (drain impl cfg script);
      elapsed := !elapsed +. (Sys.time () -. t0);
      incr reps
    done;
    (Option.get !out, !elapsed /. float_of_int !reps *. 1000.)

  let run ~quick () =
    let senders, writes = if quick then (8, 6) else (31, 600) in
    let cfg, script = build ~senders ~writes in
    let messages = List.length script in
    Printf.printf "n=%d senders=%d writes/sender=%d messages=%d\n"
      (senders + 1) senders writes messages;
    let (applied_s, vec_s), scan_ms = time_drain (module P.Scan) cfg script in
    let (applied_i, vec_i), indexed_ms = time_drain (module P) cfg script in
    if applied_s <> messages || applied_i <> messages || vec_s <> vec_i then
      failwith "Stress: indexed and scanning drains disagree";
    Printf.printf "all %d writes applied by both; final vectors identical\n"
      messages;
    Printf.printf "scan (seed Mailbox) drain : %10.3f ms\n" scan_ms;
    Printf.printf "indexed wakeups drain     : %10.3f ms\n" indexed_ms;
    let speedup = scan_ms /. indexed_ms in
    Printf.printf "speedup                   : %10.1fx\n" speedup;
    {
      sn = senders + 1;
      senders;
      writes_per_sender = writes;
      messages;
      scan_ms;
      indexed_ms;
      speedup;
    }
end

(* ------------------------------------------------------------------ *)
(* Observability: probe overhead, null sink vs full tracing            *)
(* ------------------------------------------------------------------ *)

module Obs = struct
  module Metrics = Dsm_obs.Metrics
  module Sim_run = Dsm_runtime.Sim_run
  module Provenance = Dsm_runtime.Provenance
  module Execution = Dsm_runtime.Execution

  type result = {
    on : int;  (** processes *)
    omessages : int;
    null_ms : float;  (** per run, everything inert *)
    full_ms : float;
        (** per run, live registry + wire accountant + flight recorder
            (one registry reused across reps via [Metrics.reset]) *)
    trace_ms : float;  (** chrome-trace assembly alone, post-run export *)
    overhead_pct : float;  (** full vs null *)
    instruments : int;
  }

  let results : result list ref = ref []

  let latency = Dsm_sim.Latency.Exponential { mean = 10. }

  let spec ~n ~quick =
    Dsm_workload.Spec.make ~n ~m:8
      ~ops_per_process:(if quick then 15 else 60)
      ~write_ratio:0.5 ~seed:11 ()

  let once ~n ~quick ~metrics ~wire ~recorder () =
    Sim_run.run
      (module Dsm_core.Opt_p)
      ~spec:(spec ~n ~quick) ~latency ~seed:2 ~metrics ~wire ~recorder ()

  (* Sys.time is coarse: repeat until enough CPU time accumulates *)
  let time f =
    let reps = ref 0 and elapsed = ref 0. in
    while !elapsed < 0.3 && !reps < 50 do
      let t0 = Sys.time () in
      ignore (f ());
      elapsed := !elapsed +. (Sys.time () -. t0);
      incr reps
    done;
    !elapsed /. float_of_int !reps *. 1000.

  let run ~quick () =
    results := [];
    let table =
      Table_fmt.create
        ~title:
          "O: probe overhead - null sink vs metrics + wire + recorder \
           (chrome export timed apart)"
        ~header:
          [
            "n"; "messages"; "null ms/run"; "full ms/run"; "overhead";
            "trace ms";
          ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right; Table_fmt.Right;
      ];
    let last_live = ref None in
    List.iter
      (fun n ->
        let null_run () =
          once ~n ~quick
            ~metrics:(Metrics.null ())
            ~wire:(Dsm_obs.Wire.null ())
            ~recorder:(Dsm_obs.Timeseries.null ())
            ()
        in
        (* one registry + accountant for every reps of this size; reset
           between reps so tallies cannot leak run-to-run *)
        let metrics = Metrics.create () in
        let wire = Dsm_obs.Wire.create ~proto:"OptP" ~n () in
        let recorder = Dsm_obs.Timeseries.create ~metrics () in
        let full_run () =
          Metrics.reset metrics;
          Dsm_obs.Wire.reset wire;
          once ~n ~quick ~metrics ~wire ~recorder ()
        in
        (* differential guard: live observers must not change the run *)
        let o0 = null_run () in
        let o1 = full_run () in
        if
          o0.Sim_run.end_time <> o1.Sim_run.end_time
          || o0.Sim_run.messages_sent <> o1.Sim_run.messages_sent
          || Execution.event_count o0.Sim_run.execution
             <> Execution.event_count o1.Sim_run.execution
        then failwith "Obs: observation changed the simulated outcome";
        last_live := Some metrics;
        let null_ms = time null_run in
        let full_ms = time full_run in
        let trace_ms =
          time (fun () ->
              let buf = Buffer.create 8192 in
              Dsm_obs.Export.chrome buf ~n ~end_time:o1.Sim_run.end_time
                (Dsm_obs.Span.spans (Provenance.spans o1.Sim_run.execution));
              Buffer.length buf)
        in
        let overhead_pct = (full_ms -. null_ms) /. null_ms *. 100. in
        Table_fmt.add_row table
          [
            string_of_int n;
            string_of_int o0.Sim_run.messages_sent;
            Printf.sprintf "%.3f" null_ms;
            Printf.sprintf "%.3f" full_ms;
            Printf.sprintf "%+.1f%%" overhead_pct;
            Printf.sprintf "%.3f" trace_ms;
          ];
        results :=
          !results
          @ [
              {
                on = n;
                omessages = o0.Sim_run.messages_sent;
                null_ms;
                full_ms;
                trace_ms;
                overhead_pct;
                instruments = List.length (Metrics.rows metrics);
              };
            ])
      [ 8; 32 ];
    print_table table;
    (* the registry of the last timed rep, as users will see it *)
    match !last_live with
    | Some live ->
        print_newline ();
        print_table
          (Metrics.summary_table ~title:"metrics registry (n=32 run)" live)
    | None -> ()
end

(* ------------------------------------------------------------------ *)
(* Wire cost: causal-metadata bytes vs system size, dense vs delta     *)
(* ------------------------------------------------------------------ *)

module Wire_bench = struct
  module Sim_run = Dsm_runtime.Sim_run
  module Wire = Dsm_obs.Wire

  type result = {
    wn : int;  (** processes *)
    wframes : int;
    wtotal_bytes : int;
    wheader : int;
    wpayload : int;
    wmeta : int;
    wdelta_meta : int;
    wmeta_per_msg : float;
    wdelta_per_msg : float;
  }

  let results : result list ref = ref []

  (* Zipf-skewed writes: consecutive frames on an edge mostly move few
     vector entries, which is where the delta counterfactual wins *)
  let spec ~n ~quick =
    Dsm_workload.Spec.make ~n ~m:8
      ~ops_per_process:(if quick then 15 else 40)
      ~write_ratio:0.5 ~var_dist:(Dsm_workload.Spec.Zipf_vars 1.2) ~seed:11
      ()

  let run ~quick () =
    results := [];
    let table =
      Table_fmt.create
        ~title:
          "W: wire cost of dense OptP vectors vs the delta counterfactual \
           (zipf 1.2 writes)"
        ~header:
          [
            "n"; "frames"; "total B"; "meta B"; "meta B/msg";
            "delta B/msg"; "delta/dense";
          ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
      ];
    List.iter
      (fun n ->
        let wire = Wire.create ~proto:"OptP" ~n () in
        ignore
          (Sim_run.run
             (module Dsm_core.Opt_p)
             ~spec:(spec ~n ~quick)
             ~latency:(Dsm_sim.Latency.Exponential { mean = 10. })
             ~seed:2 ~wire ());
        let t = Wire.totals wire in
        let per x = float_of_int x /. float_of_int t.Wire.frames in
        let meta_per_msg = per t.Wire.meta in
        let delta_per_msg = per t.Wire.delta_meta in
        Table_fmt.add_row table
          [
            string_of_int n;
            string_of_int t.Wire.frames;
            string_of_int (Wire.total_bytes wire);
            string_of_int t.Wire.meta;
            Printf.sprintf "%.1f" meta_per_msg;
            Printf.sprintf "%.1f" delta_per_msg;
            Printf.sprintf "%.2f" (delta_per_msg /. meta_per_msg);
          ];
        results :=
          !results
          @ [
              {
                wn = n;
                wframes = t.Wire.frames;
                wtotal_bytes = Wire.total_bytes wire;
                wheader = t.Wire.header;
                wpayload = t.Wire.payload;
                wmeta = t.Wire.meta;
                wdelta_meta = t.Wire.delta_meta;
                wmeta_per_msg = meta_per_msg;
                wdelta_per_msg = delta_per_msg;
              };
            ])
      (if quick then [ 8; 32 ] else [ 8; 32; 128 ]);
    print_table table;
    print_endline
      "  dense causal metadata grows linearly in n (4 + 8n bytes per \
       write);";
    print_endline
      "  the delta counterfactual tracks how much of the vector actually \
       moved per edge."
end

(* ------------------------------------------------------------------ *)
(* Churn storm: 8 -> 16 -> 8 replicas under a Zipf workload            *)
(* ------------------------------------------------------------------ *)

module Churn = struct
  module CC = Dsm_runtime.Churn_campaign
  module Fault_plan = Dsm_sim.Fault_plan

  type result = {
    cprotocol : string;
    outcome : CC.outcome;
    static_payloads : int;
    static_frames : int;
    wall : float;
  }

  let results : result list ref = ref []
  let universe = 16
  let initial = 8
  let latency = Dsm_sim.Latency.Exponential { mean = 10. }

  let spec ~quick =
    Dsm_workload.Spec.make ~n:universe ~m:8
      ~ops_per_process:(if quick then 12 else 40)
      ~write_ratio:0.5 ~var_dist:(Dsm_workload.Spec.Zipf_vars 1.2) ~seed:7 ()

  (* slots 8..15 join staggered, then all eight leave again: the view
     grows 8 -> 16 and shrinks back to 8 while traffic is in flight *)
  let plan ~quick =
    let t f = Dsm_sim.Sim_time.of_float (if quick then f /. 3. else f) in
    Fault_plan.make
      (List.concat_map
         (fun i ->
           [
             Fault_plan.Join { proc = initial + i; at = t (60. +. (25. *. float_of_int i)) };
             Fault_plan.Leave { proc = initial + i; at = t (460. +. (25. *. float_of_int i)) };
           ])
         (List.init (universe - initial) Fun.id))

  let campaign (type pt pm)
      (module P : Dsm_core.Protocol.S with type t = pt and type msg = pm)
      ~quick () =
    let t0 = Sys.time () in
    let o =
      CC.run (module P) ~spec:(spec ~quick) ~latency ~plan:(plan ~quick)
        ~initial ~seed:5 ()
    in
    let wall = Sys.time () -. t0 in
    (* static baseline: the same workload with all 16 slots members from
       time 0 and no view changes — amplification is the extra wire
       traffic churn costs per delivered payload *)
    let s =
      CC.run (module P) ~spec:(spec ~quick) ~latency ~plan:(Fault_plan.make [])
        ~initial:universe ~seed:5 ()
    in
    {
      cprotocol = P.name;
      outcome = o;
      static_payloads = s.CC.payloads_sent;
      static_frames = s.CC.frames_sent;
      wall;
    }

  let frames_per_payload ~frames ~payloads =
    if payloads = 0 then 0.
    else float_of_int frames /. float_of_int payloads

  let amplification r =
    let churn =
      frames_per_payload ~frames:r.outcome.CC.frames_sent
        ~payloads:r.outcome.CC.payloads_sent
    and static_ =
      frames_per_payload ~frames:r.static_frames ~payloads:r.static_payloads
    in
    if static_ = 0. then 0. else churn /. static_

  type grid_cell = {
    spacing : float;
    gops : int;
    gjoins : int;
    gconverged : int;
    gmean : float;
    gmax : float;
    gclean : bool;
  }

  let grid_results : grid_cell list ref = ref []

  let run_tables ~quick () =
    results := [];
    let table =
      Table_fmt.create
        ~title:
          "C: churn storm - 8 -> 16 -> 8 replicas, Zipf(1.2) over 8 vars"
        ~header:
          [
            "protocol";
            "join latency";
            "transfer B";
            "replayed";
            "frames/payload";
            "static f/p";
            "amplification";
            "audit";
          ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Left;
      ];
    let rs =
      [
        campaign (module Dsm_core.Opt_p) ~quick ();
        campaign (module Dsm_core.Anbkh) ~quick ();
      ]
    in
    results := rs;
    List.iter
      (fun r ->
        let o = r.outcome in
        let lats = List.filter_map CC.catch_up_latency o.CC.catch_ups in
        let lat_str =
          match lats with
          | [] -> "-"
          | l ->
              Printf.sprintf "%.1f"
                (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
        in
        Table_fmt.add_row table
          [
            r.cprotocol;
            lat_str;
            string_of_int o.CC.transfer_bytes;
            string_of_int o.CC.replayed_writes;
            Printf.sprintf "%.3f"
              (frames_per_payload ~frames:o.CC.frames_sent
                 ~payloads:o.CC.payloads_sent);
            Printf.sprintf "%.3f"
              (frames_per_payload ~frames:r.static_frames
                 ~payloads:r.static_payloads);
            Printf.sprintf "%.2fx" (amplification r);
            (if o.CC.clean && o.CC.live_equal && o.CC.quarantine_leaks = 0
             then "clean+converged"
             else "VIOLATIONS");
          ])
      rs;
    print_table table

  (* join rate vs workload rate: how fast slots can enter the view
     before catch-up latency degrades, at two traffic volumes *)
  let run_grid ~quick () =
    grid_results := [];
    let table =
      Table_fmt.create
        ~title:"C2: join rate vs workload rate - join-to-converged latency"
        ~header:
          [ "join spacing"; "ops/proc"; "joins"; "mean conv"; "max conv";
            "audit" ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right; Table_fmt.Left;
      ];
    List.iter
      (fun spacing ->
        List.iter
          (fun ops ->
            let guniverse = 12 and ginitial = 8 in
            let spec =
              Dsm_workload.Spec.make ~n:guniverse ~m:8
                ~ops_per_process:(if quick then max 4 (ops / 3) else ops)
                ~write_ratio:0.5
                ~var_dist:(Dsm_workload.Spec.Zipf_vars 1.2) ~seed:11 ()
            in
            let plan =
              Fault_plan.make
                (List.init (guniverse - ginitial) (fun i ->
                     Fault_plan.Join
                       {
                         proc = ginitial + i;
                         at =
                           Dsm_sim.Sim_time.of_float
                             (60. +. (spacing *. float_of_int i));
                       }))
            in
            let o =
              CC.run (module Dsm_core.Opt_p) ~spec ~latency ~plan
                ~initial:ginitial ~seed:11 ()
            in
            let lats =
              List.filter_map
                (fun c ->
                  if c.CC.ckind = CC.Fresh_join then CC.catch_up_latency c
                  else None)
                o.CC.catch_ups
            in
            let mean = function
              | [] -> 0.
              | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
            in
            let cell =
              {
                spacing;
                gops = ops;
                gjoins = o.CC.joins;
                gconverged = List.length lats;
                gmean = mean lats;
                gmax = List.fold_left Float.max 0. lats;
                gclean =
                  o.CC.clean && o.CC.live_equal
                  && o.CC.quarantine_leaks = 0;
              }
            in
            grid_results := !grid_results @ [ cell ];
            Table_fmt.add_row table
              [
                Printf.sprintf "%.0f" spacing;
                string_of_int ops;
                Printf.sprintf "%d/%d" cell.gconverged cell.gjoins;
                Printf.sprintf "%.1f" cell.gmean;
                Printf.sprintf "%.1f" cell.gmax;
                (if cell.gclean then "clean" else "VIOLATIONS");
              ])
          [ 10; 40 ])
      [ 15.; 40.; 80. ];
    print_table table

  let run ~quick () =
    run_tables ~quick ();
    print_newline ();
    run_grid ~quick ()
end

(* ------------------------------------------------------------------ *)
(* Failure detection: accrual threshold x heartbeat period x crashes   *)
(* ------------------------------------------------------------------ *)

module Fd_bench = struct
  module CC = Dsm_runtime.Churn_campaign
  module Fd = Dsm_runtime.Failure_detector
  module Fault_plan = Dsm_sim.Fault_plan

  type cell = {
    fthreshold : float;
    fhb_every : float;
    fcrashes : int;
    fseeds : int;
    ftrue : int;  (** true suspicions across the seeds *)
    ffalse : int;  (** suspicions of a live peer *)
    frefuted : int;
    fdetect_mean : float;  (** crash-to-suspicion latency, true only *)
    fdetect_max : float;
    fheartbeats : int;
    fclean : bool;  (** every run clean+converged, zero leaks/unnecessary *)
  }

  let results : cell list ref = ref []
  let universe = 8
  let latency = Dsm_sim.Latency.Exponential { mean = 10. }

  let spec ~quick ~seed =
    Dsm_workload.Spec.make ~n:universe ~m:8
      ~ops_per_process:(if quick then 8 else 24)
      ~write_ratio:0.5 ~var_dist:(Dsm_workload.Spec.Zipf_vars 1.2) ~seed ()

  (* crash-only plan — in emergent mode the detector owns the view, so
     crashes are the only scripted input; every other victim recovers
     and must re-enter through the refutation/rejoin path *)
  let plan ~crashes =
    Fault_plan.make
      (List.concat_map
         (fun i ->
           let proc = 1 + i in
           let crash_at = 100. +. (60. *. float_of_int i) in
           Fault_plan.Crash { proc; at = Dsm_sim.Sim_time.of_float crash_at }
           ::
           (if i mod 2 = 1 then
              [
                Fault_plan.Recover
                  {
                    proc;
                    at = Dsm_sim.Sim_time.of_float (crash_at +. 250.);
                  };
              ]
            else []))
         (List.init crashes Fun.id))

  let run_cell ~quick ~threshold ~hb_every ~crashes =
    let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
    let detector = Fd.config ~threshold ~heartbeat_every:hb_every () in
    let t = ref 0
    and f = ref 0
    and refuted = ref 0
    and hbs = ref 0
    and lats = ref []
    and clean = ref true in
    List.iter
      (fun seed ->
        let o =
          CC.run (module Dsm_core.Opt_p) ~spec:(spec ~quick ~seed) ~latency
            ~plan:(plan ~crashes) ~initial:universe ~detector ~seed ()
        in
        List.iter
          (fun (s : CC.suspicion) ->
            if s.CC.strue then incr t else incr f;
            Option.iter (fun l -> lats := l :: !lats) s.CC.slatency)
          o.CC.suspicions;
        refuted := !refuted + o.CC.refutations;
        hbs := !hbs + o.CC.heartbeats_sent;
        clean :=
          !clean && o.CC.clean && o.CC.live_equal
          && o.CC.quarantine_leaks = 0
          && o.CC.report.Dsm_runtime.Checker.unnecessary_delays = 0)
      seeds;
    let mean = function
      | [] -> 0.
      | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
    in
    {
      fthreshold = threshold;
      fhb_every = hb_every;
      fcrashes = crashes;
      fseeds = List.length seeds;
      ftrue = !t;
      ffalse = !f;
      frefuted = !refuted;
      fdetect_mean = mean !lats;
      fdetect_max = List.fold_left Float.max 0. !lats;
      fheartbeats = !hbs;
      fclean = !clean;
    }

  let run ~quick () =
    results := [];
    let table =
      Table_fmt.create
        ~title:
          "F: accrual failure detection - threshold x heartbeat x crash rate"
        ~header:
          [
            "phi thresh"; "hb every"; "crashes"; "true susp"; "false susp";
            "refuted"; "detect mean"; "detect max"; "audit";
          ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Left;
      ];
    List.iter
      (fun threshold ->
        List.iter
          (fun hb_every ->
            List.iter
              (fun crashes ->
                let c = run_cell ~quick ~threshold ~hb_every ~crashes in
                results := !results @ [ c ];
                Table_fmt.add_row table
                  [
                    Printf.sprintf "%.1f" c.fthreshold;
                    Printf.sprintf "%.0f" c.fhb_every;
                    string_of_int c.fcrashes;
                    string_of_int c.ftrue;
                    string_of_int c.ffalse;
                    string_of_int c.frefuted;
                    Printf.sprintf "%.1f" c.fdetect_mean;
                    Printf.sprintf "%.1f" c.fdetect_max;
                    (if c.fclean then "clean" else "VIOLATIONS");
                  ])
              [ 1; 3 ])
          [ 10.; 25. ])
      [ 1.5; 3.; 5. ];
    print_table table
end

(* ------------------------------------------------------------------ *)
(* Engine throughput: indexed queue, arena, delivery batching          *)
(* ------------------------------------------------------------------ *)

module Engine_bench = struct
  module Engine = Dsm_sim.Engine
  module Sim_time = Dsm_sim.Sim_time
  module Network = Dsm_sim.Network

  type row = {
    equeue : string;
    eevents : int;
    ens_per_event : float;
    eminor_per_event : float;  (** GC minor words per event, steady state *)
    emajor_per_event : float;
  }

  type batch_row = {
    bmode : string;
    bdeliveries : int;
    bsteps : int;
    bns_per_delivery : float;
  }

  type summary = {
    rows : row list;
    m5_indexed_ns : float;
        (** schedule+run 1k events on the indexed queue — directly
            comparable to micro M5 and the CI regression baseline *)
    m5_heap_ns : float;
    bursts : int;
    burst_size : int;
    brows : batch_row list;
  }

  let results : summary option ref = ref None

  let queue_name = function Engine.Indexed -> "indexed" | Engine.Heap -> "heap"

  (* Steady-state workload: [width] self-rescheduling events in flight,
     [events] total firings. The in-flight count never exceeds [width],
     so the queue's capacity is pinned at a small constant and what the
     loop measures is the per-event schedule/pop cycle — the simulator
     hot path — not array growth. A single recursive closure serves
     every slot: the handler itself allocates nothing. *)
  let steady ~queue ~events () =
    let e = Engine.create ~queue () in
    let width = 64 in
    let fired = ref 0 in
    let rec fire () =
      incr fired;
      if !fired + width <= events then Engine.schedule_after e 1.0 fire
    in
    for i = 0 to width - 1 do
      Engine.schedule_at e
        (Sim_time.of_float (float_of_int i /. float_of_int width))
        fire
    done;
    ignore (Engine.run e);
    assert (!fired = events)

  (* Sys.time is coarse: repeat until enough CPU accumulates. GC deltas
     are read around the whole timed region (after one warm-up run) and
     divided by total events, so one-off warm-up allocation is excluded
     and per-rep setup amortizes away. *)
  let measure ~events f =
    f ();
    let reps = ref 0 and elapsed = ref 0. in
    let g0 = Gc.quick_stat () in
    while !elapsed < 0.2 && !reps < 500 do
      let t0 = Sys.time () in
      f ();
      elapsed := !elapsed +. (Sys.time () -. t0);
      incr reps
    done;
    let g1 = Gc.quick_stat () in
    let per = float_of_int (!reps * events) in
    ( !elapsed /. per *. 1e9,
      (g1.Gc.minor_words -. g0.Gc.minor_words) /. per,
      (g1.Gc.major_words -. g0.Gc.major_words) /. per )

  (* the exact M5 shape — schedule 1k events at distinct times, drain —
     for an apples-to-apples number against BENCH_indexed_buffer.json *)
  let m5_like ~queue () =
    let e = Engine.create ~queue () in
    for i = 1 to 1000 do
      Engine.schedule_at e
        (Sim_time.of_float (float_of_int i))
        (fun () -> ())
    done;
    ignore (Engine.run e)

  (* Same-edge bursts under constant latency: every burst lands at one
     delivery instant on one (src,dst) edge, the case batching collapses
     into a single wakeup. Deliveries and their times are identical in
     both modes; only the engine event count differs. *)
  let burst_run ~batch ~bursts ~burst_size () =
    let e = Engine.create () in
    let rng = Dsm_sim.Rng.create 42 in
    let net =
      Network.create ~engine:e ~rng ~n:8
        ~latency:(fun ~src:_ ~dst:_ -> Dsm_sim.Latency.Constant 5.)
        ~batch ()
    in
    let delivered = ref 0 in
    for p = 0 to 7 do
      Network.set_handler net p (fun ~src:_ ~at:_ (_ : int) -> incr delivered)
    done;
    for k = 0 to bursts - 1 do
      let src = k mod 8 in
      let dst = (k + 1) mod 8 in
      Engine.schedule_at e
        (Sim_time.of_float (float_of_int k *. 10.))
        (fun () ->
          for j = 1 to burst_size do
            Network.send net ~src ~dst j
          done)
    done;
    ignore (Engine.run e);
    (!delivered, Engine.steps_executed e)

  let run ~quick () =
    let sweep_events =
      if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ]
    in
    let table =
      Table_fmt.create
        ~title:"E: engine throughput - steady-state schedule/pop cycles"
        ~header:
          [ "queue"; "events"; "ns/event"; "minor w/event"; "major w/event" ]
        ()
    in
    Table_fmt.set_align table
      [
        Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
        Table_fmt.Right;
      ];
    let rows =
      List.concat_map
        (fun queue ->
          List.map
            (fun events ->
              let ns, minor, major =
                measure ~events (steady ~queue ~events)
              in
              let r =
                {
                  equeue = queue_name queue;
                  eevents = events;
                  ens_per_event = ns;
                  eminor_per_event = minor;
                  emajor_per_event = major;
                }
              in
              Table_fmt.add_row table
                [
                  r.equeue;
                  string_of_int events;
                  Printf.sprintf "%.1f" ns;
                  Printf.sprintf "%.2f" minor;
                  Printf.sprintf "%.3f" major;
                ];
              r)
            sweep_events)
        [ Engine.Indexed; Engine.Heap ]
    in
    print_table table;
    let m5_indexed_ns, _, _ =
      measure ~events:1 (m5_like ~queue:Engine.Indexed)
    in
    let m5_heap_ns, _, _ = measure ~events:1 (m5_like ~queue:Engine.Heap) in
    Printf.printf
      "\nM5-equivalent (schedule+run 1k events): indexed %.0f ns, heap %.0f \
       ns (%.1fx)\n"
      m5_indexed_ns m5_heap_ns
      (m5_heap_ns /. m5_indexed_ns);
    (* delivery batching: same-instant same-edge bursts *)
    let bursts = if quick then 32 else 256 in
    let burst_size = 32 in
    let btable =
      Table_fmt.create
        ~title:
          (Printf.sprintf
             "E2: delivery batching - %d bursts of %d same-instant sends \
              per edge"
             bursts burst_size)
        ~header:[ "mode"; "deliveries"; "engine steps"; "ns/delivery" ]
        ()
    in
    Table_fmt.set_align btable
      [ Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right ];
    let brows =
      List.map
        (fun (bmode, batch) ->
          let d0, s0 = burst_run ~batch ~bursts ~burst_size () in
          let ns, _, _ =
            measure ~events:d0 (fun () ->
                let d, s = burst_run ~batch ~bursts ~burst_size () in
                if d <> d0 || s <> s0 then
                  failwith "Engine_bench: burst run not deterministic")
          in
          let r =
            {
              bmode;
              bdeliveries = d0;
              bsteps = s0;
              bns_per_delivery = ns;
            }
          in
          Table_fmt.add_row btable
            [
              bmode;
              string_of_int d0;
              string_of_int s0;
              Printf.sprintf "%.1f" ns;
            ];
          r)
        [ ("unbatched", false); ("batched", true) ]
    in
    (match brows with
    | [ u; b ] ->
        if u.bdeliveries <> b.bdeliveries then
          failwith "Engine_bench: batched and unbatched deliveries disagree"
    | _ -> assert false);
    print_newline ();
    print_table btable;
    results :=
      Some { rows; m5_indexed_ns; m5_heap_ns; bursts; burst_size; brows }
end

module Nemesis_bench = struct
  module N = Dsm_runtime.Nemesis

  type summary = {
    xscenarios : int;
    xscenario_ok : int;
    xswarm_total : int;
    xswarm_accepted : int;
    xcounts : (string * int) list;  (** verdict tally, fixed order *)
    xsched_per_sec : float;
    xcanary_total : int;
    xcanary_caught : int;
    xshrinks : (string * int * int * int) list;
        (** (schedule, events before, events after, campaign runs) *)
  }

  let results : summary option ref = ref None

  let run ~quick () =
    (* scenario corpus: every named schedule on its expected verdict *)
    let ok = ref 0 in
    List.iter
      (fun (sc : N.scenario) ->
        let r = N.run sc.sched_ in
        let good = List.mem r.verdict sc.expected in
        if good then incr ok;
        Printf.printf "  %-22s %-18s %s\n%!" sc.sched_.N.name
          (N.verdict_name r.verdict)
          (if good then "ok" else "UNEXPECTED"))
      N.scenarios;
    (* swarm throughput + verdict table *)
    let count = if quick then 64 else 1000 in
    let t0 = Sys.time () in
    let rep = N.swarm ~seed:1 ~count () in
    let wall = Sys.time () -. t0 in
    let rate = float_of_int rep.N.total /. Float.max wall 1e-9 in
    Printf.printf "  swarm: %d schedules, %d accepted, %.0f schedules/sec\n%!"
      rep.N.total rep.N.accepted_count rate;
    List.iter
      (fun (v, k) ->
        if k > 0 then Printf.printf "    %-18s %d\n%!" (N.verdict_name v) k)
      rep.N.counts;
    (* the canary self-test: the swarm must catch the buggy protocol,
       and the shrinker must cut its reproducers down *)
    let canary_count = if quick then 4 else 16 in
    let crep = N.swarm ~protocol:"canary" ~seed:42 ~count:canary_count () in
    let caught = crep.N.total - crep.N.accepted_count in
    Printf.printf "  canary: %d/%d schedules caught\n%!" caught crep.N.total;
    let shrinks =
      crep.N.failures
      |> List.filteri (fun i _ -> i < if quick then 2 else 4)
      |> List.map (fun (r : N.result) ->
             let sh = N.shrink r.sched ~target:r.verdict in
             Printf.printf "  shrink %s: %d -> %d events in %d runs\n%!"
               sh.N.minimal.N.name sh.N.events_before sh.N.events_after
               sh.N.attempts;
             ( sh.N.minimal.N.name,
               sh.N.events_before,
               sh.N.events_after,
               sh.N.attempts ))
    in
    results :=
      Some
        {
          xscenarios = List.length N.scenarios;
          xscenario_ok = !ok;
          xswarm_total = rep.N.total;
          xswarm_accepted = rep.N.accepted_count;
          xcounts =
            List.map (fun (v, k) -> (N.verdict_name v, k)) rep.N.counts;
          xsched_per_sec = rate;
          xcanary_total = crep.N.total;
          xcanary_caught = caught;
          xshrinks = shrinks;
        }
end

(* ------------------------------------------------------------------ *)
(* K: endurance soak — slot reuse and retired-state reclamation        *)
(* ------------------------------------------------------------------ *)

module Soak_bench = struct
  module Soak = Dsm_runtime.Soak

  let results : Soak.outcome option ref = ref None

  (* The endurance claim: thousands of occupant lifetimes over a fixed
     6-slot universe, with per-replica metadata and wire vector width
     bounded by live membership rather than by the run's length. Quick
     mode shortens the run; the bounds being checked are identical. *)
  let run ~quick () =
    let cfg =
      { Soak.default with Soak.epochs = (if quick then 500 else 10_000) }
    in
    let o = Soak.run (module Dsm_core.Opt_p) cfg in
    results := Some o;
    Format.printf "%a@." Soak.pp_outcome o;
    Format.printf "high-water:@.";
    List.iter
      (fun (name, v) -> Format.printf "  %-28s %d@." name v)
      (Soak.high_water_table o);
    if not o.Soak.clean then failwith "soak verdict not clean"
end

(* ------------------------------------------------------------------ *)
(* G: session tier — friend-or-foe across placement policies           *)
(* ------------------------------------------------------------------ *)

module Session_bench = struct
  module ST = Dsm_runtime.Session_tier
  module CC = Dsm_runtime.Churn_campaign
  module Fd = Dsm_runtime.Failure_detector

  (* The friend-or-foe tension (Didona et al.): session guarantees
     couple a client's reads to its own causal frontier, so the same
     mechanism that keeps reads fresh (route anywhere, gate on the
     session vector) charges the client in blocked rejections and
     retries when the serving replica lags. One failover schedule —
     the home partitioned away mid-run — measured per placement
     policy, against the replica-side Theorem-4 accounting (which
     must stay at zero unnecessary delays regardless of policy). *)

  type cell = {
    gplacement : string;
    gseeds : int;
    gops : int;  (** acked ops across seeds *)
    gmigrations : int;
    gretries : int;
    gblocked : int;
    gunavailable : int;
    gdedup : int;
    gdegraded : int;
    gviolations : int;
    gdup_writes : int;
    gwrite_mean : float;
    gwrite_p50 : float;
    gwrite_p95 : float;
    gwrite_p99 : float;
    gread_mean : float;
    gread_p50 : float;
    gread_p95 : float;
    gread_p99 : float;
    gunnecessary : int;  (** replica-side, Theorem-4 accounting *)
    gclean : bool;
  }

  let results : cell list ref = ref []
  let universe = 5
  let seeds = [ 11; 12; 13 ]

  let failover_plan =
    Dsm_sim.Fault_plan.make
      [
        Dsm_sim.Fault_plan.Cut
          {
            groups = [ [ 0 ]; [ 1; 2; 3; 4 ] ];
            at = Dsm_sim.Sim_time.of_float 40.;
          };
        Dsm_sim.Fault_plan.Heal { at = Dsm_sim.Sim_time.of_float 400. };
      ]

  let run_policy placement =
    let acc = ref [] in
    List.iter
      (fun seed ->
        let spec =
          Dsm_workload.Spec.make ~n:universe ~m:3 ~ops_per_process:20
            ~write_ratio:0.5 ~seed ()
        in
        let sessions =
          {
            (ST.default_config ~count:16) with
            ST.placement;
            ops_per_session = 24;
            think_mean = 4.;
            write_ratio = 0.5;
            seed;
          }
        in
        let o =
          CC.run
            (module Dsm_core.Opt_p)
            ~spec
            ~latency:(Dsm_sim.Latency.Exponential { mean = 8. })
            ~plan:failover_plan ~initial:universe
            ~detector:(Fd.config ~threshold:1.2 ~heartbeat_every:8. ())
            ~mixed:true ~sessions ~seed ()
        in
        acc := o :: !acc)
      seeds;
    let outcomes = List.rev !acc in
    let reports =
      List.filter_map (fun (o : CC.outcome) -> o.CC.sessions) outcomes
    in
    let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
    let cat f = List.concat_map f reports in
    let writes = cat (fun r -> r.ST.write_latencies) in
    let reads = cat (fun r -> r.ST.read_latencies) in
    {
      gplacement = ST.placement_to_string placement;
      gseeds = List.length seeds;
      gops = sum (fun r -> r.ST.ops_done);
      gmigrations = sum (fun r -> List.length r.ST.migrations);
      gretries = sum (fun r -> r.ST.retries);
      gblocked = sum (fun r -> r.ST.blocked_rejections);
      gunavailable = sum (fun r -> r.ST.unavailable_rejections);
      gdedup = sum (fun r -> r.ST.dedup_hits);
      gdegraded = sum (fun r -> List.length r.ST.degraded);
      gviolations = sum (fun r -> List.length r.ST.violations);
      gdup_writes = sum (fun r -> r.ST.duplicate_writes);
      gwrite_mean = ST.mean writes;
      gwrite_p50 = ST.percentile writes 0.5;
      gwrite_p95 = ST.percentile writes 0.95;
      gwrite_p99 = ST.percentile writes 0.99;
      gread_mean = ST.mean reads;
      gread_p50 = ST.percentile reads 0.5;
      gread_p95 = ST.percentile reads 0.95;
      gread_p99 = ST.percentile reads 0.99;
      gunnecessary =
        List.fold_left
          (fun a (o : CC.outcome) ->
            a + o.CC.report.Dsm_runtime.Checker.unnecessary_delays)
          0 outcomes;
      gclean =
        List.for_all
          (fun (o : CC.outcome) ->
            o.CC.clean && o.CC.live_equal
            && match o.CC.sessions with
               | Some r -> ST.clean r
               | None -> false)
          outcomes;
    }

  (* deliberately identical in quick and full mode: the campaigns are
     millisecond-scale and the checked-in baseline must reproduce
     byte-for-byte under CI's --stress-quick *)
  let run ~quick:_ () =
    results :=
      List.map run_policy [ ST.Sticky; ST.Random; ST.Nearest ];
    Printf.printf
      "  %-8s %5s %5s %6s %4s %7s %5s %8s %8s %8s %8s %6s\n" "policy"
      "ops" "migr" "retry" "blk" "unavail" "degr" "w_mean" "w_p95"
      "r_mean" "r_p95" "unnec";
    List.iter
      (fun c ->
        Printf.printf
          "  %-8s %5d %5d %6d %4d %7d %5d %8.1f %8.1f %8.1f %8.1f %6d%s\n"
          c.gplacement c.gops c.gmigrations c.gretries c.gblocked
          c.gunavailable c.gdegraded c.gwrite_mean c.gwrite_p95
          c.gread_mean c.gread_p95 c.gunnecessary
          (if c.gclean then "" else "  DIRTY"))
      !results;
    if List.exists (fun c -> not c.gclean) !results then
      failwith "session bench: a policy run was not clean"
end

(* results captured for --json; filled by the section bodies *)
let stress_quick = ref false
let stress_result : Stress.result option ref = ref None
let micro_rows : (string * float option * float option) list ref = ref []

let sections =
  [
    ("T1", "Table 1: X_co-safe over H1", t1);
    ("T2", "Table 2: X_ANBKH over the Figure 3 run", t2);
    ("F1", "Figure 1: two admissible runs at p3", f1);
    ("F2", "Figure 2: a non-optimal safe protocol", f2);
    ("F3", "Figure 3: ANBKH and false causality", f3);
    ("F6", "Figure 6: the OptP run", f6);
    ("F7", "Figure 7: write causality graph of H1", f7);
    ("Q1", "delays vs number of processes", q1);
    ("Q2", "false causality vs latency variance", q2);
    ("Q3", "delays vs write ratio", q3);
    ("Q4", "buffer occupancy", q4);
    ("Q5", "apply latency", q5);
    ("Q6", "writing-semantics skips", q6);
    ("Q7", "ablation: FIFO channels", q7);
    ("Q8", "lossy links + reliable channels", q8);
    ("Q9", "replica divergence at quiescence", q9);
    ("Q10", "metadata: vectors vs direct dependencies", q10);
    ("Q11", "partial replication", q11);
    ("Q12", "crash-recovery campaigns", q12);
    ("R", "crash-recovery acceptance campaign", Recovery.run);
    ( "S",
      "buffer stress: indexed wakeups vs scanning drain",
      fun () -> stress_result := Some (Stress.run ~quick:!stress_quick ()) );
    ( "O",
      "observability: probe overhead, null sink vs full tracing",
      fun () -> Obs.run ~quick:!stress_quick () );
    ( "W",
      "wire cost: dense causal metadata vs the delta counterfactual",
      fun () -> Wire_bench.run ~quick:!stress_quick () );
    ( "C",
      "churn storm: 8 -> 16 -> 8 replicas under a Zipf workload",
      fun () -> Churn.run ~quick:!stress_quick () );
    ( "F",
      "failure detection: threshold x heartbeat x crash-rate sweep",
      fun () -> Fd_bench.run ~quick:!stress_quick () );
    ( "E",
      "engine throughput: indexed queue, arena, delivery batching",
      fun () -> Engine_bench.run ~quick:!stress_quick () );
    ( "X",
      "nemesis: scenario corpus, fault swarm, canary shrink",
      fun () -> Nemesis_bench.run ~quick:!stress_quick () );
    ( "K",
      "endurance soak: slot reuse + reclamation under churn",
      fun () -> Soak_bench.run ~quick:!stress_quick () );
    ( "G",
      "session tier: friend-or-foe latency across placement policies",
      fun () -> Session_bench.run ~quick:!stress_quick () );
  ]

(* per-section GC pressure for --json: (name, minor words, major words)
   allocated while the section body ran *)
let section_gc : (string * float * float) list ref = ref []

let run_section name title body =
  let g0 = Gc.quick_stat () in
  section name title body;
  let g1 = Gc.quick_stat () in
  section_gc :=
    !section_gc
    @ [
        ( name,
          g1.Gc.minor_words -. g0.Gc.minor_words,
          g1.Gc.major_words -. g0.Gc.major_words );
      ]

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json file =
  let buf = Buffer.create 1024 in
  let fopt = function
    | Some v -> Printf.sprintf "%.4f" v
    | None -> "null"
  in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"micro\": [";
  List.iteri
    (fun i (name, t, r2) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s }"
           (json_escape name) (fopt t) (fopt r2)))
    !micro_rows;
  Buffer.add_string buf (if !micro_rows = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"sections\": [";
  List.iteri
    (fun i (name, minor, major) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": \"%s\", \"gc_minor_words\": %.0f, \
            \"gc_major_words\": %.0f }"
           (json_escape name) minor major))
    !section_gc;
  Buffer.add_string buf (if !section_gc = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"stress\": ";
  (match !stress_result with
  | None -> Buffer.add_string buf "null"
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\n\
           \    \"n\": %d,\n\
           \    \"senders\": %d,\n\
           \    \"writes_per_sender\": %d,\n\
           \    \"messages\": %d,\n\
           \    \"scan_ms\": %.4f,\n\
           \    \"indexed_ms\": %.4f,\n\
           \    \"speedup\": %.2f\n\
           \  }"
           s.Stress.sn s.Stress.senders s.Stress.writes_per_sender
           s.Stress.messages s.Stress.scan_ms s.Stress.indexed_ms
           s.Stress.speedup));
  Buffer.add_string buf "\n}\n";
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--json: cannot write %s (%s)\n" file e;
      exit 1

let write_recovery_json file =
  let module CC = Dsm_runtime.Churn_campaign in
  let opt_1f = function Some t -> Printf.sprintf "%.1f" t | None -> "null" in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"section\": \"crash_recovery\",\n";
  Buffer.add_string buf
    "  \"plan\": { \"n\": 8, \"ops_per_process\": 60, \"crashes\": 2,\n\
    \            \"partition\": { \"cut_at\": 300.0, \"heal_at\": 800.0, \
     \"span\": 500.0 } },\n";
  Buffer.add_string buf "  \"campaigns\": [";
  List.iteri
    (fun i (name, (o : CC.outcome), wall) ->
      if i > 0 then Buffer.add_char buf ',';
      let lats = List.filter_map CC.catch_up_latency o.CC.catch_ups in
      let mean l =
        match l with
        | [] -> 0.
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      let fmax = List.fold_left Float.max 0. in
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"protocol\": \"%s\",\n" (json_escape name));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"clean\": %b, \"live_equal\": %b,\n"
           o.CC.clean o.CC.live_equal);
      Buffer.add_string buf "      \"recoveries\": [";
      List.iteri
        (fun j (c : CC.catch_up) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n        { \"proc\": %d, \"crashed_at\": %s, \
                \"recovered_at\": %.1f,\n\
               \          \"caught_up_at\": %s, \"latency\": %s,\n\
               \          \"rolled_back_events\": %d, \"replayed\": %d }"
               c.cproc (opt_1f c.crashed_at) c.started_at
               (opt_1f c.converged_at)
               (opt_1f (CC.catch_up_latency c))
               c.rolled_back c.replayed))
        o.CC.catch_ups;
      Buffer.add_string buf "\n      ],\n";
      Buffer.add_string buf
        (Printf.sprintf
           "      \"recovery_latency_mean\": %.1f, \
            \"recovery_latency_max\": %.1f,\n"
           (mean lats) (fmax lats));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"catch_up\": { \"replayed_writes\": %d, \
            \"sync_requests\": %d, \"sync_replies\": %d,\n\
           \                    \"stale_deliveries_dropped\": %d, \
            \"aborted_payloads\": %d },\n"
           o.CC.replayed_writes o.CC.sync_requests o.CC.sync_replies
           o.CC.stale_deliveries_dropped o.CC.aborted_payloads);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"durability\": { \"commits\": %d, \"snapshot_bytes\": \
            %d, \"rolled_back_events\": %d },\n"
           o.CC.commits o.CC.snapshot_bytes o.CC.rolled_back_events);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"wire\": { \"payloads_sent\": %d, \"frames_sent\": %d, \
            \"retransmissions\": %d,\n\
           \                \"frames_partition_dropped\": %d, \
            \"frames_crash_dropped\": %d,\n\
           \                \"frames_per_payload\": %.3f },\n"
           o.CC.payloads_sent o.CC.frames_sent o.CC.retransmissions
           o.CC.net_partition_dropped o.CC.net_crash_dropped
           (if o.CC.payloads_sent = 0 then 0.
            else
              float_of_int o.CC.frames_sent /. float_of_int o.CC.payloads_sent));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"engine_steps\": %d, \"sim_end_time\": %.1f, \
            \"wall_seconds\": %.3f }"
           o.CC.engine_steps o.CC.end_time wall))
    !Recovery.results;
  Buffer.add_string buf
    (if !Recovery.results = [] then "]\n}\n" else "\n  ]\n}\n");
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--recovery-json: cannot write %s (%s)\n" file e;
      exit 1

let write_obs_json file =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"section\": \"observability\",\n";
  Buffer.add_string buf
    "  \"workload\": { \"protocol\": \"OptP\", \"m\": 8, \
     \"write_ratio\": 0.5, \"latency\": \"exp(mean=10)\" },\n";
  Buffer.add_string buf "  \"overhead\": [";
  List.iteri
    (fun i (r : Obs.result) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"n\": %d, \"messages\": %d, \"instruments\": %d,\n\
           \      \"null_ms_per_run\": %.4f, \"full_ms_per_run\": %.4f, \
            \"overhead_pct\": %.2f,\n\
           \      \"trace_ms_per_run\": %.4f }"
           r.Obs.on r.Obs.omessages r.Obs.instruments r.Obs.null_ms
           r.Obs.full_ms r.Obs.overhead_pct r.Obs.trace_ms))
    !Obs.results;
  Buffer.add_string buf (if !Obs.results = [] then "]\n}\n" else "\n  ]\n}\n");
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--obs-json: cannot write %s (%s)\n" file e;
      exit 1

let write_wire_json file =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"section\": \"wire_cost\",\n";
  Buffer.add_string buf
    "  \"workload\": { \"protocol\": \"OptP\", \"m\": 8, \
     \"write_ratio\": 0.5, \"vars\": \"zipf(1.2)\", \"latency\": \
     \"exp(mean=10)\" },\n";
  Buffer.add_string buf "  \"results\": [";
  List.iteri
    (fun i (r : Wire_bench.result) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"n\": %d, \"frames\": %d, \"total_bytes\": %d, \
            \"header_bytes\": %d,\n\
           \      \"payload_bytes\": %d, \"meta_bytes\": %d, \
            \"delta_meta_bytes\": %d,\n\
           \      \"meta_bytes_per_msg\": %.2f, \
            \"delta_bytes_per_msg\": %.2f }"
           r.Wire_bench.wn r.Wire_bench.wframes r.Wire_bench.wtotal_bytes
           r.Wire_bench.wheader r.Wire_bench.wpayload r.Wire_bench.wmeta
           r.Wire_bench.wdelta_meta r.Wire_bench.wmeta_per_msg
           r.Wire_bench.wdelta_per_msg))
    !Wire_bench.results;
  Buffer.add_string buf
    (if !Wire_bench.results = [] then "]\n}\n" else "\n  ]\n}\n");
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--wire-json: cannot write %s (%s)\n" file e;
      exit 1

let write_churn_json file =
  let module CC = Dsm_runtime.Churn_campaign in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"section\": \"churn_storm\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"plan\": { \"universe\": %d, \"initial\": %d, \"joins\": %d, \
        \"leaves\": %d,\n\
       \            \"workload\": \"zipf(1.2) over 8 vars\" },\n"
       Churn.universe Churn.initial
       (Churn.universe - Churn.initial)
       (Churn.universe - Churn.initial));
  Buffer.add_string buf "  \"campaigns\": [";
  List.iteri
    (fun i (r : Churn.result) ->
      if i > 0 then Buffer.add_char buf ',';
      let o = r.Churn.outcome in
      let lats = List.filter_map CC.catch_up_latency o.CC.catch_ups in
      let mean = function
        | [] -> 0.
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"protocol\": \"%s\",\n"
           (json_escape r.Churn.cprotocol));
      Buffer.add_string buf
        (Printf.sprintf "      \"clean\": %b, \"live_equal\": %b,\n"
           o.CC.clean o.CC.live_equal);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"membership\": { \"final_epoch\": %d, \"joins\": %d, \
            \"rejoins\": %d, \"leaves\": %d },\n"
           o.CC.final_epoch o.CC.joins o.CC.rejoins o.CC.leaves);
      Buffer.add_string buf "      \"catch_ups\": [";
      List.iteri
        (fun j (c : CC.catch_up) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n        { \"proc\": %d, \"started_at\": %.1f, \
                \"latency\": %s,\n\
               \          \"transfer_bytes\": %d, \"replayed\": %d }"
               c.CC.cproc c.CC.started_at
               (match CC.catch_up_latency c with
               | Some l -> Printf.sprintf "%.1f" l
               | None -> "null")
               c.CC.transfer_bytes c.CC.replayed))
        o.CC.catch_ups;
      Buffer.add_string buf "\n      ],\n";
      Buffer.add_string buf
        (Printf.sprintf
           "      \"join_to_converged\": { \"mean\": %.1f, \"max\": %.1f },\n"
           (mean lats)
           (List.fold_left Float.max 0. lats));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"quarantine\": { \"chan_stale_quarantined\": %d, \
            \"net_stale_dropped\": %d,\n\
           \                      \"net_nonmember_dropped\": %d, \
            \"quarantine_leaks\": %d },\n"
           o.CC.chan_stale_quarantined o.CC.net_stale_dropped
           o.CC.net_nonmember_dropped o.CC.quarantine_leaks);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"wire\": { \"payloads_sent\": %d, \"frames_sent\": %d, \
            \"retransmissions\": %d,\n\
           \                \"transfer_bytes\": %d,\n\
           \                \"static_payloads\": %d, \"static_frames\": %d,\n\
           \                \"message_amplification\": %.3f },\n"
           o.CC.payloads_sent o.CC.frames_sent o.CC.retransmissions
           o.CC.transfer_bytes r.Churn.static_payloads r.Churn.static_frames
           (Churn.amplification r));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"audit\": { \"violations\": %d, \"necessary_delays\": \
            %d, \"unnecessary_delays\": %d },\n"
           (List.length o.CC.report.Dsm_runtime.Checker.violations)
           o.CC.report.Dsm_runtime.Checker.necessary_delays
           o.CC.report.Dsm_runtime.Checker.unnecessary_delays);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"engine_steps\": %d, \"sim_end_time\": %.1f, \
            \"wall_seconds\": %.3f }"
           o.CC.engine_steps o.CC.end_time r.Churn.wall))
    !Churn.results;
  Buffer.add_string buf
    (if !Churn.results = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"join_grid\": [";
  List.iteri
    (fun i (c : Churn.grid_cell) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"join_spacing\": %.1f, \"ops_per_process\": %d, \
            \"joins\": %d, \"converged\": %d,\n\
           \      \"join_to_converged_mean\": %.1f, \
            \"join_to_converged_max\": %.1f, \"clean\": %b }"
           c.Churn.spacing c.Churn.gops c.Churn.gjoins c.Churn.gconverged
           c.Churn.gmean c.Churn.gmax c.Churn.gclean))
    !Churn.grid_results;
  Buffer.add_string buf
    (if !Churn.grid_results = [] then "]\n}\n" else "\n  ]\n}\n");
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--churn-json: cannot write %s (%s)\n" file e;
      exit 1

let write_fd_json file =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"section\": \"failure_detector\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"plan\": { \"universe\": %d, \"mode\": \"emergent\", \
        \"protocol\": \"OptP\",\n\
       \            \"workload\": \"zipf(1.2) over 8 vars\" },\n"
       Fd_bench.universe);
  Buffer.add_string buf "  \"sweep\": [";
  List.iteri
    (fun i (c : Fd_bench.cell) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"threshold\": %.1f, \"heartbeat_every\": %.1f, \
            \"crashes\": %d, \"seeds\": %d,\n\
           \      \"true_suspicions\": %d, \"false_suspicions\": %d, \
            \"refutations\": %d,\n\
           \      \"detection_latency_mean\": %.1f, \
            \"detection_latency_max\": %.1f,\n\
           \      \"heartbeats_sent\": %d, \"clean\": %b }"
           c.Fd_bench.fthreshold c.Fd_bench.fhb_every c.Fd_bench.fcrashes
           c.Fd_bench.fseeds c.Fd_bench.ftrue c.Fd_bench.ffalse
           c.Fd_bench.frefuted c.Fd_bench.fdetect_mean c.Fd_bench.fdetect_max
           c.Fd_bench.fheartbeats c.Fd_bench.fclean))
    !Fd_bench.results;
  Buffer.add_string buf
    (if !Fd_bench.results = [] then "]\n}\n" else "\n  ]\n}\n");
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--fd-json: cannot write %s (%s)\n" file e;
      exit 1

let write_engine_json file =
  let module E = Engine_bench in
  match !E.results with
  | None -> ()
  | Some s ->
      let buf = Buffer.create 2048 in
      Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
      Buffer.add_string buf "  \"section\": \"engine_throughput\",\n";
      Buffer.add_string buf "  \"sweep\": [";
      List.iteri
        (fun i (r : E.row) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n    { \"queue\": \"%s\", \"events\": %d, \
                \"ns_per_event\": %.2f,\n\
               \      \"gc_minor_words_per_event\": %.3f, \
                \"gc_major_words_per_event\": %.4f }"
               (json_escape r.E.equeue) r.E.eevents r.E.ens_per_event
               r.E.eminor_per_event r.E.emajor_per_event))
        s.E.rows;
      Buffer.add_string buf (if s.E.rows = [] then "],\n" else "\n  ],\n");
      Buffer.add_string buf
        (Printf.sprintf "  \"m5_equiv_ns_per_1k_events\": %.1f,\n"
           s.E.m5_indexed_ns);
      Buffer.add_string buf
        (Printf.sprintf "  \"m5_equiv_heap_ns_per_1k_events\": %.1f,\n"
           s.E.m5_heap_ns);
      Buffer.add_string buf
        (Printf.sprintf
           "  \"batching\": { \"bursts\": %d, \"burst_size\": %d,\n\
           \    \"modes\": ["
           s.E.bursts s.E.burst_size);
      List.iteri
        (fun i (r : E.batch_row) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n      { \"mode\": \"%s\", \"deliveries\": %d, \
                \"engine_steps\": %d, \"ns_per_delivery\": %.2f }"
               (json_escape r.E.bmode) r.E.bdeliveries r.E.bsteps
               r.E.bns_per_delivery))
        s.E.brows;
      Buffer.add_string buf "\n    ],\n";
      (match s.E.brows with
      | [ u; b ] ->
          Buffer.add_string buf
            (Printf.sprintf "    \"step_reduction\": %.2f\n"
               (float_of_int u.E.bsteps /. float_of_int b.E.bsteps))
      | _ -> Buffer.add_string buf "    \"step_reduction\": null\n");
      Buffer.add_string buf "  }\n}\n";
      (match open_out file with
      | oc ->
          output_string oc (Buffer.contents buf);
          close_out oc;
          Printf.printf "\nwrote %s\n" file
      | exception Sys_error e ->
          Printf.eprintf "--engine-json: cannot write %s (%s)\n" file e;
          exit 1)

let write_nemesis_json file =
  match !Nemesis_bench.results with
  | None -> ()
  | Some s ->
      let module X = Nemesis_bench in
      let buf = Buffer.create 2048 in
      Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
      Buffer.add_string buf "  \"section\": \"nemesis\",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  \"scenarios\": { \"total\": %d, \"on_expected_verdict\": %d },\n"
           s.X.xscenarios s.X.xscenario_ok);
      Buffer.add_string buf
        (Printf.sprintf
           "  \"swarm\": { \"schedules\": %d, \"accepted\": %d, \
            \"schedules_per_sec\": %.1f,\n\
           \             \"verdicts\": {"
           s.X.xswarm_total s.X.xswarm_accepted s.X.xsched_per_sec);
      List.iteri
        (fun i (name, k) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "\"%s\": %d" name k))
        s.X.xcounts;
      Buffer.add_string buf " } },\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  \"canary\": { \"schedules\": %d, \"caught\": %d },\n"
           s.X.xcanary_total s.X.xcanary_caught);
      Buffer.add_string buf "  \"shrinks\": [";
      List.iteri
        (fun i (name, before, after, attempts) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n    { \"schedule\": \"%s\", \"events_before\": %d, \
                \"events_after\": %d, \"campaign_runs\": %d }"
               (json_escape name) before after attempts))
        s.X.xshrinks;
      Buffer.add_string buf
        (if s.X.xshrinks = [] then "]\n}\n" else "\n  ]\n}\n");
      (match open_out file with
      | oc ->
          output_string oc (Buffer.contents buf);
          close_out oc;
          Printf.printf "\nwrote %s\n" file
      | exception Sys_error e ->
          Printf.eprintf "--nemesis-json: cannot write %s (%s)\n" file e;
          exit 1)

let write_soak_json file =
  match !Soak_bench.results with
  | None -> ()
  | Some o -> (
      match open_out file with
      | oc ->
          output_string oc
            (Dsm_stats.Json.to_string (Dsm_runtime.Soak.to_json o) ^ "\n");
          close_out oc;
          Printf.printf "\nwrote %s\n" file
      | exception Sys_error e ->
          Printf.eprintf "--soak-json: cannot write %s (%s)\n" file e;
          exit 1)

let write_session_json file =
  let module G = Session_bench in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"causal-dsm-bench/v1\",\n";
  Buffer.add_string buf "  \"section\": \"session_tier\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"plan\": { \"universe\": %d, \"sessions\": 16, \
        \"ops_per_session\": 24,\n\
       \            \"schedule\": \"partition home slot 0 @40, heal \
        @400, phi detector armed\" },\n"
       G.universe);
  Buffer.add_string buf "  \"policies\": [";
  List.iteri
    (fun i (c : G.cell) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"placement\": \"%s\", \"seeds\": %d, \"ops\": %d,\n\
           \      \"migrations\": %d, \"retries\": %d, \
            \"blocked_rejections\": %d, \"unavailable_rejections\": %d,\n\
           \      \"dedup_hits\": %d, \"degraded\": %d, \"violations\": \
            %d, \"duplicate_writes\": %d,\n\
           \      \"write_latency\": { \"mean\": %.2f, \"p50\": %.2f, \
            \"p95\": %.2f, \"p99\": %.2f },\n\
           \      \"read_latency\": { \"mean\": %.2f, \"p50\": %.2f, \
            \"p95\": %.2f, \"p99\": %.2f },\n\
           \      \"unnecessary_delays\": %d, \"clean\": %b }"
           (json_escape c.G.gplacement) c.G.gseeds c.G.gops c.G.gmigrations
           c.G.gretries c.G.gblocked c.G.gunavailable c.G.gdedup
           c.G.gdegraded c.G.gviolations c.G.gdup_writes c.G.gwrite_mean
           c.G.gwrite_p50 c.G.gwrite_p95 c.G.gwrite_p99 c.G.gread_mean
           c.G.gread_p50 c.G.gread_p95 c.G.gread_p99 c.G.gunnecessary
           c.G.gclean))
    !Session_bench.results;
  Buffer.add_string buf
    (if !Session_bench.results = [] then "]\n}\n" else "\n  ]\n}\n");
  match open_out file with
  | oc ->
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s\n" file
  | exception Sys_error e ->
      Printf.eprintf "--session-json: cannot write %s (%s)\n" file e;
      exit 1

(* [--opt=v] or [--opt v] *)
let keyed_arg key args =
  let eq = key ^ "=" in
  let len = String.length eq in
  let with_eq =
    List.find_map
      (fun a ->
        if String.length a > len && String.sub a 0 len = eq then
          Some (String.sub a len (String.length a - len))
        else None)
      args
  in
  match with_eq with
  | Some _ as o -> o
  | None ->
      let rec find = function
        | k :: v :: _ when k = key -> Some v
        | _ :: rest -> find rest
        | [] -> None
      in
      find args

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_micro = List.mem "--no-micro" args in
  stress_quick := List.mem "--stress-quick" args;
  let json_path = keyed_arg "--json" args in
  let only =
    Option.map (String.split_on_char ',') (keyed_arg "--only" args)
  in
  let wanted name =
    match only with None -> true | Some names -> List.mem name names
  in
  List.iter
    (fun (name, title, body) ->
      if wanted name then run_section name title body)
    sections;
  if (not no_micro) && wanted "M" then
    run_section "M" "Bechamel micro-benchmarks" (fun () ->
        micro_rows := Micro.run ());
  if !Recovery.results <> [] then
    write_recovery_json
      (Option.value ~default:"BENCH_crash_recovery.json"
         (keyed_arg "--recovery-json" args));
  if !Obs.results <> [] then
    write_obs_json
      (Option.value ~default:"BENCH_observability.json"
         (keyed_arg "--obs-json" args));
  if !Wire_bench.results <> [] then
    write_wire_json
      (Option.value ~default:"BENCH_wire.json"
         (keyed_arg "--wire-json" args));
  if !Churn.results <> [] then
    write_churn_json
      (Option.value ~default:"BENCH_churn.json"
         (keyed_arg "--churn-json" args));
  if !Fd_bench.results <> [] then
    write_fd_json
      (Option.value ~default:"BENCH_failure_detector.json"
         (keyed_arg "--fd-json" args));
  if !Engine_bench.results <> None then
    write_engine_json
      (Option.value ~default:"BENCH_engine_throughput.json"
         (keyed_arg "--engine-json" args));
  if !Nemesis_bench.results <> None then
    write_nemesis_json
      (Option.value ~default:"BENCH_nemesis.json"
         (keyed_arg "--nemesis-json" args));
  if !Soak_bench.results <> None then
    write_soak_json
      (Option.value ~default:"BENCH_soak.json" (keyed_arg "--soak-json" args));
  if !Session_bench.results <> [] then
    write_session_json
      (Option.value ~default:"BENCH_session_tier.json"
         (keyed_arg "--session-json" args));
  Option.iter write_json json_path
