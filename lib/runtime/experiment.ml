module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock
module Latency = Dsm_sim.Latency
module Spec = Dsm_workload.Spec
module Table_fmt = Dsm_stats.Table_fmt
module Series = Dsm_stats.Series
module Summary = Dsm_stats.Summary
module History = Dsm_memory.History
module Causal_order = Dsm_memory.Causal_order
module Enabling = Dsm_memory.Enabling
module PS = Paper_scenarios

let optp = (module Dsm_core.Opt_p : Dsm_core.Protocol.S)
let anbkh = (module Dsm_core.Anbkh : Dsm_core.Protocol.S)
let ws_recv = (module Dsm_core.Ws_receiver : Dsm_core.Protocol.S)
let optp_ws = (module Dsm_core.Opt_p_ws : Dsm_core.Protocol.S)
let ws_token = (module Dsm_core.Ws_token : Dsm_core.Protocol.S)

let class_p_protocols = [ optp; anbkh ]
let all_protocols = [ optp; anbkh; ws_recv; optp_ws; ws_token ]

let name_of (module P : Dsm_core.Protocol.S) = P.name

(* ------------------------------------------------------------------ *)
(* Send-event vector timestamps recomputed from the message pattern    *)
(* ------------------------------------------------------------------ *)

let send_vectors exec =
  let n = Execution.n_processes exec in
  let clocks = Array.init n (fun _ -> V.create n) in
  let stamped = ref Dot.Map.empty in
  Execution.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Execution.Send { dot; _ } ->
          V.tick clocks.(e.proc) e.proc;
          stamped := Dot.Map.add dot (V.copy clocks.(e.proc)) !stamped
      | Execution.Receipt { dot; _ } -> (
          match Dot.Map.find_opt dot !stamped with
          | Some v -> V.merge_into clocks.(e.proc) v
          | None -> () (* receipt without recorded send: driver bug *))
      | Execution.Apply _ | Execution.Blocked _ | Execution.Skip _
      | Execution.Return _ -> ())
    exec;
  !stamped

(* ------------------------------------------------------------------ *)
(* Paper tables                                                        *)
(* ------------------------------------------------------------------ *)

let enabling_table ~title ~history ~set_of =
  let co = Causal_order.compute history in
  let table =
    Table_fmt.create ~title ~header:[ "event e"; "enabling set X(e)" ] ()
  in
  List.iter
    (fun (ev : Enabling.apply_event) ->
      Table_fmt.add_row table
        [
          Format.asprintf "%a" (Enabling.pp_apply_event ~history) ev;
          Format.asprintf "%a"
            (Enabling.pp_set ~history ~at_proc:ev.at_proc)
            (set_of co ev);
        ])
    (Enabling.all_apply_events co);
  table

let table1 () =
  enabling_table
    ~title:
      "Table 1: X_co-safe(e) of each apply event of H1 (paper Table 1)"
    ~history:PS.h1_reference
    ~set_of:(fun co ev -> Enabling.co_safe co ev)

let table2 () =
  let outcome = PS.run anbkh PS.figure3 in
  let vectors = send_vectors outcome.execution in
  let send_vt dot =
    match Dot.Map.find_opt dot vectors with
    | Some v -> v
    | None -> invalid_arg "table2: write without send timestamp"
  in
  let writes =
    List.map
      (fun (w : Dsm_memory.Operation.write) -> w.wdot)
      (History.writes outcome.history)
  in
  enabling_table
    ~title:
      "Table 2: X_ANBKH(e) for the run of Figure 3 (paper Table 2)"
    ~history:outcome.history
    ~set_of:(fun _co ev -> Enabling.anbkh ~send_vt ~writes ev)

(* ------------------------------------------------------------------ *)
(* Paper figures                                                       *)
(* ------------------------------------------------------------------ *)

let sequences_of outcome procs =
  let buf = Buffer.create 256 in
  List.iter
    (fun proc ->
      Buffer.add_string buf
        (Format.asprintf "  p%d: %a@." (proc + 1)
           (Execution.pp_process outcome.Scripted_run.execution proc)
           ()))
    procs;
  Buffer.contents buf

let delay_line outcome =
  let report = Checker.check outcome.Scripted_run.execution in
  Printf.sprintf
    "  delays: %d (necessary %d, unnecessary %d); checker: %s\n"
    report.Checker.total_delays report.Checker.necessary_delays
    report.Checker.unnecessary_delays
    (if Checker.is_clean report then "clean" else "VIOLATIONS")

let figure1 () =
  let buf = Buffer.create 512 in
  List.iter
    (fun scenario ->
      let outcome = PS.run optp scenario in
      Buffer.add_string buf (scenario.PS.label ^ "\n");
      Buffer.add_string buf (sequences_of outcome [ 2 ]);
      Buffer.add_string buf (delay_line outcome))
    [ PS.figure1_run1; PS.figure1_run2 ];
  Buffer.contents buf

let figure2 () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (PS.figure2.PS.label ^ "\n");
  List.iter
    (fun ((module P : Dsm_core.Protocol.S) as p) ->
      let outcome = PS.run p PS.figure2 in
      Buffer.add_string buf (Printf.sprintf "under %s:\n" P.name);
      Buffer.add_string buf (sequences_of outcome [ 2 ]);
      Buffer.add_string buf (delay_line outcome))
    [ anbkh; optp ];
  Buffer.contents buf

let figure3 () =
  let outcome = PS.run anbkh PS.figure3 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (PS.figure3.PS.label ^ "\n");
  Buffer.add_string buf (sequences_of outcome [ 0; 1; 2 ]);
  Buffer.add_string buf
    (Timeline.render ~width:64 outcome.Scripted_run.execution);
  Buffer.add_string buf (delay_line outcome);
  Buffer.contents buf

let figure6 () =
  let outcome = PS.run optp PS.figure6 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (PS.figure6.PS.label ^ "\n");
  Buffer.add_string buf (sequences_of outcome [ 0; 1; 2 ]);
  Buffer.add_string buf
    (Timeline.render ~width:64 outcome.Scripted_run.execution);
  let wv = Dsm_memory.Write_vectors.compute outcome.history in
  List.iter
    (fun (w : Dsm_memory.Operation.write) ->
      Buffer.add_string buf
        (Format.asprintf "  %a.Write_co = %a@." Dsm_memory.Operation.pp
           (Dsm_memory.Operation.Write w) V.pp
           (Dsm_memory.Write_vectors.of_write wv w.wdot)))
    (History.writes outcome.history);
  Buffer.add_string buf (delay_line outcome);
  Buffer.contents buf

let figure7 () =
  let co = Causal_order.compute PS.h1_reference in
  let graph = Dsm_memory.Causality_graph.compute co in
  Format.asprintf
    "Figure 7: write causality graph of H1@.%a@.@.%s"
    Dsm_memory.Causality_graph.pp graph
    (Dsm_memory.Causality_graph.to_graphviz graph)

(* ------------------------------------------------------------------ *)
(* Quantitative experiments                                            *)
(* ------------------------------------------------------------------ *)

type run_metrics = {
  protocol : string;
  delays : int;
  necessary : int;
  unnecessary : int;
  applies : int;
  skips : int;
  messages : int;
  buffer_high : int;
  mean_apply_latency : float;
  clean : bool;
}

let measure ((module P : Dsm_core.Protocol.S) as p) ~spec ~latency ?(seed = 1)
    () =
  let outcome = Sim_run.run p ~spec ~latency ~seed () in
  let report = Checker.check outcome.execution in
  if not (Checker.is_clean report) then
    failwith
      (Format.asprintf "experiment run of %s is not clean:@ %a" P.name
         Checker.pp_report report);
  let latencies = Execution.apply_latencies outcome.execution in
  {
    protocol = P.name;
    delays = report.Checker.total_delays;
    necessary = report.Checker.necessary_delays;
    unnecessary = report.Checker.unnecessary_delays;
    applies = report.Checker.total_applies;
    skips = report.Checker.skipped;
    messages = outcome.messages_sent;
    buffer_high =
      Array.fold_left max 0 outcome.buffer_high_watermarks;
    mean_apply_latency =
      (match latencies with
      | [] -> 0.
      | l -> Summary.mean (Summary.of_list l));
    clean = true;
  }

(* default network for the sweeps: log-normal with mean 10 time units —
   enough variance that message overtaking is routine *)
let lognormal_mean10 sigma =
  Latency.Lognormal { mu = log 10. -. (sigma *. sigma /. 2.); sigma }

let default_latency = lognormal_mean10 1.0

let per_100_applies metrics count =
  if metrics.applies = 0 then 0.
  else 100. *. float_of_int count /. float_of_int metrics.applies

let q1_sweep_processes ?(ns = [ 2; 4; 6; 8; 12 ]) ?(seeds = [ 1; 2; 3 ])
    ?(ops = 120) () =
  let series = Series.create ~x_label:"processes" () in
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let spec =
            Spec.make ~n ~m:8 ~ops_per_process:ops ~write_ratio:0.5
              ~think:(Latency.Exponential { mean = 5. })
              ~seed ()
          in
          List.iter
            (fun p ->
              let r = measure p ~spec ~latency:default_latency ~seed () in
              Series.add_point series ~series:r.protocol ~x:(float_of_int n)
                ~y:(per_100_applies r r.delays))
            all_protocols)
        seeds)
    ns;
  Series.to_table
    ~title:
      "Q1: write delays per 100 applies vs number of processes \
       (lognormal latency, sigma=1)"
    series

let q2_sweep_latency_variance ?(sigmas = [ 0.0; 0.5; 1.0; 1.5; 2.0 ])
    ?(seeds = [ 1; 2; 3 ]) ?(ops = 150) () =
  let series = Series.create ~x_label:"sigma" () in
  List.iter
    (fun sigma ->
      List.iter
        (fun seed ->
          let spec =
            Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:0.5
              ~think:(Latency.Exponential { mean = 5. })
              ~seed ()
          in
          List.iter
            (fun p ->
              let r =
                measure p ~spec ~latency:(lognormal_mean10 sigma) ~seed ()
              in
              Series.add_point series ~series:r.protocol ~x:sigma
                ~y:(per_100_applies r r.unnecessary))
            class_p_protocols)
        seeds)
    sigmas;
  Series.to_table
    ~title:
      "Q2: unnecessary delays (false causality) per 100 applies vs \
       latency variance (OptP must be identically 0 - Theorem 4)"
    series

let q3_sweep_write_ratio ?(ratios = [ 0.1; 0.3; 0.5; 0.7; 0.9 ])
    ?(seeds = [ 1; 2; 3 ]) ?(ops = 150) () =
  let series = Series.create ~x_label:"write ratio" () in
  List.iter
    (fun ratio ->
      List.iter
        (fun seed ->
          let spec =
            Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:ratio
              ~think:(Latency.Exponential { mean = 5. })
              ~seed ()
          in
          List.iter
            (fun p ->
              let r = measure p ~spec ~latency:default_latency ~seed () in
              Series.add_point series ~series:r.protocol ~x:ratio
                ~y:(per_100_applies r r.delays))
            all_protocols)
        seeds)
    ratios;
  Series.to_table
    ~title:"Q3: write delays per 100 applies vs write ratio" series

let q4_buffer_occupancy ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(ops = 150) () =
  let table =
    Table_fmt.create
      ~title:
        "Q4: buffered messages under a hot-spot workload (Zipf s=1.2, \
         n=6)"
      ~header:
        [ "protocol"; "peak buffer (max proc)"; "lifetime buffered"; "msgs" ]
      ()
  in
  Table_fmt.set_align table
    [ Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right ];
  List.iter
    (fun ((module P : Dsm_core.Protocol.S) as p) ->
      let peaks, totals, msgs =
        List.fold_left
          (fun (peaks, totals, msgs) seed ->
            let spec =
              Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:0.6
                ~var_dist:(Spec.Zipf_vars 1.2)
                ~think:(Latency.Exponential { mean = 5. })
                ~seed ()
            in
            let outcome =
              Sim_run.run p ~spec ~latency:default_latency ~seed ()
            in
            ( float_of_int
                (Array.fold_left max 0 outcome.buffer_high_watermarks)
              :: peaks,
              float_of_int (Array.fold_left ( + ) 0 outcome.total_buffered)
              :: totals,
              float_of_int outcome.messages_sent :: msgs ))
          ([], [], []) seeds
      in
      let s l = Format.asprintf "%a" Summary.pp_brief (Summary.of_list l) in
      Table_fmt.add_row table [ P.name; s peaks; s totals; s msgs ])
    all_protocols;
  table

let q5_apply_latency ?(seeds = [ 1; 2; 3 ]) ?(ops = 150) () =
  let table =
    Table_fmt.create
      ~title:
        "Q5: receipt-to-apply latency (time units; n=6, lognormal \
         sigma=1)"
      ~header:[ "protocol"; "mean"; "p95"; "max" ]
      ()
  in
  Table_fmt.set_align table
    [ Table_fmt.Left; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right ];
  List.iter
    (fun ((module P : Dsm_core.Protocol.S) as p) ->
      let latencies =
        List.concat_map
          (fun seed ->
            let spec =
              Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:0.5
                ~think:(Latency.Exponential { mean = 5. })
                ~seed ()
            in
            let outcome =
              Sim_run.run p ~spec ~latency:default_latency ~seed ()
            in
            Execution.apply_latencies outcome.execution)
          seeds
      in
      let s = Summary.of_list latencies in
      Table_fmt.add_row table
        [
          P.name;
          Table_fmt.cell_float ~digits:3 (Summary.mean s);
          Table_fmt.cell_float ~digits:3 (Summary.percentile s 95.);
          Table_fmt.cell_float ~digits:3 (Summary.max s);
        ])
    all_protocols;
  table

let q6_ws_skips ?(seeds = [ 1; 2; 3 ]) ?(ops = 150) () =
  let dists =
    [
      ("uniform", Spec.Uniform_vars);
      ("zipf s=0.8", Spec.Zipf_vars 0.8);
      ("zipf s=1.5", Spec.Zipf_vars 1.5);
      ("single variable", Spec.Single_var);
    ]
  in
  let ws_protocols = [ ws_recv; optp_ws; ws_token ] in
  let table =
    Table_fmt.create
      ~title:
        "Q6: writes skipped by writing-semantics protocols vs variable \
         locality (writes never applied at some process)"
      ~header:
        ("variable distribution"
        :: List.map name_of ws_protocols)
      ()
  in
  List.iter
    (fun (label, var_dist) ->
      let row =
        List.map
          (fun p ->
            let skips =
              List.map
                (fun seed ->
                  let spec =
                    Spec.make ~n:6 ~m:8 ~ops_per_process:ops
                      ~write_ratio:0.7 ~var_dist
                      ~think:(Latency.Exponential { mean = 5. })
                      ~seed ()
                  in
                  let outcome =
                    Sim_run.run p ~spec ~latency:default_latency ~seed ()
                  in
                  float_of_int outcome.skipped_writes)
                seeds
            in
            Format.asprintf "%a" Summary.pp_brief (Summary.of_list skips))
          ws_protocols
      in
      Table_fmt.add_row table (label :: row))
    dists;
  table

let q7_fifo_ablation ?(seeds = [ 1; 2; 3 ]) ?(ops = 150) () =
  let table =
    Table_fmt.create
      ~title:
        "Q7 (ablation): write delays per 100 applies, reordering \
         channels vs per-channel FIFO (n=6, lognormal sigma=1)"
      ~header:[ "protocol"; "reordering"; "FIFO" ]
      ()
  in
  Table_fmt.set_align table
    [ Table_fmt.Left; Table_fmt.Right; Table_fmt.Right ];
  List.iter
    (fun ((module P : Dsm_core.Protocol.S) as p) ->
      let cell fifo =
        let samples =
          List.map
            (fun seed ->
              let spec =
                Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:0.5
                  ~think:(Latency.Exponential { mean = 5. })
                  ~seed ()
              in
              let outcome =
                Sim_run.run p ~spec ~latency:default_latency ~fifo ~seed ()
              in
              let report = Checker.check outcome.execution in
              if not (Checker.is_clean report) then
                failwith ("q7: unclean run of " ^ P.name);
              if report.Checker.total_applies = 0 then 0.
              else
                100.
                *. float_of_int report.Checker.total_delays
                /. float_of_int report.Checker.total_applies)
            seeds
        in
        Format.asprintf "%a" Summary.pp_brief (Summary.of_list samples)
      in
      Table_fmt.add_row table [ P.name; cell false; cell true ])
    all_protocols;
  table

let q8_lossy_links ?(drops = [ 0.0; 0.1; 0.2; 0.4 ]) ?(seeds = [ 1; 2; 3 ])
    ?(ops = 100) () =
  let table =
    Table_fmt.create
      ~title:
        "Q8: OptP over lossy links with the reliable-channel substrate \
         (duplicate prob = drop/2; n=5)"
      ~header:
        [
          "drop prob";
          "frames/payload";
          "retransmissions";
          "t_end (vs lossless)";
          "delays/100 applies";
        ]
      ()
  in
  Table_fmt.set_align table
    [ Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
      Table_fmt.Right ];
  let baseline_end = ref 1. in
  List.iter
    (fun drop ->
      let amp = ref [] and retrans = ref [] and ends = ref [] in
      let delays = ref [] in
      List.iter
        (fun seed ->
          let spec =
            Spec.make ~n:5 ~m:6 ~ops_per_process:ops ~write_ratio:0.5
              ~think:(Latency.Exponential { mean = 5. })
              ~seed ()
          in
          let o =
            Reliable_run.run optp ~spec ~latency:default_latency
              ~faults:{ Dsm_sim.Network.drop; duplicate = drop /. 2.; corrupt = 0. }
              ~retransmit_after:80. ~seed ()
          in
          let report = Checker.check o.Reliable_run.execution in
          if not (Checker.is_clean report) then
            failwith "q8: unclean run over reliable channels";
          amp :=
            (float_of_int o.Reliable_run.frames_sent
            /. float_of_int (max 1 o.Reliable_run.payloads_sent))
            :: !amp;
          retrans := float_of_int o.Reliable_run.retransmissions :: !retrans;
          ends := o.Reliable_run.end_time :: !ends;
          delays :=
            (if report.Checker.total_applies = 0 then 0.
             else
               100.
               *. float_of_int report.Checker.total_delays
               /. float_of_int report.Checker.total_applies)
            :: !delays)
        seeds;
      let mean l = Summary.mean (Summary.of_list l) in
      if drop = 0. then baseline_end := mean !ends;
      Table_fmt.add_row table
        [
          Printf.sprintf "%g" drop;
          Printf.sprintf "%.2f" (mean !amp);
          Printf.sprintf "%.0f" (mean !retrans);
          Printf.sprintf "%.2fx" (mean !ends /. !baseline_end);
          Printf.sprintf "%.1f" (mean !delays);
        ])
    drops;
  table

(* final last-writer per variable at each process, from the trace *)
let final_stores exec =
  let n = Execution.n_processes exec in
  let m = Execution.n_variables exec in
  let stores = Array.init n (fun _ -> Array.make m None) in
  Execution.iter
    (fun (e : Execution.event) ->
      match e.kind with
      | Execution.Apply { dot; var; _ } -> stores.(e.proc).(var) <- Some dot
      | _ -> ())
    exec;
  stores

let divergent_fraction exec =
  let stores = final_stores exec in
  let n = Array.length stores in
  let m = if n = 0 then 0 else Array.length stores.(0) in
  if m = 0 then 0.
  else begin
    let divergent = ref 0 in
    for var = 0 to m - 1 do
      let distinct =
        List.sort_uniq compare
          (List.map (fun p -> stores.(p).(var)) (List.init n Fun.id))
      in
      if List.length distinct > 1 then incr divergent
    done;
    float_of_int !divergent /. float_of_int m
  end

let q9_divergence ?(ratios = [ 0.2; 0.5; 0.8 ]) ?(seeds = [ 1; 2; 3; 4; 5 ])
    ?(ops = 150) () =
  let series = Series.create ~x_label:"write ratio" () in
  List.iter
    (fun ratio ->
      List.iter
        (fun seed ->
          let spec =
            Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:ratio
              ~think:(Latency.Exponential { mean = 5. })
              ~seed ()
          in
          List.iter
            (fun ((module P : Dsm_core.Protocol.S) as p) ->
              let o = Sim_run.run p ~spec ~latency:default_latency ~seed () in
              Series.add_point series ~series:P.name ~x:ratio
                ~y:(100. *. divergent_fraction o.Sim_run.execution))
            all_protocols)
        seeds)
    ratios;
  Series.to_table
    ~title:
      "Q9: % of variables with divergent final replicas vs write ratio \
       (causal consistency permits permanent divergence on concurrent \
       writes; even the token protocol diverges at senders, which apply \
       their own writes ahead of their round position)"
    series

(* average immediate-predecessor count per write, from the ground-truth
   vectors (protocol-independent; equals the causality graph's mean
   in-degree) *)
let mean_dependency_count history =
  let wv = Dsm_memory.Write_vectors.compute history in
  let writes = History.writes history in
  let n = History.n_processes history in
  let dep_count (w : Dsm_memory.Operation.write) =
    let vec = Dsm_memory.Write_vectors.of_write wv w.wdot in
    let candidates =
      List.filter_map
        (fun p ->
          let seq =
            if p = Dot.replica w.wdot then V.get vec p - 1 else V.get vec p
          in
          if seq > 0 then Some (Dot.make ~replica:p ~seq) else None)
        (List.init n Fun.id)
    in
    List.length
      (List.filter
         (fun d ->
           not
             (List.exists
                (fun d' ->
                  (not (Dot.equal d d'))
                  && Dot.seq d
                     <= V.get
                          (Dsm_memory.Write_vectors.of_write wv d')
                          (Dot.replica d))
                candidates))
         candidates)
  in
  match writes with
  | [] -> 0.
  | _ ->
      float_of_int (List.fold_left (fun acc w -> acc + dep_count w) 0 writes)
      /. float_of_int (List.length writes)

let q10_metadata_size ?(ns = [ 3; 6; 9; 12 ]) ?(seeds = [ 1; 2; 3 ])
    ?(ops = 80) () =
  let table =
    Table_fmt.create
      ~title:
        "Q10: wire metadata per write message - full vector (OptP) vs \
         direct dependencies (OptP-direct); identical delay behaviour"
      ~header:
        [ "processes"; "vector entries"; "mean deps/message"; "saving" ]
      ()
  in
  Table_fmt.set_align table
    [ Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right ];
  List.iter
    (fun n ->
      let means =
        List.map
          (fun seed ->
            let spec =
              Spec.make ~n ~m:8 ~ops_per_process:ops ~write_ratio:0.5
                ~think:(Latency.Exponential { mean = 5. })
                ~seed ()
            in
            let o =
              Sim_run.run
                (module Dsm_core.Opt_p_direct)
                ~spec ~latency:default_latency ~seed ()
            in
            let report = Checker.check o.Sim_run.execution in
            if not (Checker.is_clean report) then
              failwith "q10: unclean OptP-direct run";
            mean_dependency_count (Execution.to_history o.Sim_run.execution))
          seeds
      in
      let mean = Summary.mean (Summary.of_list means) in
      Table_fmt.add_row table
        [
          string_of_int n;
          string_of_int n;
          Printf.sprintf "%.2f" mean;
          Printf.sprintf "%.1fx" (float_of_int n /. Float.max mean 1e-9);
        ])
    ns;
  table

let q5_histogram ?(seed = 1) ?(ops = 200) () =
  let spec =
    Spec.make ~n:6 ~m:8 ~ops_per_process:ops ~write_ratio:0.5
      ~think:(Latency.Exponential { mean = 5. })
      ~seed ()
  in
  let latencies p =
    let o = Sim_run.run p ~spec ~latency:default_latency ~seed () in
    Execution.apply_latencies o.Sim_run.execution
  in
  let optp_lat = latencies optp in
  let anbkh_lat = latencies anbkh in
  (* a shared range so the two panels are comparable *)
  let hi =
    List.fold_left Float.max 1. (optp_lat @ anbkh_lat) *. (1. +. 1e-9)
  in
  let render label samples =
    let h = Dsm_stats.Histogram.create ~lo:0. ~hi ~bins:12 in
    Dsm_stats.Histogram.add_all h samples;
    Printf.sprintf "%s (n=%d):\n%s" label (List.length samples)
      (Dsm_stats.Histogram.render ~width:40 h)
  in
  render "OptP receipt->apply latency" optp_lat
  ^ "\n"
  ^ render "ANBKH receipt->apply latency" anbkh_lat

let q11_partial_replication ?(degrees = [ 6; 4; 3; 2 ]) ?(seeds = [ 1; 2; 3 ])
    ?(ops = 100) () =
  let n = 6 and m = 12 in
  let table =
    Table_fmt.create
      ~title:
        "Q11: partial replication (matrix-clock OptP, n=6, m=12) - wire \
         and delay cost vs copies per location"
      ~header:
        [
          "degree";
          "messages";
          "delays/100 applies";
          "peak buffer";
          "audit";
        ]
      ()
  in
  Table_fmt.set_align table
    [ Table_fmt.Right; Table_fmt.Right; Table_fmt.Right; Table_fmt.Right;
      Table_fmt.Left ];
  List.iter
    (fun degree ->
      let msgs = ref [] and delays = ref [] and peaks = ref [] in
      let all_clean = ref true in
      List.iter
        (fun seed ->
          let repl = Dsm_core.Replication.ring ~n ~m ~degree in
          let spec =
            Spec.make ~n ~m ~ops_per_process:ops ~write_ratio:0.5
              ~think:(Latency.Exponential { mean = 5. })
              ~seed ()
          in
          let o =
            Partial_run.run ~replication:repl ~spec
              ~latency:default_latency ~seed ()
          in
          let r = Partial_run.check o in
          if not (Checker.is_clean r) then all_clean := false;
          msgs := float_of_int o.Partial_run.messages_sent :: !msgs;
          delays :=
            (if r.Checker.total_applies = 0 then 0.
             else
               100.
               *. float_of_int r.Checker.total_delays
               /. float_of_int r.Checker.total_applies)
            :: !delays;
          peaks :=
            float_of_int
              (Array.fold_left max 0 o.Partial_run.buffer_high_watermarks)
            :: !peaks)
        seeds;
      let mean l = Summary.mean (Summary.of_list l) in
      Table_fmt.add_row table
        [
          (if degree = n then Printf.sprintf "%d (full)" degree
           else string_of_int degree);
          Printf.sprintf "%.0f" (mean !msgs);
          Printf.sprintf "%.1f" (mean !delays);
          Printf.sprintf "%.1f" (mean !peaks);
          (if !all_clean then "clean" else "VIOLATIONS");
        ])
    degrees;
  table

(* ------------------------------------------------------------------ *)
(* Q12: crash-recovery fault campaigns                                 *)
(* ------------------------------------------------------------------ *)

module Fault_plan = Dsm_sim.Fault_plan

let plan_time f = Dsm_sim.Sim_time.of_float f

(* the acceptance schedule: 8 replicas, a 500-time-unit partition, two
   crashes in its shadow, heal, recover, quiesce *)
let acceptance_plan =
  Fault_plan.make
    [
      Fault_plan.Cut
        { groups = [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ]; at = plan_time 300. };
      Fault_plan.Crash { proc = 2; at = plan_time 400. };
      Fault_plan.Crash { proc = 5; at = plan_time 500. };
      Fault_plan.Heal { at = plan_time 800. };
      Fault_plan.Recover { proc = 2; at = plan_time 1000. };
      Fault_plan.Recover { proc = 5; at = plan_time 1100. };
    ]

let acceptance_spec ops =
  Spec.make ~n:8 ~m:4 ~ops_per_process:ops ~write_ratio:0.4
    ~think:(Latency.Exponential { mean = 20. })
    ~seed:2026 ()

let run_campaign (Dsm_core.Protocol.Packed (module P)) ~spec ~plan ~seed =
  Churn_campaign.run
    (module P)
    ~spec
    ~latency:(Latency.Exponential { mean = 10. })
    ~plan ~initial:spec.Spec.n ~seed ()

let acceptance_campaign ?(protocol = Dsm_core.Protocol.Packed (module Dsm_core.Opt_p))
    ?(seed = 5) ?(ops = 60) () =
  run_campaign protocol ~spec:(acceptance_spec ops) ~plan:acceptance_plan
    ~seed

let q12_crash_recovery ?(seeds = [ 1; 2; 3 ]) ?(ops = 40) () =
  let single_crash =
    Fault_plan.make
      [
        Fault_plan.Crash { proc = 1; at = plan_time 120. };
        Fault_plan.Recover { proc = 1; at = plan_time 320. };
      ]
  in
  let crash_and_cut =
    Fault_plan.make
      [
        Fault_plan.Crash { proc = 1; at = plan_time 120. };
        Fault_plan.Cut { groups = [ [ 0; 1 ]; [ 2; 3 ] ]; at = plan_time 150. };
        Fault_plan.Heal { at = plan_time 260. };
        Fault_plan.Recover { proc = 1; at = plan_time 320. };
      ]
  in
  let plans =
    [ ("1 crash", single_crash); ("crash + partition", crash_and_cut) ]
  in
  let packed =
    [
      ("OptP", Dsm_core.Protocol.Packed (module Dsm_core.Opt_p));
      ("ANBKH", Dsm_core.Protocol.Packed (module Dsm_core.Anbkh));
    ]
  in
  let table =
    Table_fmt.create
      ~title:
        "Q12: crash-recovery campaigns (n=4) - checkpoint rollback, \
         anti-entropy catch-up and recovery latency"
      ~header:
        [
          "protocol";
          "fault plan";
          "rolled back";
          "replayed";
          "recovery latency";
          "sync frames";
          "audit";
        ]
      ()
  in
  Table_fmt.set_align table
    [
      Table_fmt.Left; Table_fmt.Left; Table_fmt.Right; Table_fmt.Right;
      Table_fmt.Right; Table_fmt.Right; Table_fmt.Left;
    ];
  List.iter
    (fun (pname, p) ->
      List.iter
        (fun (plan_name, plan) ->
          let rolled = ref [] and replayed = ref [] and lat = ref [] in
          let sync = ref [] in
          let all_ok = ref true in
          List.iter
            (fun seed ->
              let spec =
                Spec.make ~n:4 ~m:3 ~ops_per_process:ops ~write_ratio:0.5
                  ~think:(Latency.Exponential { mean = 10. })
                  ~seed ()
              in
              let o = run_campaign p ~spec ~plan ~seed in
              if not (o.Churn_campaign.clean && o.Churn_campaign.live_equal)
              then all_ok := false;
              rolled := float_of_int o.rolled_back_events :: !rolled;
              replayed := float_of_int o.replayed_writes :: !replayed;
              sync := float_of_int (o.sync_requests + o.sync_replies) :: !sync;
              List.iter
                (fun c ->
                  match Churn_campaign.catch_up_latency c with
                  | Some l -> lat := l :: !lat
                  | None -> all_ok := false)
                o.catch_ups)
            seeds;
          let mean l = Summary.mean (Summary.of_list l) in
          Table_fmt.add_row table
            [
              pname;
              plan_name;
              Printf.sprintf "%.1f" (mean !rolled);
              Printf.sprintf "%.1f" (mean !replayed);
              Printf.sprintf "%.0f" (mean !lat);
              Printf.sprintf "%.0f" (mean !sync);
              (if !all_ok then "clean+converged" else "VIOLATIONS");
            ])
        plans)
    packed;
  table
