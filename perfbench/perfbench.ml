(* The repository benchmark.

   Usage:
     perfbench.exe --workload NAME [--seed N|dev|held-out] [--seconds S]
                   [--trace 0|1]

   Runs one workload (static-reorder, lossy-churn, nemesis-swarm) on
   inputs drawn from the seed, audits every case, prints a human report
   and, as the last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1
   they are the per-layer ones from the traced run (see layers.ml). *)

open Cases

let dev_seed = 1
let held_out_seed = 104729

let usage () =
  prerr_endline
    "usage: perfbench --workload static-reorder|lossy-churn|nemesis-swarm \
     [--seed N|dev|held-out] [--seconds S] [--trace 0|1]";
  exit 2

type args = { workload : workload; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref dev_seed in
  let seconds = ref 30. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := List.assoc_opt w workloads;
        if !workload = None then usage ();
        go rest
    | "--seed" :: s :: rest ->
        (seed :=
           match s with
           | "dev" -> dev_seed
           | "held-out" -> held_out_seed
           | s -> ( match int_of_string_opt s with Some n -> n | None -> usage ()));
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> seconds := x
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload -> { workload; seed = !seed; seconds = !seconds; trace = !trace }

let now_s () = float_of_int (Timed.now_ns ()) /. 1e9

(* Build every input of the run, then run one untimed warm-up case;
   repeated a fixed number of times per workload and the median
   reported, so one slow set-up does not decide the figure. The warm-up
   case is always the development seed's first input: input sizes vary
   a lot from seed to seed (most on nemesis-swarm), and set-up time
   should not. Every case, warm-up or timed, starts from a collected
   heap, so its time and heap high-water mark depend on its own input,
   not on its predecessor's garbage. *)
let setup_repeats = function
  | Static_reorder -> 3
  | Lossy_churn -> 5
  | Nemesis_swarm -> 15

let setup a =
  let warm_up = Cases.input a.workload (dev_seed * 1000) in
  let times = ref [] and pool = ref [||] in
  for _ = 1 to setup_repeats a.workload do
    Gc.full_major ();
    let t0 = now_s () in
    pool := Cases.inputs a.workload ~seed:a.seed;
    ignore (run_case a.workload warm_up (wire_only warm_up));
    times := (now_s () -. t0) :: !times
  done;
  (!pool, median !times)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Runs the inputs of the pool in turn until the time is up, but at least
   [least] of them. *)
let for_passes ~least a pool f =
  let k = Array.length pool in
  let deadline = now_s () +. a.seconds in
  let i = ref 0 in
  while !i < least || now_s () < deadline do
    f ~first:(!i < k) (!i mod k) pool.(!i mod k);
    incr i
  done

(* The major heap's high-water mark during one case: its size sampled
   at the end of every major cycle and when the case ends. *)
let heap_peak = ref 0

let heap_words () = (Gc.quick_stat ()).heap_words

let _alarm =
  Gc.create_alarm (fun () -> heap_peak := max !heap_peak (heap_words ()))

let timed_run a pool ~setup_s =
  let model = Cases.model () in
  let digests = Array.make (Array.length pool) "" in
  let times = ref [] and writes = ref 0 and ops = ref 0 in
  let peaks = ref [] in
  let failed = ref 0 and nondeterministic = ref 0 in
  (* the first pass always completes, and it alone feeds the model
     metrics and the outcome digest; a later run of an input must
     reproduce its digest *)
  for_passes ~least:(Array.length pool) a pool (fun ~first i input ->
      let obs = wire_only input in
      Gc.full_major ();
      heap_peak := heap_words ();
      let t0 = now_s () in
      let c = run_case a.workload input obs in
      times := (now_s () -. t0) :: !times;
      peaks := float_of_int (max !heap_peak (heap_words ())) :: !peaks;
      let v = judge c in
      writes := !writes + v.writes;
      ops := !ops + c.ops;
      failed := !failed + v.failures;
      if first then begin
        digests.(i) <- v.digest;
        observe_model model c ~wire:obs.wire
      end
      else if v.digest <> digests.(i) then incr nondeterministic);
  let total = List.fold_left ( +. ) 0. !times in
  let cases = List.length !times in
  let digest = Digest.to_hex (Digest.string (String.concat "|" (Array.to_list digests))) in
  Printf.printf "workload        %s (seed %d)\n" (workload_name a.workload) a.seed;
  Printf.printf "cases           %d over a pool of %d inputs\n" cases
    (Array.length pool);
  Printf.printf "outcome digest  %s\n" digest;
  Printf.printf "writes audited  %d, operations %d, failed %d, nondeterministic %d\n"
    !writes !ops !failed !nondeterministic;
  Printf.printf "error_rate      %.6g\n" (ratio !failed !ops);
  Printf.printf "catch_up_p50    %s (%d catch-ups)\n"
    (match model.catch_ups with
    | [] -> "null"
    | xs -> Printf.sprintf "%.6g" (median xs))
    (List.length model.catch_ups);
  (* the visibility tail follows a few extreme latencies, partitions and
     crashes per input, so it moves too much from seed to seed to carry a
     bound; it is reported here, not in the result *)
  let visibility = Array.concat model.visibility in
  Printf.printf "visibility tail p90 %.6g, p99 %.6g\n"
    (quantile_of_array visibility 0.9)
    (quantile_of_array visibility 0.99);
  Printf.printf "case_ms         p50/p90 over %d cases%s\n" cases
    (if cases < 100 then " (fewer than 100: tail is indicative only)" else "");
  let case_ms = List.map (fun t -> t *. 1e3) !times in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("writes_per_s", float_of_int !writes /. total, "1/s");
      ("case_ms_p50", quantile case_ms 0.5, "ms");
      ("case_ms_p90", quantile case_ms 0.9, "ms");
      ("peak_heap_mb", mb_of_words (median !peaks), "MB");
      ("visibility_p50", quantile_of_array visibility 0.5, "sim-time");
      ( "delayed_apply_ratio",
        ratio model.delayed_applies model.remote_applies,
        "ratio" );
      ( "wire_bytes_per_write",
        ratio model.wire_bytes model.writes_issued,
        "B" );
    ]
  in
  List.iter
    (fun (name, v, u) -> Printf.printf "%-22s %14.6g %s\n" name v u)
    metrics;
  print_result
    ~correct:(!failed = 0 && !nondeterministic = 0)
    ~attempted:!ops ~failed:!failed metrics

let traced_run a pool =
  let samples = ref [] in
  for_passes ~least:1 a pool (fun ~first:_ _ input ->
      samples := Layers.sample a.workload input :: !samples);
  let samples = List.rev !samples in
  let failed =
    List.fold_left (fun acc (s : Layers.sample) -> acc + s.verdict.failures) 0 samples
  in
  let attempted =
    List.fold_left (fun acc (s : Layers.sample) -> acc + s.ops) 0 samples
  in
  let metrics, conserved = Layers.metrics a.workload samples in
  Printf.printf "workload        %s (seed %d), traced\n"
    (workload_name a.workload) a.seed;
  Printf.printf "traced cases    %d; case driver %s; stacked %s\n"
    (List.length samples)
    (level_name (own_level a.workload))
    (String.concat " < " (List.map level_name levels));
  Printf.printf "conservation    %s (unattributed within +/-%g%% of traced total)\n"
    (if conserved then "ok" else "FAILED")
    Layers.conservation_bound_pct;
  List.iter
    (fun (m : Layers.metric) ->
      Printf.printf "%-36s %14.6g %s\n" m.name m.value m.unit_)
    metrics;
  print_result
    ~correct:(failed = 0 && conserved)
    ~attempted ~failed
    (List.map (fun (m : Layers.metric) -> (m.name, m.value, m.unit_)) metrics)

let () =
  let a = parse_args () in
  let pool, setup_s = setup a in
  if a.trace then traced_run a pool else timed_run a pool ~setup_s
