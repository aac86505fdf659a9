(* Tests for the wire-cost telemetry tier: the log-bucketed quantile
   sketch against exact sorted-array quantiles (qcheck, bounded
   relative error), the wire accountant's byte conservation against the
   network's own counters, [Metrics.reset] semantics, the flight
   recorder's ring retention and JSONL export, and the bench-diff
   comparator's flattening / direction / regression verdicts. *)

module Lh = Dsm_stats.Log_histogram
module Json = Dsm_stats.Json
module Metrics = Dsm_obs.Metrics
module Wire = Dsm_obs.Wire
module Timeseries = Dsm_obs.Timeseries
module Bench_diff = Dsm_runtime.Bench_diff
module Sim_run = Dsm_runtime.Sim_run
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module V = Dsm_vclock.Vector_clock

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* log-bucketed quantiles vs exact sorted-array quantiles              *)
(* ------------------------------------------------------------------ *)

(* the contract under test: for positive samples,
   exact <= estimate <= max base (exact * gamma) *)
let quantile_bound_holds values q =
  let h = Lh.create () in
  List.iter (Lh.add h) values;
  let sorted = Array.of_list values in
  Array.sort compare sorted;
  let total = Array.length sorted in
  let rank =
    Stdlib.max 1
      (Stdlib.min total (int_of_float (Float.ceil (q *. float_of_int total))))
  in
  let exact = sorted.(rank - 1) in
  let est = Lh.quantile h q in
  let eps = 1e-9 in
  est >= exact -. eps
  && est <= Float.max (Lh.base h) (exact *. Lh.gamma h) +. eps

let qcheck_quantiles =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 300) (float_range 1e-3 1e6))
        (float_range 0.01 1.0))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"log-histogram quantile within [exact, exact*gamma]" gen
       (fun (values, q) -> quantile_bound_holds values q))

let test_quantile_pins () =
  (* the three quantiles the registry exports, on a fixed long-tailed
     sample *)
  let values =
    List.init 1000 (fun i -> 1. +. (float_of_int (i * i) /. 100.))
  in
  List.iter
    (fun q ->
      check_bool
        (Printf.sprintf "p%.0f bound" (q *. 100.))
        true
        (quantile_bound_holds values q))
    [ 0.5; 0.95; 0.99 ];
  let h = Lh.create () in
  List.iter (Lh.add h) values;
  check_bool "max is exact" true (Lh.max_value h = 1. +. (999. *. 999. /. 100.));
  (* p100 claims no more than the observed maximum *)
  check_bool "p100 clamped to max" true (Lh.quantile h 1.0 <= Lh.max_value h)

let test_quantile_reset () =
  let h = Lh.create () in
  List.iter (Lh.add h) [ 1.; 10.; 100. ];
  Lh.reset h;
  check_int "count zero after reset" 0 (Lh.count h);
  check_bool "sum zero after reset" true (Lh.sum h = 0.);
  Lh.add h 5.;
  check_int "usable after reset" 1 (Lh.count h)

(* ------------------------------------------------------------------ *)
(* wire accountant: conservation against the network's counters        *)
(* ------------------------------------------------------------------ *)

let run_observed ~n ~seed =
  let spec =
    Spec.make ~n ~m:6 ~ops_per_process:40 ~write_ratio:0.5 ~seed ()
  in
  let metrics = Metrics.create () in
  let wire = Wire.create ~proto:"OptP" ~n () in
  let o =
    Sim_run.run
      (module Dsm_core.Opt_p)
      ~spec
      ~latency:(Latency.Exponential { mean = 10. })
      ~seed ~metrics ~wire ()
  in
  (o, metrics, wire)

let test_wire_conservation () =
  let o, metrics, wire = run_observed ~n:5 ~seed:3 in
  let t = Wire.totals wire in
  check_int "frames == messages_sent" o.Sim_run.messages_sent
    t.Wire.frames;
  check_int "frames == net_sends"
    (Metrics.counter_value (Metrics.counter metrics "net_sends"))
    t.Wire.frames;
  (* the network's byte counter uses the accountant's own sizer, so the
     two views of the wire must agree exactly *)
  check_int "total bytes == net_payload_bytes"
    (Metrics.counter_value (Metrics.counter metrics "net_payload_bytes"))
    (Wire.total_bytes wire);
  check_int "total bytes = header + payload + meta"
    (t.Wire.header + t.Wire.payload + t.Wire.meta)
    (Wire.total_bytes wire);
  (* per-cause and per-edge aggregations partition the totals *)
  let sum_stats f l =
    List.fold_left (fun acc s -> acc + f s) 0 l
  in
  let kinds = List.map snd (Wire.by_kind wire) in
  let edge_stats = List.map (fun (_, _, s) -> s) (Wire.edges wire) in
  List.iter
    (fun (label, stats) ->
      check_int
        (label ^ ": frames partition")
        t.Wire.frames
        (sum_stats (fun s -> s.Wire.frames) stats);
      check_int
        (label ^ ": meta partition")
        t.Wire.meta
        (sum_stats (fun s -> s.Wire.meta) stats);
      check_int
        (label ^ ": delta partition")
        t.Wire.delta_meta
        (sum_stats (fun s -> s.Wire.delta_meta) stats))
    [ ("by_kind", kinds); ("edges", edge_stats) ];
  (* OptP's causal metadata per write frame: the n-wide Write_co vector
     (4 + 8n bytes) plus the write's dot (12 bytes) *)
  check_int "dense meta bytes per frame"
    ((4 + (8 * 5) + 12) * t.Wire.frames)
    t.Wire.meta;
  (* the delta counterfactual can never cost more than dense encoding
     here: 12 bytes per changed entry vs 8 per entry, but consecutive
     frames on an edge move few entries *)
  check_bool "delta <= dense on a causal workload" true
    (t.Wire.delta_meta <= t.Wire.meta)

let test_wire_delta_baseline () =
  let w = Wire.create ~proto:"test" ~n:2 () in
  let frame v = { Wire.kind = "write"; scalars = 0; dots = 0; vectors = [ v ] } in
  let v1 = V.of_array [| 3; 0; 1 |] in
  Wire.record w ~src:0 ~dst:1 (frame v1);
  (* first frame on the edge: every nonzero entry changed vs the
     all-zeros baseline *)
  let t1 = Wire.totals w in
  check_int "first frame delta = 4 + 2*12" (4 + 24) t1.Wire.delta_meta;
  (* identical vector again: nothing changed, base cost only *)
  Wire.record w ~src:0 ~dst:1 (frame (V.of_array [| 3; 0; 1 |]));
  let t2 = Wire.totals w in
  check_int "repeat frame delta = base only" (4 + 24 + 4) t2.Wire.delta_meta;
  (* one entry moves: one delta entry *)
  Wire.record w ~src:0 ~dst:1 (frame (V.of_array [| 4; 0; 1 |]));
  let t3 = Wire.totals w in
  check_int "one changed entry = 4 + 12" (4 + 24 + 4 + 16) t3.Wire.delta_meta;
  (* a different edge starts from its own all-zeros baseline *)
  Wire.record w ~src:1 ~dst:0 (frame (V.of_array [| 4; 0; 1 |]));
  let t4 = Wire.totals w in
  check_int "edges keep independent baselines" (4 + 24 + 4 + 16 + 4 + 24)
    t4.Wire.delta_meta;
  Wire.reset w;
  check_int "reset zeroes frames" 0 (Wire.frames w);
  (* reset also forgets baselines: the next frame prices like the first *)
  Wire.record w ~src:0 ~dst:1 (frame (V.of_array [| 4; 0; 1 |]));
  check_int "reset forgets delta baselines" (4 + 24)
    (Wire.totals w).Wire.delta_meta;
  (* a wider vector on an edge that has a baseline prices against
     zeros, then becomes the baseline *)
  let delta () = (Wire.totals w).Wire.delta_meta in
  let before = delta () in
  Wire.record w ~src:0 ~dst:1 (frame (V.of_array [| 4; 0; 1; 5 |]));
  check_int "wider vector prices against zeros" (4 + 36) (delta () - before);
  let before = delta () in
  Wire.record w ~src:0 ~dst:1 (frame (V.of_array [| 4; 0; 1; 5 |]));
  check_int "the wider vector is the new baseline" 4 (delta () - before);
  (* a frame's second vector keeps its own baseline *)
  let pair a b =
    { Wire.kind = "transfer"; scalars = 0; dots = 0;
      vectors = [ V.of_array a; V.of_array b ] }
  in
  Wire.record w ~src:1 ~dst:0 (pair [| 4; 0; 1 |] [| 7; 7; 7 |]);
  let before = delta () in
  Wire.record w ~src:1 ~dst:0 (pair [| 4; 0; 1 |] [| 7; 8; 7 |]);
  check_int "second vector against its own baseline" (4 + 4 + 12)
    (delta () - before);
  let before = delta () in
  Wire.record w ~src:1 ~dst:0 (frame (V.of_array [| 4; 0; 1 |]));
  Wire.record w ~src:1 ~dst:0 (pair [| 4; 0; 1 |] [| 7; 8; 7 |]);
  check_int "a one-vector frame leaves the second baseline" (4 + 4 + 4)
    (delta () - before);
  (* the baseline is a copy: mutating a recorded vector in place does
     not move the next delta *)
  let v = V.of_array [| 1; 2; 3 |] in
  Wire.reset w;
  Wire.record w ~src:0 ~dst:1 (frame v);
  V.set v 0 9;
  let before = delta () in
  Wire.record w ~src:0 ~dst:1 (frame v);
  check_int "fresh baseline is a copy" (4 + 12) (delta () - before);
  V.set v 1 9;
  let before = delta () in
  Wire.record w ~src:0 ~dst:1 (frame v);
  check_int "refreshed baseline is a copy" (4 + 12) (delta () - before)

(* ------------------------------------------------------------------ *)
(* wire accountant vs a per-edge reference pricer                      *)
(* ------------------------------------------------------------------ *)

(* A copy of the accountant as it priced every edge on its own: each
   (src, dst) edge keeps, per vector position, a copy of the last
   vector sent there, and every frame's delta is counted against it.
   [Wire.record] must produce the same totals, kinds and edge stats
   however it shares that work across a broadcast's edges. *)
module Ref_wire = struct
  type agg = {
    mutable frames : int;
    mutable header : int;
    mutable payload : int;
    mutable meta : int;
    mutable delta : int;
  }

  let fresh () = { frames = 0; header = 0; payload = 0; meta = 0; delta = 0 }

  type t = {
    n : int;
    total : agg;
    mutable kinds : (string * agg) list;  (* first-seen order, reversed *)
    edges : agg array;
    last : int array array array;  (* edge -> position -> entries *)
  }

  let create n =
    {
      n;
      total = fresh ();
      kinds = [];
      edges = Array.init (n * n) (fun _ -> fresh ());
      last = Array.make (n * n) [||];
    }

  let lane v = if V.has_generations v then 2 * V.size v else 0
  let dense v = 4 + (8 * V.size v) + lane v

  (* delta price of [v] at position [pos] of edge [e]; [v] becomes the
     baseline *)
  let delta_vec t e pos v =
    let lasts = t.last.(e) in
    let lasts =
      if pos < Array.length lasts then lasts
      else begin
        let g = Array.make (pos + 1) [||] in
        Array.blit lasts 0 g 0 (Array.length lasts);
        t.last.(e) <- g;
        g
      end
    in
    let cur = V.to_array v and prev = lasts.(pos) in
    let changed = ref 0 in
    Array.iteri
      (fun i x ->
        let base = if Array.length prev = Array.length cur then prev.(i) else 0 in
        if x <> base then incr changed)
      cur;
    lasts.(pos) <- cur;
    4 + (12 * !changed) + lane v

  let bump a ~header ~payload ~meta ~delta =
    a.frames <- a.frames + 1;
    a.header <- a.header + header;
    a.payload <- a.payload + payload;
    a.meta <- a.meta + meta;
    a.delta <- a.delta + delta

  let record t ~src ~dst (f : Wire.frame) =
    let header = 16 and payload = 8 * f.Wire.scalars in
    let meta =
      List.fold_left (fun acc v -> acc + dense v) (12 * f.Wire.dots) f.Wire.vectors
    in
    let delta =
      if src >= 0 && src < t.n && dst >= 0 && dst < t.n then begin
        let e = (src * t.n) + dst in
        let d =
          List.fold_left
            (fun (pos, acc) v -> (pos + 1, acc + delta_vec t e pos v))
            (0, 12 * f.Wire.dots) f.Wire.vectors
          |> snd
        in
        bump t.edges.(e) ~header ~payload ~meta ~delta:d;
        d
      end
      else meta
    in
    bump t.total ~header ~payload ~meta ~delta;
    let k =
      match List.assoc_opt f.Wire.kind t.kinds with
      | Some k -> k
      | None ->
          let k = fresh () in
          t.kinds <- (f.Wire.kind, k) :: t.kinds;
          k
    in
    bump k ~header ~payload ~meta ~delta

  let reset t =
    let zero a =
      a.frames <- 0;
      a.header <- 0;
      a.payload <- 0;
      a.meta <- 0;
      a.delta <- 0
    in
    zero t.total;
    List.iter (fun (_, a) -> zero a) t.kinds;
    Array.iter zero t.edges;
    Array.fill t.last 0 (Array.length t.last) [||]

  let stats a =
    {
      Wire.frames = a.frames;
      header = a.header;
      payload = a.payload;
      meta = a.meta;
      delta_meta = a.delta;
    }

  let by_kind t = List.rev_map (fun (k, a) -> (k, stats a)) t.kinds

  let edges t =
    List.concat
      (List.init t.n (fun src ->
           List.filter_map
             (fun dst ->
               let a = t.edges.((src * t.n) + dst) in
               if a.frames > 0 then Some (src, dst, stats a) else None)
             (List.init t.n Fun.id)))
end

(* a script over a pool of vectors of three widths, some with a
   generation lane; frames name pool vectors, so a vector mutated in
   place between sends is sent again under its new entries *)
type wire_step =
  | Broadcast of int * (string * int * int * int list)
  | Unicast of int * int * (string * int * int * int list)
  | Resend of int * int
  | Mutate of int * int * int
  | Lane of int * int
  | Reset

let wire_script_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 6 in
  let pool = 6 in
  let frame =
    let* kind = oneofl [ "write"; "sync"; "transfer" ] in
    let* scalars = int_bound 3 in
    let* dots = int_bound 2 in
    let* vectors =
      frequency
        [ (6, map (fun i -> [ i ]) (int_bound (pool - 1)));
          (2, list_size (int_range 2 4) (int_bound (pool - 1)));
          (1, pure []) ]
    in
    pure (kind, scalars, dots, vectors)
  in
  let step =
    frequency
      [
        (5, map2 (fun src f -> Broadcast (src, f)) (int_bound (n - 1)) frame);
        ( 4,
          map3
            (fun src dst f -> Unicast (src, dst, f))
            (int_bound (n - 1))
            (* [n] is an out-of-universe endpoint *)
            (int_bound n) frame );
        ( 2,
          map2 (fun src dst -> Resend (src, dst)) (int_bound (n - 1))
            (int_bound (n - 1)) );
        ( 4,
          map3 (fun i k x -> Mutate (i, k, x)) (int_bound (pool - 1))
            (int_bound n) (int_bound 3) );
        (1, map2 (fun i k -> Lane (i, k)) (int_bound (pool - 1)) (int_bound (n - 1)));
        (1, pure Reset);
      ]
  in
  let* steps = list_size (int_range 1 80) step in
  pure (n, steps)

let run_wire_script (n, steps) =
  let w = Wire.create ~proto:"ref" ~n () and r = Ref_wire.create n in
  (* widths n - 1 (at least 1), n and n + 1, twice each *)
  let pool =
    Array.init 6 (fun i -> V.create (max 1 (n - 1 + (i mod 3))))
  in
  let frame (kind, scalars, dots, vs) =
    { Wire.kind; scalars; dots; vectors = List.map (fun i -> pool.(i)) vs }
  in
  (* the last frame value recorded, while its vectors are unchanged: a
     frame is a message's shape, and one message may be sent again *)
  let last = ref None in
  let record ~src ~dst f =
    last := Some f;
    Wire.record w ~src ~dst f;
    Ref_wire.record r ~src ~dst f
  in
  List.for_all
    (fun step ->
      (match step with
      | Broadcast (src, f) ->
          (* one frame value for every edge, as [Network.broadcast] *)
          let f = frame f in
          for dst = 0 to n - 1 do
            if dst <> src then record ~src ~dst f
          done
      | Unicast (src, dst, f) -> record ~src ~dst (frame f)
      | Resend (src, dst) -> Option.iter (record ~src ~dst) !last
      | Mutate (i, k, x) ->
          let v = pool.(i) in
          if k < V.size v then V.set v k (V.get v k + x);
          last := None
      | Lane (i, k) ->
          let v = pool.(i) in
          if k < V.size v then V.set_gen v k (V.gen v k + 1);
          last := None
      | Reset ->
          Wire.reset w;
          Ref_wire.reset r);
      Wire.totals w = Ref_wire.stats r.Ref_wire.total
      && Wire.by_kind w = Ref_wire.by_kind r
      && Wire.edges w = Ref_wire.edges r)
    steps

let qcheck_wire_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"matches the per-edge reference"
       wire_script_gen run_wire_script)

let test_wire_json () =
  let _, _, wire = run_observed ~n:4 ~seed:7 in
  let doc = Wire.to_json wire in
  let member k =
    match Json.member k doc with Some v -> v | None -> Json.Null
  in
  check_bool "protocol carried" true (member "protocol" = Json.Str "OptP");
  check_bool "n carried" true (member "n" = Json.Num 4.);
  (match member "by_kind" with
  | Json.Arr (_ :: _) -> ()
  | _ -> Alcotest.fail "by_kind missing");
  (* the document round-trips through the shared parser *)
  match Json.parse_result (Json.to_string doc) with
  | Ok doc' -> check_bool "round-trips" true (doc = doc')
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Metrics.reset                                                       *)
(* ------------------------------------------------------------------ *)

let test_metrics_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  let g = Metrics.gauge reg "g" in
  let h = Metrics.histogram reg "h" ~lo:0. ~hi:10. ~bins:5 in
  let q = Metrics.quantile reg "q" in
  Metrics.add c 7;
  Metrics.set g 3;
  Metrics.observe h 2.;
  Metrics.observe_q q 50.;
  Metrics.reset reg;
  check_int "counter zero" 0 (Metrics.counter_value c);
  check_int "gauge zero" 0 (Metrics.gauge_value g);
  check_int "gauge max zero" 0 (Metrics.gauge_max g);
  check_int "histogram empty" 0 (Metrics.histogram_count h);
  check_int "quantile empty" 0 (Metrics.quantile_count q);
  check_int "registrations survive" 4 (List.length (Metrics.rows reg));
  (* handles stay live: the pre-resolved instruments keep recording *)
  Metrics.incr c;
  Metrics.observe_q q 2.;
  check_int "counter records after reset" 1 (Metrics.counter_value c);
  check_int "quantile records after reset" 1 (Metrics.quantile_count q);
  (* no-op on the null registry *)
  Metrics.reset (Metrics.null ())

(* ------------------------------------------------------------------ *)
(* flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_timeseries_ring () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "ticks" in
  let ts = Timeseries.create ~capacity:4 ~metrics:reg () in
  for i = 1 to 6 do
    Metrics.add c i;
    Timeseries.scrape ts ~now:(float_of_int i)
  done;
  check_int "all scrapes counted" 6 (Timeseries.scrapes ts);
  (match Timeseries.series ts "ticks" with
  | Some values ->
      (* last [capacity] scrapes of the running sum 1,3,6,10,15,21 *)
      check_bool "ring keeps the newest window" true
        (values = [ 6.; 10.; 15.; 21. ])
  | None -> Alcotest.fail "series missing");
  (* a series born mid-flight: NaN before its first scrape, then data *)
  let g = Metrics.gauge reg "late" in
  Metrics.set g 9;
  Timeseries.scrape ts ~now:7.;
  (match Timeseries.series ts "late" with
  | Some [ a; b; c'; d ] ->
      check_bool "NaN before born" true
        (Float.is_nan a && Float.is_nan b && Float.is_nan c');
      check_bool "live after born" true (d = 9.)
  | _ -> Alcotest.fail "late series wrong shape");
  let jsonl = Timeseries.to_jsonl ts in
  let lines =
    String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "")
  in
  check_int "one line per retained scrape" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse_result line with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("jsonl line does not parse: " ^ msg))
    lines;
  check_bool "NaN omitted from early lines" true
    (not (contains ~sub:"late" (List.hd lines)));
  check_bool "live sample exported" true
    (contains ~sub:"\"late\":9" (List.nth lines 3))

let test_timeseries_quantile_series () =
  let reg = Metrics.create () in
  let q = Metrics.quantile reg "lat" in
  let ts = Timeseries.create ~metrics:reg () in
  Metrics.observe_q q 10.;
  Metrics.observe_q q 20.;
  Timeseries.scrape ts ~now:1.;
  check_bool "count series flattened" true
    (Timeseries.series ts "lat_count" <> None);
  check_bool "p99 series flattened" true
    (Timeseries.series ts "lat_p99" <> None)

(* ------------------------------------------------------------------ *)
(* bench diff                                                          *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Json.parse_result s with
  | Ok doc -> doc
  | Error msg -> Alcotest.fail msg

let test_bench_diff_flatten () =
  let doc =
    parse
      {|{"schema":"s","sweep":[{"ns_per_event":35.5},{"ns_per_event":200.0}],"total":{"speedup":2.0}}|}
  in
  let flat = Bench_diff.flatten doc in
  check_bool "indexed paths" true
    (List.mem_assoc "sweep[0].ns_per_event" flat
    && List.mem_assoc "sweep[1].ns_per_event" flat
    && List.mem_assoc "total.speedup" flat);
  check_int "strings are not metrics" 3 (List.length flat)

let test_bench_diff_directions () =
  List.iter
    (fun (path, want) ->
      check_bool path true (Bench_diff.direction_of path = want))
    [
      ("sweep[0].ns_per_event", Bench_diff.Lower_better);
      ("overhead[1].overhead_pct", Bench_diff.Lower_better);
      ("results[2].meta_bytes_per_msg", Bench_diff.Lower_better);
      ("gc_minor_words_per_event", Bench_diff.Lower_better);
      ("stress.speedup", Bench_diff.Higher_better);
      ("events_per_sec", Bench_diff.Higher_better);
      ("overhead[0].n", Bench_diff.Info);
      ("overhead[0].messages", Bench_diff.Info);
    ]

let test_bench_diff_verdicts () =
  let old_doc =
    parse {|{"section":"x","a":{"ns_per_event":100.0,"throughput":50.0,"messages":10}}|}
  in
  let new_doc =
    parse
      {|{"section":"x","a":{"ns_per_event":250.0,"throughput":30.0,"messages":99},"b":{"new_metric_ms":1.0}}|}
  in
  let d = Bench_diff.diff ~fail_over:2.0 ~old_doc ~new_doc () in
  let regs = Bench_diff.regressions d in
  (* ns 100 -> 250 is 2.5x: regressed. throughput 50 -> 30 is 1.67x:
     within threshold. messages is info: never fatal. *)
  check_int "one regression" 1 (List.length regs);
  check_bool "the slow one" true
    ((List.hd regs).Bench_diff.path = "a.ns_per_event");
  check_int "new-only metrics are reported" 1 (List.length d.Bench_diff.only_new);
  check_bool "no schema mismatch" true (Bench_diff.schema_mismatch d = None);
  let tight = Bench_diff.diff ~fail_over:1.5 ~old_doc ~new_doc () in
  check_int "tighter threshold catches throughput too" 2
    (List.length (Bench_diff.regressions tight));
  check_bool "fail_over must exceed 1" true
    (match Bench_diff.diff ~fail_over:1.0 ~old_doc ~new_doc () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bench_diff_duplicate_labels () =
  (* a label shared by several elements identifies none of them; the
     elements fall back to unlabeled numbering *)
  let doc =
    parse {|{"arr":[{"name":"dup","ms":1.0},{"name":"dup","ms":2.0}]}|}
  in
  let flat = Bench_diff.flatten doc in
  check_bool "dups keyed among unlabeled" true
    (List.mem_assoc "arr[0].ms" flat && List.mem_assoc "arr[1].ms" flat)

let test_bench_diff_new_section_additive () =
  (* a labeled section present only in NEW must surface as an
     informational addition, not shift the unlabeled keys after it into
     false regressions *)
  let old_doc =
    parse {|{"section":"x","arr":[{"name":"a","ms":10.0},{"ms":20.0},{"ms":30.0}]}|}
  in
  let new_doc =
    parse
      {|{"section":"x","arr":[{"name":"a","ms":10.0},{"name":"b","ms":999.0},{"ms":20.0},{"ms":30.0}]}|}
  in
  let d = Bench_diff.diff ~old_doc ~new_doc () in
  check_int "no false regressions" 0 (List.length (Bench_diff.regressions d));
  check_bool "addition is informational" true
    (List.map fst d.Bench_diff.only_new = [ "arr[name=b].ms" ])

let test_bench_diff_real_artifact () =
  (* a document diffed against itself has no regressions, whatever the
     metric names *)
  let doc =
    parse
      {|{"schema":"causal-dsm-bench/v1","section":"wire_cost",
         "results":[{"n":8,"frames":100,"meta_bytes_per_msg":68.0,
                     "delta_bytes_per_msg":30.0}]}|}
  in
  let d = Bench_diff.diff ~old_doc:doc ~new_doc:doc () in
  check_int "self diff is clean" 0 (List.length (Bench_diff.regressions d));
  check_bool "every shared metric compared" true
    (List.length d.Bench_diff.entries >= 4)

let () =
  Alcotest.run "wire"
    [
      ( "quantile sketch",
        [
          qcheck_quantiles;
          Alcotest.test_case "p50/p95/p99 pins" `Quick test_quantile_pins;
          Alcotest.test_case "reset" `Quick test_quantile_reset;
        ] );
      ( "wire accountant",
        [
          Alcotest.test_case "byte conservation vs net counters" `Quick
            test_wire_conservation;
          Alcotest.test_case "delta baselines per edge" `Quick
            test_wire_delta_baseline;
          Alcotest.test_case "json export" `Quick test_wire_json;
          qcheck_wire_reference;
        ] );
      ( "metrics reset",
        [ Alcotest.test_case "zero in place" `Quick test_metrics_reset ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring retention + jsonl" `Quick
            test_timeseries_ring;
          Alcotest.test_case "quantile flattening" `Quick
            test_timeseries_quantile_series;
        ] );
      ( "bench diff",
        [
          Alcotest.test_case "flatten" `Quick test_bench_diff_flatten;
          Alcotest.test_case "directions" `Quick test_bench_diff_directions;
          Alcotest.test_case "verdicts" `Quick test_bench_diff_verdicts;
          Alcotest.test_case "duplicate labels" `Quick
            test_bench_diff_duplicate_labels;
          Alcotest.test_case "new section additive" `Quick
            test_bench_diff_new_section_additive;
          Alcotest.test_case "self diff" `Quick test_bench_diff_real_artifact;
        ] );
    ]
