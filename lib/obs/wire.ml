(* Wire-cost accountant.

   Every frame a protocol puts on the network is described by a [frame]
   — a shape, not the bytes themselves: how many scalar fields, how many
   dots, which causal-metadata vectors it carries. The accountant prices
   that shape under a fixed cost model and aggregates per (src,dst)
   edge, per frame kind, and in total, splitting header / payload /
   causal-metadata bytes so the O(n) vector tax is visible on its own
   line.

   Alongside the dense price it keeps a counterfactual: what the
   causal metadata *would* cost under a delta-vs-last-sent-to-peer
   encoding (send only the vector entries that changed since the last
   frame on that edge, as (index, value) pairs). This is computed purely
   observationally — the protocol still sends dense vectors, the RNG
   stream is untouched — and exists to let future sparse-encoding PRs
   be judged against a measured baseline (ROADMAP: breaking the O(n)
   metadata barrier).

   Cost model (bytes): 16/frame header (src, dst, kind tag, length),
   8/scalar field (boxed 63-bit int), 12/dot (proc + seq + tag), dense
   vector 4 + 8·size (length prefix + entries), delta vector 4 + 12·
   changed (length prefix + (varint index, value) pairs). A vector
   carrying a generation lane (slot reuse: per-entry occupancy
   generations, small counters) pays 2 extra bytes per entry — only
   when the lane is materialized; generation-free vectors price exactly
   as before. The constants are a model, not a serializer — comparisons
   across protocols and encodings are what matter, not absolute
   bytes. *)

module V = Dsm_vclock.Vector_clock

type frame = { kind : string; scalars : int; dots : int; vectors : V.t list }

let header_cost = 16
let scalar_cost = 8
let dot_cost = 12
let vec_base_cost = 4
let vec_entry_cost = 8
let gen_entry_cost = 2
let delta_entry_cost = 12

let payload_bytes f = scalar_cost * f.scalars

let vec_bytes v =
  let lane = if V.has_generations v then gen_entry_cost * V.size v else 0 in
  vec_base_cost + (vec_entry_cost * V.size v) + lane

let meta_bytes f =
  List.fold_left (fun acc v -> acc + vec_bytes v) (dot_cost * f.dots) f.vectors

let frame_bytes f = header_cost + payload_bytes f + meta_bytes f

type stats = {
  frames : int;
  header : int;
  payload : int;
  meta : int;
  delta_meta : int;
}

type agg = {
  mutable a_frames : int;
  mutable a_header : int;
  mutable a_payload : int;
  mutable a_meta : int;
  mutable a_delta : int;
}

let fresh_agg () =
  { a_frames = 0; a_header = 0; a_payload = 0; a_meta = 0; a_delta = 0 }

let stats_of a =
  {
    frames = a.a_frames;
    header = a.a_header;
    payload = a.a_payload;
    meta = a.a_meta;
    delta_meta = a.a_delta;
  }

let bump a ~header ~payload ~meta ~delta =
  a.a_frames <- a.a_frames + 1;
  a.a_header <- a.a_header + header;
  a.a_payload <- a.a_payload + payload;
  a.a_meta <- a.a_meta + meta;
  a.a_delta <- a.a_delta + delta

(* per-edge delta state: for each vector position within the frame
   (position 1 on is rare — multi-vector frames like state transfer),
   the entries of the last vector sent on the edge there, followed by
   one tag entry: the index of the edge that owns the array, or
   [shared] when several edges hold it. [||] is no baseline. An owned
   baseline is refreshed in place; a shared one is replaced by a fresh
   array, so an edge never moves another's baseline. *)
type edge = { e : agg; mutable last : int array array }

let shared = -1

(* What the last frame recorded priced: the frame (matched physically:
   a broadcast records one frame value on every edge) and, per vector
   position, the baseline its first in-range edge met ([old]), the
   baseline it left there ([next]) and the delta price. An edge of the
   same frame holding the same [old] baseline shares the price and
   [next] instead of comparing the vector again. [never] is an [old]
   no edge holds, for a position priced against an owned baseline. *)
type memo = {
  mutable frame : frame;
  mutable payload : int;
  mutable meta : int;
  mutable len : int;  (* positions filled *)
  mutable old : int array array;
  mutable next : int array array;
  mutable cost : int array;
}

let never = [| shared |]
let no_frame = { kind = ""; scalars = 0; dots = 0; vectors = [] }

let fresh_memo () =
  { frame = no_frame; payload = 0; meta = 0; len = 0; old = [||]; next = [||];
    cost = [||] }

type t = {
  live : bool;
  n : int;
  proto : string;
  total : agg;
  kinds : (string, agg) Hashtbl.t;
  mutable kind_order : string list;  (* registration order, reversed *)
  mutable last_kind : string;  (* matched physically: frames reuse literals *)
  mutable last_agg : agg;
  edges : edge array;  (* src * n + dst *)
  memo : memo;
}

let create ?(proto = "") ~n () =
  if n <= 0 then invalid_arg "Wire.create: n must be positive";
  {
    live = true;
    n;
    proto;
    total = fresh_agg ();
    kinds = Hashtbl.create 8;
    kind_order = [];
    last_kind = String.make 1 '\000';  (* no frame's kind, physically *)
    last_agg = fresh_agg ();
    edges =
      Array.init (n * n) (fun _ -> { e = fresh_agg (); last = [||] });
    memo = fresh_memo ();
  }

let null () =
  {
    live = false;
    n = 0;
    proto = "";
    total = fresh_agg ();
    kinds = Hashtbl.create 1;
    kind_order = [];
    last_kind = "";
    last_agg = fresh_agg ();
    edges = [||];
    memo = fresh_memo ();
  }

let enabled t = t.live
let protocol t = t.proto
let n t = t.n

let grow_to a len fill =
  let g = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 g 0 (Array.length a);
  g

(* note position [pos] of the memo's frame, priced on its first
   in-range edge *)
let remember m pos ~old ~next ~cost =
  if pos >= Array.length m.cost then begin
    m.old <- grow_to m.old (pos + 1) [||];
    m.next <- grow_to m.next (pos + 1) [||];
    m.cost <- grow_to m.cost (pos + 1) 0
  end;
  m.old.(pos) <- old;
  m.next.(pos) <- next;
  m.cost.(pos) <- cost;
  m.len <- pos + 1

(* delta cost of [v] vs the last vector at position [pos] of edge
   [ei]; [v]'s entries become the baseline there. With no prior frame,
   or one of another width, the baseline is the all-zero vector, so
   the delta prices the nonzero entries. *)
let delta_vec_bytes t edge ei pos v =
  let cap = Array.length edge.last in
  if pos >= cap then edge.last <- grow_to edge.last (max (pos + 1) 2) [||];
  let prev = edge.last.(pos) and m = t.memo in
  if pos < m.len && prev == m.old.(pos) then begin
    (* another edge of this frame priced against this baseline *)
    let next = m.next.(pos) in
    next.(Array.length next - 1) <- shared;
    edge.last.(pos) <- next;
    m.cost.(pos)
  end
  else begin
    let size = V.size v in
    let owned = Array.length prev = size + 1 && prev.(size) = ei in
    let next =
      if owned then prev
      else begin
        let fresh =
          if Array.length prev = size + 1 then Array.copy prev
          else Array.make (size + 1) 0
        in
        fresh.(size) <- ei;
        edge.last.(pos) <- fresh;
        fresh
      end
    in
    let changed = V.sync_into v next in
    (* the generation lane is priced dense on the delta counterfactual
       too: its entries are tiny and change only at slot reuse, so a
       sparse encoding would add bookkeeping for negligible savings *)
    let lane = if V.has_generations v then gen_entry_cost * size else 0 in
    let cost = vec_base_cost + (delta_entry_cost * changed) + lane in
    if pos = m.len then
      remember m pos ~old:(if owned then never else prev) ~next ~cost;
    cost
  end

let kind_agg t kind =
  if kind != t.last_kind then begin
    let a =
      match Hashtbl.find_opt t.kinds kind with
      | Some a -> a
      | None ->
          let a = fresh_agg () in
          Hashtbl.add t.kinds kind a;
          t.kind_order <- kind :: t.kind_order;
          a
    in
    t.last_kind <- kind;
    t.last_agg <- a
  end;
  t.last_agg

(* each vector of a frame against the edge's baseline at its position *)
let rec delta_bytes t edge ei pos acc = function
  | [] -> acc
  | v :: rest ->
      delta_bytes t edge ei (pos + 1) (acc + delta_vec_bytes t edge ei pos v) rest

let record t ~src ~dst f =
  if t.live then begin
    let m = t.memo in
    if f != m.frame then begin
      m.frame <- f;
      m.payload <- payload_bytes f;
      m.meta <- meta_bytes f;
      m.len <- 0
    end;
    let header = header_cost and payload = m.payload and meta = m.meta in
    let in_range = src >= 0 && src < t.n && dst >= 0 && dst < t.n in
    let delta =
      if in_range then begin
        let ei = (src * t.n) + dst in
        let edge = t.edges.(ei) in
        let d = delta_bytes t edge ei 0 (dot_cost * f.dots) f.vectors in
        bump edge.e ~header ~payload ~meta ~delta:d;
        d
      end
      else
        (* out-of-universe endpoint (should not happen): price the
           delta as dense so totals still conserve *)
        meta
    in
    bump t.total ~header ~payload ~meta ~delta;
    bump (kind_agg t f.kind) ~header ~payload ~meta ~delta
  end

let totals t = stats_of t.total
let frames t = t.total.a_frames

let total_bytes t =
  t.total.a_header + t.total.a_payload + t.total.a_meta

let by_kind t =
  List.rev_map
    (fun kind -> (kind, stats_of (Hashtbl.find t.kinds kind)))
    t.kind_order

let edges t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      let edge = t.edges.((src * t.n) + dst) in
      if edge.e.a_frames > 0 then acc := (src, dst, stats_of edge.e) :: !acc
    done
  done;
  !acc

let reset t =
  let clear a =
    a.a_frames <- 0;
    a.a_header <- 0;
    a.a_payload <- 0;
    a.a_meta <- 0;
    a.a_delta <- 0
  in
  clear t.total;
  Hashtbl.iter (fun _ a -> clear a) t.kinds;
  Array.iter
    (fun edge ->
      clear edge.e;
      Array.fill edge.last 0 (Array.length edge.last) [||])
    t.edges;
  t.memo.frame <- no_frame;
  t.memo.len <- 0

let per_frame total frames =
  if frames = 0 then 0. else float_of_int total /. float_of_int frames

let to_json ?(max_edges = 64) t =
  let open Dsm_stats.Json in
  let stats_fields s =
    [
      ("frames", Num (float_of_int s.frames));
      ("header_bytes", Num (float_of_int s.header));
      ("payload_bytes", Num (float_of_int s.payload));
      ("meta_bytes", Num (float_of_int s.meta));
      ("delta_meta_bytes", Num (float_of_int s.delta_meta));
    ]
  in
  let tot = totals t in
  let edge_list = edges t in
  let shown = ref 0 in
  let edge_json =
    List.filter_map
      (fun (src, dst, s) ->
        if !shown >= max_edges then None
        else begin
          incr shown;
          Some
            (Obj
               (("src", Num (float_of_int src))
               :: ("dst", Num (float_of_int dst))
               :: stats_fields s))
        end)
      edge_list
  in
  Obj
    [
      ("schema", Str "causal-dsm-wire/v1");
      ("protocol", Str t.proto);
      ("n", Num (float_of_int t.n));
      ( "total",
        Obj
          (stats_fields tot
          @ [
              ( "meta_bytes_per_frame",
                Num (per_frame tot.meta tot.frames) );
              ( "delta_meta_bytes_per_frame",
                Num (per_frame tot.delta_meta tot.frames) );
            ]) );
      ( "by_kind",
        Arr
          (List.map
             (fun (kind, s) -> Obj (("kind", Str kind) :: stats_fields s))
             (by_kind t)) );
      ("edges_total", Num (float_of_int (List.length edge_list)));
      ("edges_shown", Num (float_of_int !shown));
      ("edges", Arr edge_json);
    ]

let summary_table ?(title = "wire") t =
  let open Dsm_stats in
  let tbl =
    Table_fmt.create ~title
      ~header:
        [ "cause"; "frames"; "header B"; "payload B"; "meta B";
          "meta B/frame"; "delta B/frame" ]
      ()
  in
  Table_fmt.set_align tbl [ Left; Right; Right; Right; Right; Right; Right ];
  let row name s =
    Table_fmt.add_row tbl
      [
        name;
        Table_fmt.cell_int s.frames;
        Table_fmt.cell_int s.header;
        Table_fmt.cell_int s.payload;
        Table_fmt.cell_int s.meta;
        Printf.sprintf "%.1f" (per_frame s.meta s.frames);
        Printf.sprintf "%.1f" (per_frame s.delta_meta s.frames);
      ]
  in
  List.iter (fun (kind, s) -> row kind s) (by_kind t);
  row "total" (totals t);
  tbl

let pp_summary ppf t = Dsm_stats.Table_fmt.pp ppf (summary_table t)
