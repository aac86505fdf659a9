module Json = Dsm_stats.Json

type direction = Lower_better | Higher_better | Info

type entry = {
  path : string;
  dir : direction;
  old_v : float;
  new_v : float;
  ratio : float option;
  regressed : bool;
}

type t = {
  schema_old : string option;
  schema_new : string option;
  section_old : string option;
  section_new : string option;
  fail_over : float;
  entries : entry list;
  only_old : (string * float) list;
  only_new : (string * float) list;
}

(* ---- flattening ------------------------------------------------- *)

(* Numeric fields that identify an array element's configuration
   rather than measure it; string fields always identify. *)
let identity_nums = [ "n"; "events"; "size"; "procs"; "seed" ]

(* Join array elements by what they ARE, not where they sit: two runs
   that swept different sizes still align on matching configurations,
   and configurations present in only one run surface as only-in-one
   rather than as false regressions. *)
let element_label = function
  | Json.Obj fields ->
      let parts =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
            | Json.Num f when List.mem k identity_nums ->
                Some
                  (if Float.is_integer f then
                     Printf.sprintf "%s=%d" k (int_of_float f)
                   else Printf.sprintf "%s=%g" k f)
            | _ -> None)
          fields
      in
      if parts = [] then None else Some (String.concat "," parts)
  | _ -> None

let flatten doc =
  let out = ref [] in
  let rec go path = function
    | Json.Num f -> out := (path, f) :: !out
    | Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            let p = if path = "" then k else path ^ "." ^ k in
            go p v)
          fields
    | Json.Arr items ->
        (* A label shared by several elements identifies none of them:
           pairing the first occurrence by label and the rest by index
           would join different elements across the two documents. *)
        let labels = List.map element_label items in
        let counts = Hashtbl.create 8 in
        List.iter
          (function
            | Some l ->
                Hashtbl.replace counts l
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
            | None -> ())
          labels;
        (* Unlabeled elements are numbered among unlabeled elements
           only, so a labeled section added in one document (a new
           bench section, say) cannot shift the keys of everything
           after it and turn an informational addition into a sheaf of
           false regressions. *)
        let unlabeled = ref 0 in
        List.iter2
          (fun v label ->
            let key =
              match label with
              | Some l when Hashtbl.find counts l = 1 -> l
              | _ ->
                  let k = string_of_int !unlabeled in
                  incr unlabeled;
                  k
            in
            go (Printf.sprintf "%s[%s]" path key) v)
          items labels
    | Json.Null | Json.Bool _ | Json.Str _ -> ()
  in
  go "" doc;
  List.rev !out

(* ---- direction heuristics --------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let last_segment path =
  let seg =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match String.index_opt seg '[' with Some i -> String.sub seg 0 i | None -> seg

let lower_tokens =
  [
    "ns"; "ms"; "us"; "pct"; "bytes"; "latency"; "overhead"; "words";
    "watermark"; "depth"; "delays"; "violations"; "dropped"; "lost";
  ]

let direction_of path =
  let seg = last_segment path in
  if
    contains seg "per_sec" || contains seg "throughput"
    || contains seg "speedup"
  then Higher_better
  else
    let tokens = String.split_on_char '_' seg in
    if List.exists (fun t -> List.mem t lower_tokens) tokens then Lower_better
    else Info

let direction_name = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"
  | Info -> "info"

(* ---- comparison -------------------------------------------------- *)

let eps = 1e-9

let compare_entry ~fail_over path old_v new_v =
  let dir = direction_of path in
  let ratio, regressed =
    match dir with
    | Info ->
        let r = if Float.abs old_v > eps then Some (new_v /. old_v) else None in
        (r, false)
    | Lower_better ->
        if Float.abs old_v > eps then
          let r = new_v /. old_v in
          (Some r, r > fail_over)
        else (None, new_v > eps)
    | Higher_better ->
        if Float.abs new_v > eps then
          let r = old_v /. new_v in
          (Some r, r > fail_over)
        else (None, Float.abs old_v > eps)
  in
  { path; dir; old_v; new_v; ratio; regressed }

let str_member k doc =
  match Json.member k doc with Some v -> Json.to_str v | None -> None

let diff ?(fail_over = 2.0) ~old_doc ~new_doc () =
  if fail_over <= 1.0 then
    invalid_arg "Bench_diff.diff: fail_over must exceed 1.0";
  let olds = flatten old_doc and news = flatten new_doc in
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace old_tbl p v) olds;
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace new_tbl p v) news;
  let entries =
    List.filter_map
      (fun (p, old_v) ->
        match Hashtbl.find_opt new_tbl p with
        | Some new_v -> Some (compare_entry ~fail_over p old_v new_v)
        | None -> None)
      olds
  in
  let only_old =
    List.filter (fun (p, _) -> not (Hashtbl.mem new_tbl p)) olds
  in
  let only_new =
    List.filter (fun (p, _) -> not (Hashtbl.mem old_tbl p)) news
  in
  {
    schema_old = str_member "schema" old_doc;
    schema_new = str_member "schema" new_doc;
    section_old = str_member "section" old_doc;
    section_new = str_member "section" new_doc;
    fail_over;
    entries;
    only_old;
    only_new;
  }

let regressions t = List.filter (fun e -> e.regressed) t.entries

let schema_mismatch t =
  (match (t.schema_old, t.schema_new) with
  | Some a, Some b when a <> b -> Some (a, b)
  | _ -> None)
  |> function
  | Some _ as m -> m
  | None -> (
      match (t.section_old, t.section_new) with
      | Some a, Some b when a <> b -> Some (a, b)
      | _ -> None)

(* ---- rendering --------------------------------------------------- *)

let cell_metric f =
  if Float.is_integer f && Float.abs f < 1e12 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let summary_table ?(all = false) t =
  let tbl =
    Dsm_stats.Table_fmt.create
      ~title:(Printf.sprintf "bench diff (fail-over %.2fx)" t.fail_over)
      ~header:[ "metric"; "dir"; "old"; "new"; "ratio"; "verdict" ]
      ()
  in
  Dsm_stats.Table_fmt.set_align tbl
    Dsm_stats.Table_fmt.[ Left; Left; Right; Right; Right; Left ];
  let shown =
    if all then t.entries
    else
      List.filter (fun e -> e.regressed || e.dir <> Info) t.entries
  in
  List.iter
    (fun e ->
      Dsm_stats.Table_fmt.add_row tbl
        [
          e.path;
          direction_name e.dir;
          cell_metric e.old_v;
          cell_metric e.new_v;
          (match e.ratio with
          | Some r -> Printf.sprintf "%.3fx" r
          | None -> "n/a");
          (if e.regressed then "REGRESSED"
           else if e.dir = Info then "-"
           else "ok");
        ])
    shown;
  tbl

let pp ?(all = false) ppf t =
  (match schema_mismatch t with
  | Some (a, b) ->
      Format.fprintf ppf "warning: comparing %s against %s@." a b
  | None -> ());
  Format.fprintf ppf "%s@."
    (Dsm_stats.Table_fmt.render (summary_table ~all t));
  if t.only_old <> [] then
    Format.fprintf ppf "only in OLD: %s@."
      (String.concat ", " (List.map fst t.only_old));
  if t.only_new <> [] then
    Format.fprintf ppf "only in NEW: %s@."
      (String.concat ", " (List.map fst t.only_new));
  let regs = regressions t in
  if regs = [] then
    Format.fprintf ppf "no regressions over %.2fx across %d shared metrics@."
      t.fail_over (List.length t.entries)
  else
    Format.fprintf ppf "%d regression(s) over %.2fx across %d shared metrics@."
      (List.length regs) t.fail_over (List.length t.entries)
