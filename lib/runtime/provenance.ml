module Dot = Dsm_vclock.Dot
module Span = Dsm_obs.Span
module Export = Dsm_obs.Export
module Sim_time = Dsm_sim.Sim_time

let spans exec =
  let c = Span.collector () in
  let sink = Span.sink c in
  Execution.iter
    (fun { Execution.proc; time; kind } ->
      let at = Sim_time.to_float time in
      match kind with
      | Execution.Apply { dot; var; value; delayed } ->
          (* the issuer's local apply is the birth of the write; any
             other process's apply closes that destination's phase *)
          if Dot.replica dot = proc then
            sink (Span.Issue { dot; proc; var; value; at })
          else sink (Span.Apply { dot; dst = proc; at; delayed })
      | Execution.Receipt { dot; src = _ } ->
          sink (Span.Receipt { dot; dst = proc; at })
      | Execution.Blocked { dot; waiting_for } ->
          sink (Span.Blocked { dot; dst = proc; waiting_for; at })
      | Execution.Skip { dot } -> sink (Span.Skip { dot; dst = proc; at })
      | Execution.Send _ | Execution.Return _ -> ())
    exec;
  c

(* ---- trace files ---------------------------------------------------- *)

type format = Jsonl | Chrome

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" -> Some Jsonl
  | "chrome" -> Some Chrome
  | _ -> None

let format_to_string = function Jsonl -> "jsonl" | Chrome -> "chrome"

let end_time exec =
  List.fold_left
    (fun acc (e : Execution.event) ->
      Float.max acc (Sim_time.to_float e.time))
    0. (Execution.events exec)

let write_trace fmt ~path exec =
  let sps = Span.spans (spans exec) in
  match fmt with
  | Jsonl -> Export.write_file path (fun b -> Export.jsonl b sps)
  | Chrome ->
      let n = Execution.n_processes exec in
      let t_end = end_time exec in
      Export.write_file path (fun b ->
          Export.chrome b ~n ~end_time:t_end sps)

(* ---- explain -------------------------------------------------------- *)

type delay_explanation = {
  eproc : int;
  edot : Dot.t;
  evar : int;
  eclass : Checker.delay_class;
  ewaiting_for : Dot.t option;
  eblocking : Checker.range list;
  eblocked_at : float option;
  eapplied_at : float option;
  ewait : float option;
  eagrees : bool;
}

type explanation = {
  rows : delay_explanation list;
  total : int;
  necessary : int;
  unnecessary : int;
  attributed : int;
  witnessed : int;
}

(* [w] is one of the dots [Checker.blocking_dots] expands [r] into *)
let in_range w (r : Checker.range) =
  Dot.replica w = r.issuer
  && Dot.gen w = r.gen
  && r.first <= Dot.seq w
  && Dot.seq w <= r.last

let explain exec (report : Checker.report) =
  let var_of = Hashtbl.create 64 in
  List.iter
    (fun (dot, var, _) -> Hashtbl.replace var_of dot var)
    (Execution.writes exec);
  (* one pass over the events: the first Blocked record per (proc, dot)
     — when buffering began and which predecessor the protocol claimed
     to wait on — and the first apply per (proc, dot) *)
  let claimed = Hashtbl.create 64 in
  let applied = Hashtbl.create 64 in
  Execution.iter
    (fun { Execution.proc; time; kind } ->
      match kind with
      | Execution.Blocked { dot; waiting_for } ->
          if not (Hashtbl.mem claimed (proc, dot)) then
            Hashtbl.add claimed (proc, dot)
              (waiting_for, Sim_time.to_float time)
      | Execution.Apply { dot; _ } ->
          if not (Hashtbl.mem applied (proc, dot)) then
            Hashtbl.add applied (proc, dot) (Sim_time.to_float time)
      | _ -> ())
    exec;
  let rows =
    List.map
      (fun (d : Checker.delay) ->
        let claim = Hashtbl.find_opt claimed (d.dproc, d.ddot) in
        let ewaiting_for = Option.map fst claim in
        let eblocked_at = Option.map snd claim in
        let eapplied_at = Hashtbl.find_opt applied (d.dproc, d.ddot) in
        let ewait =
          match (eblocked_at, eapplied_at) with
          | Some b, Some a -> Some (a -. b)
          | _ -> None
        in
        let eblocking = Checker.blocking d in
        let eagrees =
          match ewaiting_for with
          | Some w -> List.exists (in_range w) eblocking
          | None -> false
        in
        {
          eproc = d.dproc;
          edot = d.ddot;
          evar =
            (match Hashtbl.find_opt var_of d.ddot with
            | Some v -> v
            | None -> -1);
          eclass = d.dclass;
          ewaiting_for;
          eblocking;
          eblocked_at;
          eapplied_at;
          ewait;
          eagrees;
        })
      report.Checker.delays
  in
  {
    rows;
    total = List.length rows;
    necessary = report.Checker.necessary_delays;
    unnecessary = report.Checker.unnecessary_delays;
    attributed =
      List.length (List.filter (fun r -> r.ewaiting_for <> None) rows);
    witnessed = List.length (List.filter (fun r -> r.eagrees) rows);
  }

let pp_dots ppf dots =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Dot.pp)
    dots

let pp_row ppf r =
  Format.fprintf ppf "%a" Dot.pp r.edot;
  if r.evar >= 0 then Format.fprintf ppf " on x%d" (r.evar + 1);
  Format.fprintf ppf " at p%d: " (r.eproc + 1);
  (match r.eclass with
  | Checker.Necessary -> Format.fprintf ppf "necessary delay"
  | Checker.Unnecessary ->
      Format.fprintf ppf "UNNECESSARY delay (false causality)");
  (match (r.ewaiting_for, r.eblocked_at) with
  | Some w, Some since ->
      Format.fprintf ppf " — buffered at t=%.1f waiting for %a" since
        Dot.pp w
  | Some w, None -> Format.fprintf ppf " — waiting for %a" Dot.pp w
  | None, _ -> Format.fprintf ppf " — no buffering record (unattributed)");
  (match r.eclass with
  | Checker.Necessary ->
      Format.fprintf ppf "; missing at receipt: %a" pp_dots
        (Checker.blocking_dots r.eblocking)
  | Checker.Unnecessary ->
      Format.fprintf ppf "; nothing causally missing");
  (match (r.eapplied_at, r.ewait) with
  | Some a, Some w -> Format.fprintf ppf "; applied at t=%.1f (+%.1f)" a w
  | Some a, None -> Format.fprintf ppf "; applied at t=%.1f" a
  | None, _ -> Format.fprintf ppf "; never applied");
  match r.ewaiting_for with
  | None -> ()
  | Some _ ->
      Format.fprintf ppf " %s"
        (if r.eagrees then "[witnessed]" else "[claim not causally required]")

let pp_explanation ppf e =
  Format.fprintf ppf "@[<v>";
  List.iter (fun r -> Format.fprintf ppf "%a@," pp_row r) e.rows;
  Format.fprintf ppf
    "delays: %d total, %d necessary, %d unnecessary; provenance: %d \
     attributed, %d witnessed@]"
    e.total e.necessary e.unnecessary e.attributed e.witnessed
