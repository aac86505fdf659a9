module Dot = Dsm_vclock.Dot
module Sim_time = Dsm_sim.Sim_time
module Trace = Dsm_sim.Trace
module Operation = Dsm_memory.Operation

type kind =
  | Send of { dot : Dot.t; var : int; value : int }
  | Receipt of { dot : Dot.t; src : int }
  | Blocked of { dot : Dot.t; waiting_for : Dot.t }
  | Apply of { dot : Dot.t; var : int; value : int; delayed : bool }
  | Skip of { dot : Dot.t }
  | Return of {
      var : int;
      value : Operation.value;
      read_from : Dot.t option;
    }

type event = { proc : int; time : Sim_time.t; kind : kind }

type t = {
  n : int;
  m : int;
  trace : event Trace.t;
  per_proc : event Trace.t array;
}

let create ?capacity_limit ~n ~m () =
  if n <= 0 then invalid_arg "Execution.create: n must be positive";
  if m <= 0 then invalid_arg "Execution.create: m must be positive";
  {
    n;
    m;
    trace = Trace.create ?capacity_limit ();
    per_proc = Array.init n (fun _ -> Trace.create ?capacity_limit ());
  }

let dropped_events t = Trace.dropped t.trace

let n_processes t = t.n
let n_variables t = t.m

let record t ~proc ~time kind =
  if proc < 0 || proc >= t.n then
    invalid_arg "Execution.record: process id out of range";
  let e = { proc; time; kind } in
  Trace.record t.trace e;
  Trace.record t.per_proc.(proc) e

let events t = Trace.to_list t.trace

let events_of t proc =
  if proc < 0 || proc >= t.n then
    invalid_arg "Execution.events_of: process id out of range";
  Trace.to_list t.per_proc.(proc)

let event_count t = Trace.length t.trace

let apply_order t proc =
  if proc < 0 || proc >= t.n then
    invalid_arg "Execution.apply_order: process id out of range";
  Trace.fold
    (fun acc e ->
      match e.kind with Apply { dot; _ } -> dot :: acc | _ -> acc)
    [] t.per_proc.(proc)
  |> List.rev

let position t ~proc p =
  if proc < 0 || proc >= t.n then
    invalid_arg "Execution.position: process id out of range";
  Trace.find_index (fun e -> p e.kind) t.per_proc.(proc)

let apply_position t ~proc ~dot =
  position t ~proc (function
    | Apply { dot = d; _ } -> Dot.equal d dot
    | _ -> false)

let receipt_position t ~proc ~dot =
  position t ~proc (function
    | Receipt { dot = d; _ } -> Dot.equal d dot
    | _ -> false)

let time_at t ~proc pos =
  (Trace.get t.per_proc.(proc) pos).time

let apply_time t ~proc ~dot =
  Option.map (time_at t ~proc) (apply_position t ~proc ~dot)

let receipt_time t ~proc ~dot =
  Option.map (time_at t ~proc) (receipt_position t ~proc ~dot)

let delayed_applies t =
  Trace.fold
    (fun acc e ->
      match e.kind with
      | Apply { delayed = true; dot; _ } -> (e.proc, dot) :: acc
      | _ -> acc)
    [] t.trace
  |> List.rev

let delay_count t =
  Trace.count
    (fun e ->
      match e.kind with Apply { delayed = true; _ } -> true | _ -> false)
    t.trace

let delay_count_at t proc =
  if proc < 0 || proc >= t.n then
    invalid_arg "Execution.delay_count_at: process id out of range";
  Trace.count
    (fun e ->
      match e.kind with Apply { delayed = true; _ } -> true | _ -> false)
    t.per_proc.(proc)

let skip_count t =
  Trace.count (fun e -> match e.kind with Skip _ -> true | _ -> false) t.trace

let apply_count t =
  Trace.count (fun e -> match e.kind with Apply _ -> true | _ -> false) t.trace

let writes t =
  (* own-apply at the issuer is the canonical record of a write: every
     protocol applies its own writes immediately, even those that
     writing semantics later hides from other processes *)
  Trace.fold
    (fun acc e ->
      match e.kind with
      | Apply { dot; var; value; _ } when Dot.replica dot = e.proc ->
          (dot, var, value) :: acc
      | _ -> acc)
    [] t.trace
  |> List.sort (fun (a, _, _) (b, _, _) -> Dot.compare a b)

let to_history ?floor t =
  let base proc =
    match floor with
    | None -> 0
    | Some f -> Dsm_vclock.Vector_clock.get0 f proc
  in
  let locals =
    List.init t.n (fun proc ->
        let lh = Dsm_memory.Local_history.create ~base:(base proc) ~proc () in
        Trace.iter
          (fun e ->
            match e.kind with
            | Apply { dot; var; value; _ } when Dot.replica dot = proc ->
                (* dot passthrough keeps the occupancy generation on the
                   recorded write; the builder still enforces that own
                   applies arrive in sequence order from the base *)
                ignore
                  (Dsm_memory.Local_history.add_write ~dot lh ~var ~value)
            | Return { var; value; read_from } ->
                ignore
                  (Dsm_memory.Local_history.add_read lh ~var ~value
                     ~read_from)
            | Apply _ | Send _ | Receipt _ | Blocked _ | Skip _ -> ())
          t.per_proc.(proc);
        lh)
  in
  Dsm_memory.History.of_locals locals

let pp_kind_at proc ppf kind =
  let p = proc + 1 in
  match kind with
  | Send { dot; var; value } ->
      Format.fprintf ppf "send_%d(%a:x%d:=%d)" p Dot.pp dot (var + 1) value
  | Receipt { dot; _ } -> Format.fprintf ppf "receipt_%d(%a)" p Dot.pp dot
  | Blocked { dot; waiting_for } ->
      Format.fprintf ppf "blocked_%d(%a<-%a)" p Dot.pp dot Dot.pp waiting_for
  | Apply { dot; delayed; _ } ->
      Format.fprintf ppf "apply_%d(%a)%s" p Dot.pp dot
        (if delayed then "*" else "")
  | Skip { dot } -> Format.fprintf ppf "skip_%d(%a)" p Dot.pp dot
  | Return { var; value; _ } ->
      Format.fprintf ppf "return_%d(x%d, %a)" p (var + 1)
        Operation.pp_value value

let pp_event ppf e =
  Format.fprintf ppf "[%a] %a" Sim_time.pp e.time (pp_kind_at e.proc) e.kind

let pp_process t proc ppf () =
  let evs = events_of t proc in
  Format.fprintf ppf "@[<hov 2>";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf " <%d@ " (proc + 1);
      pp_kind_at proc ppf e.kind)
    evs;
  Format.fprintf ppf "@]"

let apply_latencies t =
  (* single pass per process: receipts stamp a table, applies consume it *)
  let out = ref [] in
  for proc = 0 to t.n - 1 do
    let receipt_at = Hashtbl.create 64 in
    Trace.iter
      (fun e ->
        match e.kind with
        | Receipt { dot; _ } -> Hashtbl.replace receipt_at dot e.time
        | Apply { dot; _ } -> (
            match Hashtbl.find_opt receipt_at dot with
            | Some r -> out := Sim_time.diff e.time r :: !out
            | None -> () (* own write: no receipt *))
        | Send _ | Blocked _ | Skip _ | Return _ -> ())
      t.per_proc.(proc)
  done;
  List.rev !out

let blocked_count t =
  Trace.count
    (fun e -> match e.kind with Blocked _ -> true | _ -> false)
    t.trace
