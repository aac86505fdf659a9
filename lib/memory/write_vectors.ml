module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

(* Dense write index: the history's writes in history order (issuer,
   then seq). Issuer [j]'s writes carry the consecutive sequence numbers
   [base.(j) + 1 ..] and sit at indices [off.(j) .. off.(j + 1) - 1] of
   [ws] (the write, dot and variable) and [vecs] (its vector); read
   [slot] of [p] sits at [reads.(p).(slot)]. *)
type t = {
  history : History.t;
  base : int array;
  off : int array;
  ws : Operation.write array;
  vecs : V.t array;
  reads : V.t array array;
}

type view = V.t

(* placeholder of an unfilled slot: a write [compute] has not reached
   yet, or a read slot no read of the history names *)
let unset = V.create 1

let n_writes t = Array.length t.ws
let write_at t i = t.ws.(i)
let issuer_offset t j = t.off.(j)
let position t j s = t.off.(j) + s - t.base.(j) - 1
let view_at t i = t.vecs.(i)

let index_parts t ~replica ~gen ~seq =
  if replica < 0 || replica >= Array.length t.base then -1
  else
    let i = position t replica seq in
    let is (w : Dot.t) = w.replica = replica && w.seq = seq && w.gen = gen in
    if i >= t.off.(replica) && i < t.off.(replica + 1) && is t.ws.(i).wdot
    then i
    else -1

let index t (d : Dot.t) =
  index_parts t ~replica:d.replica ~gen:d.gen ~seq:d.seq

let write_view t d =
  let i = index t d in
  if i < 0 then raise Not_found;
  t.vecs.(i)

let compute ?floor history =
  (match History.validate ?floor history with
  | Ok () -> ()
  | Error _ -> invalid_arg "Write_vectors.compute: ill-formed history");
  let n = History.n_processes history in
  let pending = Array.init n (fun p -> ref (History.local history p)) in
  (* windowed mode: the running vectors start from the floor — every
     process had applied all of the previous windows' writes at the
     convergence barrier that closed them, so the floor IS each
     process's causal past at the window boundary *)
  let base () =
    match floor with
    | None -> V.create (max n 1)
    | Some f ->
        let v = V.create (max n 1) in
        V.merge_into v f;
        v
  in
  let running = Array.init n (fun _ -> base ()) in
  let below_floor d =
    match floor with
    | None -> false
    | Some f -> Dot.seq d <= V.get0 f (Dot.replica d)
  in
  (* per process: its write count and one more than its largest read
     slot *)
  let sizes p =
    List.fold_left
      (fun (w, r) -> function
        | Operation.Write _ -> (w + 1, r)
        | Operation.Read rd -> (w, max r (rd.rslot + 1)))
      (0, 0) !(pending.(p))
  in
  let sizes = Array.init n sizes in
  (* [History.writes] lists each process's writes in turn, in process
     order *)
  let off = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    off.(p + 1) <- off.(p) + fst sizes.(p)
  done;
  let ws = Array.of_list (History.writes history) in
  let t =
    {
      history;
      base = Array.init n (fun p -> V.get running.(p) p);
      off;
      ws;
      vecs = Array.make (Array.length ws) unset;
      reads = Array.map (fun (_, r) -> Array.make r unset) sizes;
    }
  in
  (* one step of process p: returns true on progress, false when p is
     exhausted or blocked on a not-yet-timestamped read-from write *)
  let step p =
    match !(pending.(p)) with
    | [] -> false
    | op :: rest -> (
        match op with
        | Operation.Write w ->
            V.tick running.(p) p;
            let s = V.get running.(p) p in
            assert (s = Dot.seq w.wdot);
            t.vecs.(position t p s) <- V.copy running.(p);
            pending.(p) := rest;
            true
        | Operation.Read r -> (
            let ready =
              match r.read_from with
              | None -> Some ()
              | Some d -> (
                  match write_view t d with
                  | v when v != unset ->
                      V.merge_into running.(p) v;
                      Some ()
                  | _ | (exception Not_found) ->
                      if below_floor d then
                        (* a compacted write from an earlier window: its
                           vector is dominated by the floor, which the
                           running vector already carries — ready,
                           nothing further to merge *)
                        Some ()
                      else None)
            in
            match ready with
            | Some () ->
                t.reads.(p).(r.rslot) <- V.copy running.(p);
                pending.(p) := rest;
                true
            | None -> false))
  in
  let rec round () =
    let progress = ref false in
    for p = 0 to n - 1 do
      while step p do
        progress := true
      done
    done;
    if Array.exists (fun l -> !l <> []) pending then
      if !progress then round ()
      else
        invalid_arg
          "Write_vectors.compute: cyclic read-from dependencies \
           (corrupt history)"
  in
  if n > 0 then round ();
  t

let history t = t.history

let read_view t ~proc ~slot =
  if proc < 0 || proc >= Array.length t.reads then raise Not_found;
  let rs = t.reads.(proc) in
  if slot < 0 || slot >= Array.length rs || rs.(slot) == unset then
    raise Not_found;
  rs.(slot)

let get = V.get
let of_write t d = V.copy (write_view t d)
let of_read t ~proc ~slot = V.copy (read_view t ~proc ~slot)

(* Corollary 1: w' ↦co w  ⟺  seq w' <= w.Write_co[replica w'] *)
let write_precedes t d1 d2 =
  (not (Dot.equal d1 d2))
  && ignore (write_view t d1) = ()
  && Dot.seq d1 <= V.get (write_view t d2) (Dot.replica d1)

let write_concurrent t d1 d2 =
  (not (Dot.equal d1 d2))
  && (not (write_precedes t d1 d2))
  && not (write_precedes t d2 d1)

let write_precedes_read t d ~proc ~slot =
  ignore (write_view t d);
  Dot.seq d <= V.get (read_view t ~proc ~slot) (Dot.replica d)
