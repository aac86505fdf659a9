module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock
module History = Dsm_memory.History
module Operation = Dsm_memory.Operation
module Write_vectors = Dsm_memory.Write_vectors
module Bitset = Dsm_memory.Bitset

type violation =
  | Safety of { proc : int; applied : Dot.t; missing : Dot.t }
  | Illegal_read of { proc : int; detail : string }
  | Immediate_apply_marked_delayed of { proc : int; dot : Dot.t }

type delay_class = Necessary | Unnecessary
type range = { issuer : int; gen : int; first : int; last : int }

type delay = {
  dproc : int;
  ddot : Dot.t;
  dclass : delay_class;
  dblocking : range list;
}

type report = {
  total_applies : int;
  total_delays : int;
  necessary_delays : int;
  unnecessary_delays : int;
  delays : delay list;
  delays_per_proc : int array;
  violations : violation list;
  complete : bool;
  missing : (int * Dot.t) list;
  lost : (int * Dot.t) list;
  skipped : int;
}

let blocking_dots ranges =
  List.concat_map
    (fun r ->
      List.init
        (r.last - r.first + 1)
        (fun i -> Dot.make_gen ~replica:r.issuer ~gen:r.gen ~seq:(r.last - i)))
    ranges

(* the first position in [lo, hi) where [a], non-decreasing there,
   exceeds [x]; [hi] if none does *)
let rec first_above a x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) > x then first_above a x lo mid
    else first_above a x (mid + 1) hi

let check ?replication ?expected ?floor exec =
  let history = Execution.to_history ?floor exec in
  let wv = Write_vectors.compute ?floor history in
  let n = Execution.n_processes exec in
  (* windowed mode: per-issuer counts below the floor were applied
     everywhere before the window opened (the convergence barrier that
     closed the previous window), so every audit baseline starts there *)
  let floor_at j = match floor with None -> 0 | Some f -> V.get0 f j in
  (* every per-write table below is an array over the dense write index
     of [wv] *)
  let nw = Write_vectors.n_writes wv in
  let write_at = Write_vectors.write_at wv in
  let position = Write_vectors.position wv in
  let issuer_offset = Write_vectors.issuer_offset wv in
  (* per (variable, issuer): the indices of the issuer's writes on the
     variable, ascending *)
  let m = History.n_variables history in
  let on_var =
    let key i =
      let w = write_at i in
      (w.wvar * n) + Dot.replica w.wdot
    in
    let fill = Array.make (m * n) 0 in
    for i = 0 to nw - 1 do
      fill.(key i) <- fill.(key i) + 1
    done;
    let a = Array.map (fun c -> Array.make c 0) fill in
    Array.fill fill 0 (m * n) 0;
    for i = 0 to nw - 1 do
      let k = key i in
      a.(k).(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1
    done;
    a
  in
  let writes_on ~var j = if var < m then on_var.((var * n) + j) else [||] in
  let violations = ref [] in
  let delays = ref [] in
  let delays_per_proc = Array.make n 0 in
  (* per process: the writes applied there, and those skipped there *)
  let applied = Array.init n (fun _ -> Bitset.create nw) in
  let skipped = Array.init n (fun _ -> Bitset.create nw) in
  (* per-write tables of the process under audit, reset for each: the
     position of its last receipt and of its last apply so far, and the
     position where the logically-applied count first covered it *)
  let receipt_pos = Array.make nw (-1) in
  let apply_pos = Array.make nw (-1) in
  let covered_at = Array.make nw max_int in
  let replicated ~proc ~var =
    match replication with None -> true | Some f -> f ~proc ~var
  in
  (* membership filter for completeness: under dynamic membership, only
     processes expected to hold a write (live members at the end of the
     run, for writes issued while they were in the view) owe an apply *)
  let expected_at ~proc ~dot =
    match expected with None -> true | Some f -> f ~proc ~dot
  in
  let in_past vec d =
    (* d ↦co the write whose ground-truth vector is vec (Cor. 1) *)
    Dot.seq d <= Write_vectors.get vec (Dot.replica d)
  in
  (* what applying [dot] needs from issuer j: the count of j's writes in
     its causal past, less [dot] itself *)
  let need dot vec j =
    let c = Write_vectors.get vec j in
    if j = Dot.replica dot then c - 1 else c
  in
  (* audit one process's event sequence *)
  let audit proc =
    (* per-issuer logically-applied high mark, from the floor up *)
    let cnt = Array.init n floor_at in
    Array.fill receipt_pos 0 nw (-1);
    Array.fill apply_pos 0 nw (-1);
    Array.fill covered_at 0 nw max_int;
    let read_slot = ref 0 in
    let record_logical_apply ~pos d =
      let j = Dot.replica d in
      let c = cnt.(j) in
      if Dot.seq d > c then begin
        cnt.(j) <- Dot.seq d;
        (* writes c + 1 .. seq d of j, those the history holds *)
        let hi = min (position j (Dot.seq d)) (issuer_offset (j + 1) - 1) in
        for i = position j (c + 1) to hi do
          covered_at.(i) <- pos
        done
      end
    in
    let check_safety_full dot vec =
      for j = 0 to n - 1 do
        if cnt.(j) < need dot vec j then
          violations :=
            Safety
              {
                proc;
                applied = dot;
                missing = Dot.make ~replica:j ~seq:(cnt.(j) + 1);
              }
            :: !violations
      done
    in
    (* exact (and slower) form used under partial replication: every
       write in the causal past on a location this process replicates
       must already be applied here *)
    let check_safety_partial dot vec =
      for i = 0 to nw - 1 do
        let w' = write_at i in
        if
          (not (Dot.equal w'.wdot dot))
          && in_past vec w'.wdot
          && replicated ~proc ~var:w'.wvar
          && apply_pos.(i) < 0
        then
          violations :=
            Safety { proc; applied = dot; missing = w'.wdot } :: !violations
      done
    in
    let check_safety dot vec =
      match replication with
      | None -> check_safety_full dot vec
      | Some _ -> check_safety_partial dot vec
    in
    (* full replication: for each issuer j, the writes [dot] needs that
       the count had not covered at receipt position [rp]. Coverage
       grows with seq, so they are the run from the receipt-time count
       + 1 up to the need: one range, found by binary search *)
    let blocking_full ~rp dot vec =
      let ranges = ref [] in
      for j = n - 1 downto 0 do
        let last = need dot vec j in
        let hi = position j last in
        if last > floor_at j && covered_at.(hi) > rp then
          let lo = first_above covered_at rp (issuer_offset j) hi in
          let first = Dot.seq (write_at lo).wdot in
          ranges := { issuer = j; gen = 0; first; last } :: !ranges
      done;
      !ranges
    in
    (* partial replication: replicated causal predecessors not yet
       applied at receipt time, one range per write *)
    let blocking_partial ~rp dot vec =
      let blocking = ref [] in
      for i = 0 to nw - 1 do
        let w' = write_at i in
        if
          (not (Dot.equal w'.wdot dot))
          && in_past vec w'.wdot
          && replicated ~proc ~var:w'.wvar
          && (apply_pos.(i) < 0 || apply_pos.(i) > rp)
        then
          let d = w'.wdot in
          blocking :=
            {
              issuer = Dot.replica d;
              gen = Dot.gen d;
              first = Dot.seq d;
              last = Dot.seq d;
            }
            :: !blocking
      done;
      !blocking
    in
    let classify_delay ~pos dot i vec =
      let rp = receipt_pos.(i) in
      if rp < 0 then
        (* a delayed apply without receipt can only be a driver bug *)
        violations :=
          Immediate_apply_marked_delayed { proc; dot } :: !violations
      else begin
        if rp + 1 = pos then
          (* applied in the very step that received it: not a delay *)
          violations :=
            Immediate_apply_marked_delayed { proc; dot } :: !violations;
        let blocking =
          match replication with
          | None -> blocking_full ~rp dot vec
          | Some _ -> blocking_partial ~rp dot vec
        in
        let dclass = if blocking = [] then Unnecessary else Necessary in
        delays_per_proc.(proc) <- delays_per_proc.(proc) + 1;
        (* the history's dot: the event's decoded copy dies young *)
        let ddot = (write_at i).wdot in
        delays :=
          { dproc = proc; ddot; dclass; dblocking = blocking } :: !delays
      end
    in
    (* Read legality. A read from d is illegal when a write w <> d on its
       variable lies in its causal past and d ↦co w. Write_co only grows
       along process order, so for each issuer j these w are a run of
       p_j's writes on the variable: from p_j's last write there inside
       the read's past (one binary search), down while d ↦co w. For a ⊥
       read the run is every write on the variable in the read's past;
       so it is for a read from a compacted write, since every window
       write's vector starts from the floor. The walk emits one
       violation per w <> d it passes and stops at the first write
       outside the run. *)
    let check_read ~var ~read_from =
      let rvec = Write_vectors.read_view wv ~proc ~slot:!read_slot in
      let interposed i =
        match read_from with
        | None -> true
        | Some d ->
            Dot.seq d
            <= Write_vectors.get (Write_vectors.view_at wv i) (Dot.replica d)
      in
      for j = n - 1 downto 0 do
        let ws = writes_on ~var j in
        let past_end = position j (Write_vectors.get rvec j) in
        let k = ref (first_above ws past_end 0 (Array.length ws) - 1) in
        while !k >= 0 && interposed ws.(!k) do
          let w = (write_at ws.(!k)).wdot in
          (match read_from with
          | None ->
              violations :=
                Illegal_read
                  {
                    proc;
                    detail =
                      Format.asprintf
                        "read of x%d returned ⊥ although %a causally precedes \
                         it"
                        (var + 1) Dot.pp w;
                  }
                :: !violations
          | Some d ->
              if not (Dot.equal w d) then
                violations :=
                  Illegal_read
                    {
                      proc;
                      detail =
                        Format.asprintf
                          "read of x%d from %a is stale: %a is causally \
                           interposed"
                          (var + 1) Dot.pp d Dot.pp w;
                    }
                  :: !violations);
          decr k
        done
      done
    in
    Execution.iteri_of
      (fun pos (kind : Execution.kind) ->
        match kind with
        | Execution.Receipt { dot; _ } ->
            let i = Write_vectors.index wv dot in
            if i >= 0 then receipt_pos.(i) <- pos
        | Execution.Apply { dot; delayed; _ } ->
            let vec = Write_vectors.write_view wv dot in
            let i = Write_vectors.index wv dot in
            check_safety dot vec;
            if delayed then classify_delay ~pos dot i vec;
            record_logical_apply ~pos dot;
            apply_pos.(i) <- pos;
            Bitset.set applied.(proc) i
        | Execution.Skip { dot } ->
            (* a writing-semantics logical apply: counted for ordering
               but intentionally unordered w.r.t. its own causal past *)
            record_logical_apply ~pos dot;
            let i = Write_vectors.index wv dot in
            if i >= 0 then Bitset.set skipped.(proc) i
        | Execution.Return { var; read_from; _ } ->
            check_read ~var ~read_from;
            incr read_slot
        | Execution.Send _ | Execution.Blocked _ -> ())
      exec proc
  in
  for proc = 0 to n - 1 do
    audit proc
  done;
  let missing = ref [] in
  for i = 0 to nw - 1 do
    let w = write_at i in
    for proc = 0 to n - 1 do
      if
        not
          (Bitset.mem applied.(proc) i
          || (not (replicated ~proc ~var:w.wvar))
          || not (expected_at ~proc ~dot:w.wdot))
      then missing := (proc, w.wdot) :: !missing
    done
  done;
  let missing = List.rev !missing in
  (* a missing apply is benign only if it was a writing-semantics skip;
     anything else is a lost write — a liveness failure *)
  let lost =
    List.filter
      (fun (proc, dot) ->
        not (Bitset.mem skipped.(proc) (Write_vectors.index wv dot)))
      missing
  in
  let delays = List.rev !delays in
  let necessary =
    List.length (List.filter (fun d -> d.dclass = Necessary) delays)
  in
  {
    total_applies = Execution.apply_count exec;
    total_delays = List.length delays;
    necessary_delays = necessary;
    unnecessary_delays = List.length delays - necessary;
    delays;
    delays_per_proc;
    violations = List.rev !violations;
    complete = missing = [];
    missing;
    lost;
    skipped = Execution.skip_count exec;
  }

let is_clean r = r.violations = [] && r.lost = []

let pp_violation ppf = function
  | Safety { proc; applied; missing } ->
      Format.fprintf ppf
        "SAFETY at p%d: %a applied before causal predecessor %a" (proc + 1)
        Dot.pp applied Dot.pp missing
  | Illegal_read { proc; detail } ->
      Format.fprintf ppf "LEGALITY at p%d: %s" (proc + 1) detail
  | Immediate_apply_marked_delayed { proc; dot } ->
      Format.fprintf ppf
        "ACCOUNTING at p%d: %a marked delayed but applied at its receipt"
        (proc + 1) Dot.pp dot

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>applies=%d delays=%d (necessary=%d, unnecessary=%d) skips=%d \
     complete=%b lost=%d@,violations=%d%a@]"
    r.total_applies r.total_delays r.necessary_delays r.unnecessary_delays
    r.skipped r.complete (List.length r.lost)
    (List.length r.violations)
    (fun ppf vs ->
      List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) vs)
    r.violations
