module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock
module History = Dsm_memory.History
module Operation = Dsm_memory.Operation
module Write_vectors = Dsm_memory.Write_vectors
module Bitset = Dsm_memory.Bitset
module Row = Execution.Row

type violation =
  | Safety of { proc : int; applied : Dot.t; missing : Dot.t }
  | Illegal_read of { proc : int; detail : string }
  | Immediate_apply_marked_delayed of { proc : int; dot : Dot.t }

type delay_class = Necessary | Unnecessary
type range = { issuer : int; gen : int; first : int; last : int }

(* What [blocking] rebuilds a full-replication delay's ranges from, one
   per report: the dense write index of [Write_vectors] (write [s] of
   p_j sits at [zero.(j) + s], issuer j's writes at [off.(j) ..
   off.(j + 1) - 1]), each write's vector by index, and per process,
   by index, the position of the event whose logical apply first
   covered the write ([max_int] if none did). No history, no read
   views. *)
type coverage = {
  off : int array;
  zero : int array;
  vecs : Write_vectors.view array;
  covered : int array array;
}

type basis = Coverage of coverage | Ranges of range list

type delay = {
  dproc : int;
  ddot : Dot.t;
  dclass : delay_class;
  dreceipt : int;
  dbasis : basis;
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

(* what applying a write of [issuer] with vector [vec] needs from issuer
   j: the count of j's writes in its causal past, less the write itself *)
let need vec ~issuer j =
  let c = Write_vectors.get vec j in
  if j = issuer then c - 1 else c

(* Full replication: the writes of issuer j that the write needs and
   that coverage [cov] had not reached at receipt position [rp].
   Coverage grows with seq, so they run from the receipt-time count + 1
   up to the need: they exist iff the last needed write was uncovered
   at [rp], and the first is found by binary search. [uncovered]
   answers with that last write's index, or -1 when none is missing. *)
let uncovered c cov ~rp vec ~issuer j =
  let hi = c.zero.(j) + need vec ~issuer j in
  if hi >= c.off.(j) && cov.(hi) > rp then hi else -1

let rebuild c d =
  let issuer = Dot.replica d.ddot in
  let vec = c.vecs.(c.zero.(issuer) + Dot.seq d.ddot) in
  let cov = c.covered.(d.dproc) and rp = d.dreceipt in
  let ranges = ref [] in
  for j = Array.length c.zero - 1 downto 0 do
    let hi = uncovered c cov ~rp vec ~issuer j in
    if hi >= 0 then
      let lo = first_above cov rp c.off.(j) hi in
      let seq k = k - c.zero.(j) in
      ranges :=
        { issuer = j; gen = 0; first = seq lo; last = seq hi } :: !ranges
  done;
  !ranges

let blocking d =
  match d.dbasis with Ranges ranges -> ranges | Coverage c -> rebuild c d

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
  let cov =
    {
      off = Array.init (n + 1) (Write_vectors.issuer_offset wv);
      zero = Array.init n (fun j -> Write_vectors.position wv j 0);
      vecs = Array.init nw (Write_vectors.view_at wv);
      covered = Array.init n (fun _ -> Array.make nw max_int);
    }
  in
  let write_at i = Write_vectors.write_at wv i in
  let position j s = cov.zero.(j) + s in
  let issuer_offset j = cov.off.(j) in
  let view_at i = cov.vecs.(i) in
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
  (* Per write that is not its issuer's first here: the components where
     its vector exceeds the vector of its issuer's previous write, index
     [i - 1], ascending, at [changed.(changed_at.(i)) ..
     changed.(changed_at.(i + 1) - 1)]. Write_co only grows along
     process order, so every other component is equal; the issuer's own
     always grows. *)
  let changed_at = Array.make (nw + 1) 0 in
  let grown i f =
    if i > issuer_offset (Dot.replica (write_at i).wdot) then
      let v = view_at i and prev = view_at (i - 1) in
      for j = 0 to n - 1 do
        if Write_vectors.get v j > Write_vectors.get prev j then f j
      done
  in
  for i = 0 to nw - 1 do
    let c = ref changed_at.(i) in
    grown i (fun _ -> incr c);
    changed_at.(i + 1) <- !c
  done;
  let changed = Array.make changed_at.(nw) 0 in
  for i = 0 to nw - 1 do
    let k = ref changed_at.(i) in
    grown i (fun j ->
        changed.(!k) <- j;
        incr k)
  done;
  let full_basis = Coverage cov in
  let violations = ref [] in
  let delays = ref [] in
  let delays_per_proc = Array.make n 0 in
  let necessary = ref 0 and applies = ref 0 and skips = ref 0 in
  (* per process: the writes applied there, and those skipped there *)
  let applied = Array.init n (fun _ -> Bitset.create nw) in
  let skipped = Array.init n (fun _ -> Bitset.create nw) in
  (* per-write tables of the process under audit, reset for each: the
     position of its last receipt and of its last apply so far *)
  let receipt_pos = Array.make nw (-1) in
  let apply_pos = Array.make nw (-1) in
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
  (* audit one process's event sequence *)
  let audit proc =
    (* per-issuer logically-applied high mark, from the floor up *)
    let cnt = Array.init n floor_at in
    let covered_at = cov.covered.(proc) in
    (* the writes applied here whose safety check reported nothing *)
    let safe = Bitset.create nw in
    Array.fill receipt_pos 0 nw (-1);
    Array.fill apply_pos 0 nw (-1);
    let read_slot = ref 0 in
    let record_logical_apply ~pos j seq =
      let c = cnt.(j) in
      if seq > c then begin
        cnt.(j) <- seq;
        (* writes c + 1 .. seq of j, those the history holds *)
        let hi = min (position j seq) (issuer_offset (j + 1) - 1) in
        for i = position j (c + 1) to hi do
          covered_at.(i) <- pos
        done
      end
    in
    let check_component dot vec j =
      if cnt.(j) < need vec ~issuer:(Dot.replica dot) j then
        violations :=
          Safety
            {
              proc;
              applied = dot;
              missing = Dot.make ~replica:j ~seq:(cnt.(j) + 1);
            }
          :: !violations
    in
    (* Counts never decrease. So if the issuer's previous write was
       applied here and every component held for it, every component
       its vector shares with this write's still holds, and only the
       grown ones need a test: the same violations, in the same order,
       as the test of every component. *)
    let check_safety_full i dot vec =
      let before = !violations in
      if i > issuer_offset (Dot.replica dot) && Bitset.mem safe (i - 1) then
        for k = changed_at.(i) to changed_at.(i + 1) - 1 do
          check_component dot vec changed.(k)
        done
      else
        for j = 0 to n - 1 do
          check_component dot vec j
        done;
      (* nothing reported *)
      if !violations == before then Bitset.set safe i
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
    let check_safety i dot vec =
      match replication with
      | None -> check_safety_full i dot vec
      | Some _ -> check_safety_partial dot vec
    in
    (* full replication: necessary iff some issuer's needed writes were
       not all covered at receipt; the scan stops at the first such *)
    let necessary_full ~rp dot vec =
      let issuer = Dot.replica dot in
      let rec from j =
        j < n
        && (uncovered cov covered_at ~rp vec ~issuer j >= 0 || from (j + 1))
      in
      from 0
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
        let dbasis =
          match replication with
          | None -> full_basis
          | Some _ -> Ranges (blocking_partial ~rp dot vec)
        in
        let is_necessary =
          match dbasis with
          | Coverage _ -> necessary_full ~rp dot vec
          | Ranges ranges -> ranges <> []
        in
        if is_necessary then incr necessary;
        let dclass = if is_necessary then Necessary else Unnecessary in
        delays_per_proc.(proc) <- delays_per_proc.(proc) + 1;
        delays :=
          { dproc = proc; ddot = dot; dclass; dreceipt = rp; dbasis } :: !delays
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
            Dot.seq d <= Write_vectors.get (view_at i) (Dot.replica d)
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
    (* the rows are read in place; a dot is taken from the history *)
    let l = Row.log exec proc in
    let index_at pos =
      Write_vectors.index_parts wv ~replica:(Row.replica l pos)
        ~gen:(Row.gen l pos) ~seq:(Row.seq l pos)
    in
    for pos = 0 to Row.length l - 1 do
      match Row.tag l pos with
      | Row.Receipt ->
          let i = index_at pos in
          if i >= 0 then receipt_pos.(i) <- pos
      | Row.Apply ->
          let i = index_at pos in
          if i < 0 then raise Not_found;
          let dot = (write_at i).wdot and vec = view_at i in
          incr applies;
          check_safety i dot vec;
          if Row.delayed l pos then classify_delay ~pos dot i vec;
          record_logical_apply ~pos (Dot.replica dot) (Dot.seq dot);
          apply_pos.(i) <- pos;
          Bitset.set applied.(proc) i
      | Row.Skip ->
          (* a writing-semantics logical apply: counted for ordering
             but intentionally unordered w.r.t. its own causal past *)
          incr skips;
          record_logical_apply ~pos (Row.replica l pos) (Row.seq l pos);
          let i = index_at pos in
          if i >= 0 then Bitset.set skipped.(proc) i
      | Row.Return ->
          let read_from =
            if Row.replica l pos < 0 then None else Some (Row.dot l pos)
          in
          check_read ~var:(Row.var l pos) ~read_from;
          incr read_slot
      | Row.Send | Row.Blocked -> ()
    done
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
  let total_delays = Array.fold_left ( + ) 0 delays_per_proc in
  {
    total_applies = !applies;
    total_delays;
    necessary_delays = !necessary;
    unnecessary_delays = total_delays - !necessary;
    delays = List.rev !delays;
    delays_per_proc;
    violations = List.rev !violations;
    complete = missing = [];
    missing;
    lost;
    skipped = !skips;
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
