module Dot = Dsm_vclock.Dot
module Operation = Dsm_memory.Operation
module History = Dsm_memory.History
module Session_guarantees = Dsm_memory.Session_guarantees
module Rng = Dsm_sim.Rng
module V = Dsm_vclock.Vector_clock
module Metrics = Dsm_obs.Metrics

type placement = Sticky | Random | Nearest

let placement_of_string = function
  | "sticky" -> Some Sticky
  | "random" -> Some Random
  | "nearest" -> Some Nearest
  | _ -> None

let placement_to_string = function
  | Sticky -> "sticky"
  | Random -> "random"
  | Nearest -> "nearest"

type config = {
  count : int;
  placement : placement;
  ops_per_session : int;
  write_ratio : float;
  think_mean : float;
  rpc_timeout : float;
  backoff : float;
  backoff_cap : float;
  max_retries : int;
  handoff : bool;
  seed : int;
}

let default_config ~count =
  {
    count;
    placement = Sticky;
    ops_per_session = 20;
    write_ratio = 0.5;
    think_mean = 10.;
    rpc_timeout = 150.;
    backoff = 5.;
    backoff_cap = 80.;
    max_retries = 10;
    handoff = true;
    seed = 1;
  }

let validate_config c =
  if c.count < 1 then invalid_arg "Session_tier: need at least one session";
  if c.ops_per_session < 1 then
    invalid_arg "Session_tier: need at least one op per session";
  if c.write_ratio < 0. || c.write_ratio > 1. then
    invalid_arg "Session_tier: write_ratio outside [0,1]";
  if c.think_mean <= 0. then invalid_arg "Session_tier: think_mean <= 0";
  if c.rpc_timeout <= 0. then invalid_arg "Session_tier: rpc_timeout <= 0";
  if c.backoff <= 0. || c.backoff_cap < c.backoff then
    invalid_arg "Session_tier: need 0 < backoff <= backoff_cap";
  if c.max_retries < 1 then invalid_arg "Session_tier: max_retries < 1"

(* op-id value encoding: disjoint from Sim_run.write_value's
   proc*1_000_000+seq range (procs are slot ids, far below 1000) *)
let value_base = 1_000_000_000
let ops_radix = 100_000

let op_value ~sid ~op =
  if op <= 0 || op >= ops_radix then
    invalid_arg "Session_tier.op_value: op outside [1, 100_000)";
  value_base + (sid * ops_radix) + op

let decode_value v =
  if v >= value_base then
    let r = v - value_base in
    Some (r / ops_radix, r mod ops_radix)
  else None

type op_kind = Op_write | Op_read

type outcome_kind =
  | Ok_served
  | Ok_dedup
  | Deg_blocked
  | Deg_in_doubt
  | Deg_unreachable

type op_span = {
  osid : int;
  oseq : int;
  okind : op_kind;
  ovar : int;
  oissued_at : float;
  mutable oattempts : int;
  mutable owaiting_for : Dot.t option;
  mutable oclaim_home : int;
  mutable oclaim_at : float;
  mutable odot : Dot.t option;
  mutable oserved_by : int;
  mutable oserved_at : float;
  mutable odone_at : float option;
  mutable ooutcome : outcome_kind option;
}

type migration = {
  msid : int;
  mat : float;
  mfrom : int;
  mto : int;
  mcarried : bool;
}

type session = {
  sid : int;
  mutable home : int option;
  mutable served_home : int option;
  dep : int array;
  mutable acked : Operation.t list;
  mutable reads_done : int;
  mutable op_seq : int;
}

let choose_home placement ~sid ~universe ~rng ~active ~current =
  match active with
  | [] -> None
  | active -> (
      match placement with
      | Random -> Some (List.nth active (Rng.int rng (List.length active)))
      | Sticky -> (
          match current with
          | Some h when List.mem h active -> Some h
          | _ ->
              (* failover: the cyclically next active slot after the old
                 home (or after the session's anchor slot when it never
                 had one), then stick to it *)
              let anchor = Option.value current ~default:(sid mod universe) in
              Some
                (match List.filter (fun r -> r >= anchor) active with
                | r :: _ -> r
                | [] -> List.hd active))
      | Nearest ->
          (* static preference ring per session: distance measured
             cyclically from the session's anchor slot — fails over to
             the nearest active replica and fails back when a nearer
             one rejoins *)
          let anchor = sid mod universe in
          let dist r = (r - anchor + universe) mod universe in
          Some
            (List.fold_left
               (fun b r -> if dist r < dist b then r else b)
               (List.hd active) active))

let backoff_delay cfg ~rng ~attempt =
  let raw = cfg.backoff *. (2. ** float_of_int (min attempt 16)) in
  Float.min cfg.backoff_cap raw *. (0.5 +. Rng.float rng)

type report = {
  cfg : config;
  streams : (int * Operation.t list) list;
  spans : op_span list;
  migrations : migration list;
  ops_done : int;
  writes_done : int;
  reads_done : int;
  retries : int;
  blocked_rejections : int;
  unavailable_rejections : int;
  dedup_hits : int;
  replies_lost : int;
  degraded : op_span list;
  duplicate_writes : int;
  violations : Session_guarantees.violation list;
  write_latencies : float list;
  read_latencies : float list;
}

let clean r = r.violations = [] && r.duplicate_writes = 0

(* ordering witness from the recorded execution: d1 is causally before
   d2 when d2's own issuer applied d1 before applying d2 — the causal
   past a replica-issued write inherits, which is exactly what the
   session-vector gate guarantees across a handoff.  One pass over the
   events builds a (proc, dot) -> (apply index, apply time) table of
   each dot's first apply at each process. *)
let apply_index execution =
  let tbl : (int * Dot.t, int * float) Hashtbl.t = Hashtbl.create 1024 in
  let next = Hashtbl.create 16 in
  Execution.iter
    (fun (ev : Execution.event) ->
      match ev.Execution.kind with
      | Execution.Apply { dot; _ } ->
          let i =
            Option.value (Hashtbl.find_opt next ev.Execution.proc) ~default:0
          in
          Hashtbl.replace next ev.Execution.proc (i + 1);
          if not (Hashtbl.mem tbl (ev.Execution.proc, dot)) then
            Hashtbl.add tbl (ev.Execution.proc, dot)
              (i, Dsm_sim.Sim_time.to_float ev.Execution.time)
      | _ -> ())
    execution;
  tbl

(* Ground-truth session-guarantee check over re-attributed streams:
   [↦co] from the history, extended (for the obligation checks only)
   with the execution-derived witness above, exactly the cross-replica
   program-order edge a handoff carries.  [home_crashed_after ~home ~t]
   excuses homes whose staged apply record a later crash rolled back:
   the execution log can no longer witness what the gate saw. *)
let audit ~execution ~history ~spans ~home_crashed_after ~streams =
  let co = Dsm_memory.Causal_order.compute history in
  let idx = apply_index execution in
  let also_precedes d1 d2 =
    let issuer = Dot.replica d2 in
    match
      ( Hashtbl.find_opt idx (issuer, d1),
        Hashtbl.find_opt idx (issuer, d2) )
    with
    | Some (i1, _), Some (i2, _) -> i1 < i2
    | _ -> false
  in
  let value_violations =
    Session_guarantees.check_streams ~also_precedes co streams
  in
  (* Terry's original write-set RYW: the replica serving a session's
     read must already hold the session's own last write on that
     variable.  Value comparison cannot see the miss when the serving
     replica returns a *concurrent* write — the dominant anomaly of a
     dropped handoff — but the execution's apply record can.  Sound
     under the session-vector gate: a gated read executes only after
     the home applied every dot of the session vector, own writes
     included. *)
  let coverage = ref [] in
  let own_last : (int * int, Dot.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      (* spans are per-session in op order: op [n+1] is issued only
         after op [n] resolved *)
      match (sp.okind, sp.ooutcome) with
      | Op_write, Some (Ok_served | Ok_dedup) -> (
          match sp.odot with
          | Some dot -> Hashtbl.replace own_last (sp.osid, sp.ovar) dot
          | None -> ())
      | Op_read, Some Ok_served -> (
          match Hashtbl.find_opt own_last (sp.osid, sp.ovar) with
          | None -> ()
          | Some own ->
              let h = sp.oserved_by in
              let returned_own = Option.equal Dot.equal sp.odot (Some own) in
              let applied_before =
                match Hashtbl.find_opt idx (h, own) with
                | Some (_, t) -> t <= sp.oserved_at +. 1e-6
                | None -> false
              in
              if
                h >= 0 && sp.oserved_at >= 0. && (not returned_own)
                && (not applied_before)
                && not (home_crashed_after ~home:h ~t:sp.oserved_at)
              then
                coverage :=
                  {
                    Session_guarantees.guarantee =
                      Session_guarantees.Read_your_writes;
                    proc = sp.osid;
                    culprit = sp.odot;
                    anchor = own;
                    detail =
                      Format.asprintf
                        "read of x%d served by p%d which had not applied \
                         own %a (write-set coverage)"
                        (sp.ovar + 1) (h + 1) Dot.pp own;
                  }
                  :: !coverage)
      | _ -> ())
    spans;
  value_violations @ List.rev !coverage

(* distinct write dots sharing one encoded (session, op) identity *)
let duplicate_writes history =
  let seen : (int, Dot.t) Hashtbl.t = Hashtbl.create 64 in
  let dups = ref 0 in
  List.iter
    (fun (w : Operation.write) ->
      if decode_value w.Operation.wvalue <> None then
        match Hashtbl.find_opt seen w.Operation.wvalue with
        | None -> Hashtbl.add seen w.Operation.wvalue w.Operation.wdot
        | Some dot -> if not (Dot.equal dot w.Operation.wdot) then incr dups)
    (History.writes history);
  !dups

(* ---- the RPC loop -------------------------------------------------- *)

(* The RPC model is deterministic: a request arriving at a down /
   absent / flushing home gets a definitive Unavailable reply, a
   dep-gate miss a definitive Blocked reply (the op is never parked
   server-side), and only an executed op's reply leg is lossy — lost iff
   the home crashes before it drains.  A lost write reply is resolved by
   {e probing} for the op id in a home's durable log, never by blind
   reissue, so writes are at-most-once by construction. *)
let start (type p m) cfg (host : (p, m) Replica_host.t) ~latency ~seed
    ~metrics =
  let module P = (val host.Replica_host.protocol) in
  let engine = host.Replica_host.engine
  and membership = host.Replica_host.membership
  and nodes = host.Replica_host.slots in
  let universe = Array.length nodes in
  let nowf () = Dsm_sim.Sim_time.to_float (Dsm_sim.Engine.now engine) in
  validate_config cfg;
  (* independent stream: session traffic must not perturb the
     network/fault RNG draws of a session-free run *)
  let srng = Rng.create (cfg.seed + (seed * 7919)) in
  (* a count the report needs, mirrored into its probe *)
  let counted name = (ref 0, Metrics.counter metrics name) in
  let count (n, probe) =
    incr n;
    Metrics.incr probe
  in
  let p_ops = Metrics.counter metrics "session_ops_total" in
  let writes = counted "session_writes_total" in
  let reads = counted "session_reads_total" in
  let p_migr = Metrics.counter metrics "session_migrations_total" in
  let retries = counted "session_retries_total" in
  let blocked = counted "session_blocked_total" in
  let unavail = counted "session_unavailable_total" in
  let p_degraded = Metrics.counter metrics "session_degraded_total" in
  let dedup = counted "session_dedup_hits_total" in
  let lost = counted "session_replies_lost_total" in
  let p_lat =
    Metrics.histogram metrics "session_op_latency" ~lo:0. ~hi:1024. ~bins:16
  in
  let sess =
    Array.init cfg.count (fun sid ->
        {
          sid;
          home = None;
          served_home = None;
          dep = Array.make universe 0;
          acked = [];
          reads_done = 0;
          op_seq = 0;
        })
  in
  let spans = ref [] in
  let migrations = ref [] in
  let wlat = ref [] and rlat = ref [] in
  let candidates () =
    List.filter
      (fun p ->
        let node = nodes.(p) in
        (not node.down) && (not node.leaving) && node.proto <> None)
      (Membership.active membership)
  in
  (* first dot of [dep] the home has not applied, if any *)
  let frontier_gap node (s : session) =
    let v = Replica_host.applied host node in
    let missing = ref None in
    Array.iteri
      (fun u want ->
        if !missing = None && want > 0 && V.get0 v u < want then
          missing := Some (Dot.make ~replica:u ~seq:want))
      s.dep;
    !missing
  in
  (* at-most-once probe: the op id, durable in this home's log and
     applied there *)
  let find_committed (node : (p, m) Replica_host.slot) value =
    Seq.find_map
      (fun (dot, msg) ->
        if
          List.exists
            (fun (d, _, v) -> Dot.equal d dot && v = value)
            (P.msg_writes msg)
          && Replica_host.covered host node dot
        then Some dot
        else None)
      (Hashtbl.to_seq node.log)
  in
  let join_dot (s : session) dot =
    let r = Dot.replica dot in
    if r < Array.length s.dep then s.dep.(r) <- max s.dep.(r) (Dot.seq dot)
  in
  let observe_latency span =
    match span.odone_at with
    | None -> ()
    | Some t -> (
        let l = t -. span.oissued_at in
        Metrics.observe p_lat l;
        match span.okind with
        | Op_write -> wlat := l :: !wlat
        | Op_read -> rlat := l :: !rlat)
  in
  let rec start_op s =
    if s.op_seq < cfg.ops_per_session then begin
      s.op_seq <- s.op_seq + 1;
      let okind =
        if Rng.float srng < cfg.write_ratio then Op_write else Op_read
      in
      let span =
        {
          osid = s.sid;
          oseq = s.op_seq;
          okind;
          ovar = Rng.int srng host.m;
          oissued_at = nowf ();
          oattempts = 0;
          owaiting_for = None;
          oclaim_home = -1;
          oclaim_at = 0.;
          odot = None;
          oserved_by = -1;
          oserved_at = -1.;
          odone_at = None;
          ooutcome = None;
        }
      in
      spans := span :: !spans;
      attempt s span ~probe:false ~retries_left:cfg.max_retries
    end
  and next_op s =
    Dsm_sim.Engine.schedule_after engine
      (Rng.exponential srng cfg.think_mean)
      (fun () -> start_op s)
  and degrade s span kind =
    span.ooutcome <- Some kind;
    span.odone_at <- Some (nowf ());
    Metrics.incr p_degraded;
    next_op s
  and reject s span ~probe ~retries_left ~deg =
    if retries_left <= 0 then degrade s span deg
    else begin
      count retries;
      Dsm_sim.Engine.schedule_after engine
        (backoff_delay cfg ~rng:srng ~attempt:span.oattempts)
        (fun () -> attempt s span ~probe ~retries_left:(retries_left - 1))
    end
  and attempt s span ~probe ~retries_left =
    span.oattempts <- span.oattempts + 1;
    match
      choose_home cfg.placement ~sid:s.sid ~universe ~rng:srng
        ~active:(candidates ()) ~current:s.home
    with
    | None ->
        count unavail;
        reject s span ~probe ~retries_left ~deg:Deg_unreachable
    | Some h ->
        (match s.home with
        | Some h0 when h0 <> h && not cfg.handoff ->
            (* canary: the session vector is dropped on retarget *)
            Array.fill s.dep 0 (Array.length s.dep) 0
        | _ -> ());
        s.home <- Some h;
        let t_send = nowf () in
        Dsm_sim.Engine.schedule_after engine
          (Dsm_sim.Latency.sample latency srng)
          (fun () -> arrive s span ~h ~t_send ~probe ~retries_left)
  and arrive s span ~h ~t_send ~probe ~retries_left =
    let node = nodes.(h) in
    let t_handled = nowf () in
    (* one reply leg; [lossy] marks executed ops, whose reply dies with a
       crashing home — the only in-doubt window.  The client notices at
       its RPC timeout and runs [on_lost]. *)
    let reply ~lossy ~on_lost k =
      Dsm_sim.Engine.schedule_after engine
        (Dsm_sim.Latency.sample latency srng)
        (fun () ->
          if lossy && node.last_crash > t_handled then begin
            count lost;
            let wake = Float.max 0. (t_send +. cfg.rpc_timeout -. nowf ()) in
            Dsm_sim.Engine.schedule_after engine wake on_lost
          end
          else k ())
    in
    let no_loss k = reply ~lossy:false ~on_lost:(fun () -> assert false) k in
    if
      node.down || node.leaving || node.proto = None
      || not (Membership.is_active membership h)
    then begin
      count unavail;
      no_loss (fun () ->
          reject s span ~probe ~retries_left ~deg:Deg_unreachable)
    end
    else if probe then
      match find_committed node (op_value ~sid:s.sid ~op:span.oseq) with
      | Some dot ->
          count dedup;
          no_loss (fun () -> serve_write s span ~h ~dot ~outcome:Ok_dedup)
      | None ->
          no_loss (fun () ->
              reject s span ~probe:true ~retries_left ~deg:Deg_in_doubt)
    else
      match frontier_gap node s with
      | Some wf ->
          span.owaiting_for <- Some wf;
          span.oclaim_home <- h;
          span.oclaim_at <- t_handled;
          count blocked;
          no_loss (fun () ->
              reject s span ~probe:false ~retries_left ~deg:Deg_blocked)
      | None -> (
          match span.okind with
          | Op_read ->
              let value, read_from =
                Replica_host.read host node ~var:span.ovar
              in
              span.oserved_at <- t_handled;
              reply ~lossy:true
                ~on_lost:(fun () ->
                  (* an unacknowledged read is idempotent: retry *)
                  reject s span ~probe:false ~retries_left
                    ~deg:Deg_unreachable)
                (fun () -> serve_read s span ~h ~value ~read_from)
          | Op_write -> (
              let value = op_value ~sid:s.sid ~op:span.oseq in
              let in_doubt () =
                reject s span ~probe:true ~retries_left ~deg:Deg_in_doubt
              in
              match find_committed node value with
              | Some dot ->
                  count dedup;
                  reply ~lossy:true ~on_lost:in_doubt (fun () ->
                      serve_write s span ~h ~dot ~outcome:Ok_dedup)
              | None ->
                  node.write_seq <- node.write_seq + 1;
                  let dot =
                    Replica_host.write host node ~var:span.ovar ~value
                  in
                  span.oserved_at <- t_handled;
                  Replica_host.commit host node;
                  reply ~lossy:true ~on_lost:in_doubt (fun () ->
                      serve_write s span ~h ~dot ~outcome:Ok_served)))
  and note_served s span h =
    span.oserved_by <- h;
    span.odone_at <- Some (nowf ());
    (match s.served_home with
    | Some prev when prev <> h ->
        migrations :=
          {
            msid = s.sid;
            mat = nowf ();
            mfrom = prev;
            mto = h;
            mcarried = cfg.handoff;
          }
          :: !migrations;
        Metrics.incr p_migr
    | _ -> ());
    s.served_home <- Some h;
    Metrics.incr p_ops;
    observe_latency span
  and serve_write s span ~h ~dot ~outcome =
    span.odot <- Some dot;
    span.ooutcome <- Some outcome;
    note_served s span h;
    join_dot s dot;
    s.acked <-
      Operation.write ~proc:(Dot.replica dot) ~seq:(Dot.seq dot)
        ~var:span.ovar
        ~value:(op_value ~sid:s.sid ~op:span.oseq)
      :: s.acked;
    count writes;
    next_op s
  and serve_read (s : session) span ~h ~value ~read_from =
    span.odot <- read_from;
    span.ooutcome <- Some Ok_served;
    note_served s span h;
    (match read_from with Some d -> join_dot s d | None -> ());
    s.acked <-
      Operation.read ~proc:s.sid ~slot:s.reads_done ~var:span.ovar ~value
        ~read_from
      :: s.acked;
    s.reads_done <- s.reads_done + 1;
    count reads;
    next_op s
  in
  Array.iter next_op sess;
  fun history ->
    let streams =
      Array.to_list (Array.map (fun s -> (s.sid, List.rev s.acked)) sess)
    in
    let spans = List.rev !spans in
    let violations =
      audit ~execution:host.execution ~history ~spans
        ~home_crashed_after:(fun ~home ~t -> nodes.(home).last_crash > t)
        ~streams
    in
    {
      cfg;
      streams;
      spans;
      migrations = List.rev !migrations;
      ops_done = !(fst writes) + !(fst reads);
      writes_done = !(fst writes);
      reads_done = !(fst reads);
      retries = !(fst retries);
      blocked_rejections = !(fst blocked);
      unavailable_rejections = !(fst unavail);
      dedup_hits = !(fst dedup);
      replies_lost = !(fst lost);
      degraded =
        List.filter
          (fun sp ->
            match sp.ooutcome with
            | Some (Deg_blocked | Deg_in_doubt | Deg_unreachable) -> true
            | _ -> false)
          spans;
      duplicate_writes = duplicate_writes history;
      violations;
      write_latencies = List.rev !wlat;
      read_latencies = List.rev !rlat;
    }

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i =
        int_of_float (Float.round (p *. float_of_int (n - 1)))
      in
      a.(max 0 (min (n - 1) i))

let pp_outcome_kind ppf = function
  | Ok_served -> Format.pp_print_string ppf "served"
  | Ok_dedup -> Format.pp_print_string ppf "dedup-resolved"
  | Deg_blocked -> Format.pp_print_string ppf "degraded:blocked"
  | Deg_in_doubt -> Format.pp_print_string ppf "degraded:in-doubt"
  | Deg_unreachable -> Format.pp_print_string ppf "degraded:unreachable"

let pp_op_kind ppf = function
  | Op_write -> Format.pp_print_string ppf "write"
  | Op_read -> Format.pp_print_string ppf "read"

let pp_op_span ppf s =
  Format.fprintf ppf "s%d#%d %a(x%d)@%.1f attempts=%d %a%s%s" s.osid s.oseq
    pp_op_kind s.okind (s.ovar + 1) s.oissued_at s.oattempts
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "open")
       pp_outcome_kind)
    s.ooutcome
    (match s.odot with
    | Some d -> Format.asprintf " dot=%a" Dot.pp d
    | None -> "")
    (match s.owaiting_for with
    | Some d ->
        Format.asprintf " waiting_for=%a@p%d" Dot.pp d (s.oclaim_home + 1)
    | None -> "")

let pp_migration ppf m =
  Format.fprintf ppf "s%d p%d->p%d@%.1f%s" m.msid (m.mfrom + 1) (m.mto + 1)
    m.mat
    (if m.mcarried then "" else " [VECTOR DROPPED]")

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>session tier: %d sessions (%s%s), %d/%d ops served (%d writes / \
     %d reads), %d migrations, %d retries (%d blocked / %d unavailable), \
     %d dedup hits, %d replies lost, %d degraded, %d duplicate writes, %d \
     session-guarantee violations"
    r.cfg.count
    (placement_to_string r.cfg.placement)
    (if r.cfg.handoff then "" else ", handoff OFF")
    r.ops_done
    (r.cfg.count * r.cfg.ops_per_session)
    r.writes_done r.reads_done
    (List.length r.migrations)
    r.retries r.blocked_rejections r.unavailable_rejections r.dedup_hits
    r.replies_lost
    (List.length r.degraded)
    r.duplicate_writes
    (List.length r.violations);
  if r.write_latencies <> [] then
    Format.fprintf ppf "@,write latency: mean=%.1f p95=%.1f"
      (mean r.write_latencies)
      (percentile r.write_latencies 0.95);
  if r.read_latencies <> [] then
    Format.fprintf ppf "@,read latency: mean=%.1f p95=%.1f"
      (mean r.read_latencies)
      (percentile r.read_latencies 0.95);
  List.iter (fun m -> Format.fprintf ppf "@,%a" pp_migration m) r.migrations;
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_op_span s) r.degraded;
  List.iter
    (fun v ->
      Format.fprintf ppf "@,session %a"
        Session_guarantees.pp_violation v)
    r.violations;
  Format.fprintf ppf "@]"

(* explain: join every claimed blocker against the checker's ground
   truth.  A claim "waiting_for d at home h at time t" is honest when h
   really had not applied d by t. *)
let pp_explain ~execution ppf r =
  let claim_honest s =
    match s.owaiting_for with
    | None -> None
    | Some d -> (
        match
          Execution.apply_time execution ~proc:s.oclaim_home ~dot:d
        with
        | None -> Some true (* never applied there: genuinely missing *)
        | Some t ->
            Some (Dsm_sim.Sim_time.to_float t > s.oclaim_at))
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (sid, ops) ->
      let spans = List.filter (fun s -> s.osid = sid) r.spans in
      let migs = List.filter (fun m -> m.msid = sid) r.migrations in
      let claims = List.filter (fun s -> s.owaiting_for <> None) spans in
      let degraded = List.filter (fun s -> s.osid = sid) r.degraded in
      Format.fprintf ppf "session s%d: %d ops acked, %d migrations%s@," sid
        (List.length ops) (List.length migs)
        (if degraded = [] then "" else
           Printf.sprintf ", %d degraded" (List.length degraded));
      List.iter
        (fun m -> Format.fprintf ppf "  migrated %a@," pp_migration m)
        migs;
      List.iter
        (fun s ->
          match (s.owaiting_for, claim_honest s) with
          | Some d, Some honest ->
              Format.fprintf ppf
                "  #%d claimed waiting_for=%a at p%d@%.1f — %s@," s.oseq
                Dot.pp d (s.oclaim_home + 1) s.oclaim_at
                (if honest then "ground truth agrees (unapplied there)"
                 else "CLAIM FALSE: already applied there")
          | _ -> ())
        claims;
      (* a violation names the session and the migration edge that
         caused it: the last migration at or before the offending op *)
      List.iter
        (fun (v : Session_guarantees.violation) ->
          if v.Session_guarantees.proc = sid then begin
            Format.fprintf ppf "  VIOLATION %a@," Session_guarantees.pp_violation v;
            let offender_at =
              (* issue time of the span carrying the culprit/anchor *)
              List.fold_left
                (fun acc s ->
                  let dots =
                    Option.to_list s.odot
                    @ Option.to_list v.Session_guarantees.culprit
                  in
                  match (s.odot, acc) with
                  | Some d, None
                    when List.exists (Dot.equal d) dots ->
                      Some s.oissued_at
                  | _ -> acc)
                None spans
            in
            match
              List.fold_left
                (fun acc m ->
                  match offender_at with
                  | Some t when m.mat <= t -> Some m
                  | None -> Some m
                  | Some _ -> acc)
                None migs
            with
            | Some m ->
                Format.fprintf ppf "    caused across edge %a@," pp_migration m
            | None -> ()
          end)
        r.violations)
    r.streams;
  Format.fprintf ppf "@]"
