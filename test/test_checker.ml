(* Golden reports of the run auditor (Checker.check).

   Every field of a report is rendered as canonical text — the counts,
   the per-process delay counts, each delay with its expanded blocking
   list, each violation as [pp_violation] prints it, and the [missing]
   and [lost] lists — and the MD5 of that text is compared with a
   digest recorded from the original audit, which scanned every
   candidate write for every read and stored each blocking dot. Any
   change to how the checker computes a report must leave every digest
   unchanged.

   The sweep is chosen to reach every branch of the audit:
   - Sim_run of OptP (necessary delays), ANBKH (unnecessary delays),
     OptP-WS and WS-recv (skips), Canary (safety violations) and OptP
     on lossy links (lost writes);
   - OptP executions re-recorded with about 5% of their reads rewritten
     to an older write of the same issuer or to ⊥ (illegal reads), or
     with about 5% of their immediate applies flagged delayed
     (accounting violations);
   - Partial_run (the partial-replication audit);
   - Churn_campaign, whose audit passes [?expected];
   - Soak windows, whose audit passes [?floor] over dots of several
     occupant generations. *)

module Checker = Dsm_runtime.Checker
module Execution = Dsm_runtime.Execution
module Sim_run = Dsm_runtime.Sim_run
module Partial_run = Dsm_runtime.Partial_run
module Churn_campaign = Dsm_runtime.Churn_campaign
module Soak = Dsm_runtime.Soak
module Provenance = Dsm_runtime.Provenance
module Protocol = Dsm_core.Protocol
module Replication = Dsm_core.Replication
module Spec = Dsm_workload.Spec
module Latency = Dsm_sim.Latency
module Network = Dsm_sim.Network
module Fault_plan = Dsm_sim.Fault_plan
module Rng = Dsm_sim.Rng
module Operation = Dsm_memory.Operation
module History = Dsm_memory.History
module Write_vectors = Dsm_memory.Write_vectors
module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

let blocking d = Checker.blocking_dots (Checker.blocking d)

let report_text (r : Checker.report) =
  let b = Buffer.create 4096 in
  let dots ds = String.concat " " (List.map Dot.to_string ds) in
  let pairs ps =
    String.concat " "
      (List.map (fun (p, d) -> Printf.sprintf "%d:%s" p (Dot.to_string d)) ps)
  in
  Printf.bprintf b
    "applies=%d delays=%d necessary=%d unnecessary=%d complete=%b \
     skipped=%d\n"
    r.total_applies r.total_delays r.necessary_delays r.unnecessary_delays
    r.complete r.skipped;
  Printf.bprintf b "per-proc %s\n"
    (String.concat ","
       (List.map string_of_int (Array.to_list r.delays_per_proc)));
  List.iter
    (fun (d : Checker.delay) ->
      Printf.bprintf b "delay p%d %s %s {%s}\n" d.dproc (Dot.to_string d.ddot)
        (match d.dclass with
        | Checker.Necessary -> "necessary"
        | Checker.Unnecessary -> "unnecessary")
        (dots (blocking d)))
    r.delays;
  List.iter
    (fun v ->
      Printf.bprintf b "%s\n" (Format.asprintf "%a" Checker.pp_violation v))
    r.violations;
  Printf.bprintf b "missing %s\nlost %s\n" (pairs r.missing) (pairs r.lost);
  Buffer.contents b

(* ---- inputs ------------------------------------------------------ *)

let spec ~n ~seed =
  Spec.make ~n ~m:4 ~ops_per_process:60 ~write_ratio:0.5
    ~think:(Latency.Exponential { mean = 5. })
    ~seed ()

let reorder = Latency.Lognormal { mu = 2.; sigma = 1.2 }

let sim (module P : Protocol.S) ?faults seed =
  (Sim_run.run (module P) ~spec:(spec ~n:6 ~seed) ~latency:reorder ?faults
     ~seed:(seed + 1) ())
    .Sim_run.execution

let sim_reports p ?faults () =
  List.map (fun seed -> Checker.check (sim p ?faults seed)) [ 1; 2; 3; 4 ]

(* Re-records an execution, passing each event's kind through [f]. *)
let re_record f exec =
  let out =
    Execution.create ~n:(Execution.n_processes exec)
      ~m:(Execution.n_variables exec) ()
  in
  List.iter
    (fun (e : Execution.event) ->
      Execution.record out ~proc:e.proc ~time:e.time (f e.kind))
    (Execution.events exec);
  out

(* About 5% of the reads are rewritten: to the latest older write of
   the same issuer on the same variable, or to ⊥ when the coin says so
   or no such write exists. The history stays well-formed; the
   rewritten reads are usually illegal. *)
let rewrite_reads rng exec =
  let writes = Execution.writes exec in
  let older d var =
    List.fold_left
      (fun acc (d', var', value) ->
        if
          Dot.replica d' = Dot.replica d
          && var' = var
          && Dot.seq d' < Dot.seq d
        then Some (d', value)
        else acc)
      None writes
  in
  re_record
    (function
      | Execution.Return { var; read_from = Some d; _ }
        when Rng.bernoulli rng 0.05 -> (
          match older d var with
          | Some (d', value) when Rng.bool rng ->
              Execution.Return
                { var; value = Operation.Val value; read_from = Some d' }
          | _ ->
              Execution.Return { var; value = Operation.Bot; read_from = None })
      | k -> k)
    exec

(* About 5% of the immediate applies are flagged delayed: an issuer's
   own apply has no receipt, a remote one was applied at its receipt;
   both are accounting violations. *)
let flag_delayed rng exec =
  re_record
    (function
      | Execution.Apply ({ delayed = false; _ } as a)
        when Rng.bernoulli rng 0.05 ->
          Execution.Apply { a with delayed = true }
      | k -> k)
    exec

let rerecorded_reports rewrite () =
  List.map
    (fun seed ->
      Checker.check
        (rewrite (Rng.create (100 + seed)) (sim (module Dsm_core.Opt_p) seed)))
    [ 1; 2; 3; 4; 5; 6 ]

let partial seed =
  let n = 6 and m = 6 in
  let replication =
    if seed mod 2 = 0 then Replication.ring ~n ~m ~degree:2
    else Replication.random ~n ~m ~degree:3 ~rng:(Rng.create seed)
  in
  Partial_run.run ~replication
    ~spec:{ (spec ~n ~seed) with Spec.m }
    ~latency:reorder ~seed:(seed + 1) ()

let partial_reports () =
  List.map (fun seed -> Partial_run.check (partial seed)) [ 1; 2; 3; 4 ]

(* churn (joins, leaves, crash-rejoins) for even seeds, a permanent
   crash on static membership for odd ones: both leave slots the final
   view excuses *)
let churn_plan seed =
  let rng = Rng.create (7919 * seed) in
  if seed mod 2 = 0 then
    ( 4,
      Fault_plan.random_churn rng ~initial:4 ~n:8 ~horizon:350. ~joins:2
        ~leaves:1 ~rejoins:1 () )
  else
    ( 8,
      Fault_plan.make
        (List.filter
           (function Fault_plan.Recover _ -> false | _ -> true)
           (Fault_plan.random rng ~n:8 ~horizon:350. ~crashes:2
              ~partitions:1 ())) )

let churn_reports (pack : Protocol.packed) () =
  match pack with
  | Protocol.Packed (module P) ->
      List.map
        (fun seed ->
          let initial, plan = churn_plan seed in
          (Churn_campaign.run
             (module P)
             ~spec:
               (Spec.make ~n:8 ~m:3 ~ops_per_process:25 ~write_ratio:0.5
                  ~think:(Latency.Exponential { mean = 10. })
                  ~seed ())
             ~latency:(Latency.Exponential { mean = 8. })
             ~faults:{ Network.drop = 0.1; duplicate = 0.05; corrupt = 0. }
             ~plan ~initial ~seed ())
            .Churn_campaign.report)
        [ 1; 2; 3; 4 ]

let soak_audits (module P : Protocol.S) ~strict_delays () =
  let audits = ref [] in
  ignore
    (Soak.run
       ~on_audit:(fun exec r -> audits := (exec, r) :: !audits)
       (module P)
       {
         Soak.default with
         Soak.epochs = 120;
         window = 10;
         seed = 1;
         strict_delays;
       });
  List.rev !audits

let soak_reports p ~strict_delays () =
  List.map snd (soak_audits p ~strict_delays ())

(* ---- what each input must reach ---------------------------------- *)

let has_violation p (r : Checker.report) = List.exists p r.violations

let safety = has_violation (function Checker.Safety _ -> true | _ -> false)

let illegal_read sub =
  has_violation (function
    | Checker.Illegal_read { detail; _ } ->
        let n = String.length sub and m = String.length detail in
        let rec at i =
          i + n <= m && (String.sub detail i n = sub || at (i + 1))
        in
        at 0
    | _ -> false)

let accounting =
  has_violation (function
    | Checker.Immediate_apply_marked_delayed _ -> true
    | _ -> false)

let necessary (r : Checker.report) = r.necessary_delays > 0
let unnecessary (r : Checker.report) = r.unnecessary_delays > 0
let skips (r : Checker.report) = r.skipped > 0
let lost (r : Checker.report) = r.lost <> []

let later_generation (r : Checker.report) =
  List.exists (fun (d : Checker.delay) -> Dot.gen d.ddot > 0) r.delays

type case = {
  name : string;
  reports : unit -> Checker.report list;
  reaches : (string * (Checker.report -> bool)) list;
  golden : string;
}

let cases =
  [
    {
      name = "Sim_run OptP";
      reports = sim_reports (module Dsm_core.Opt_p);
      reaches = [ ("necessary delays", necessary) ];
      golden = "b17d3b64a1c4acd0810368820f5bb04f";
    };
    {
      name = "Sim_run ANBKH";
      reports = sim_reports (module Dsm_core.Anbkh);
      reaches = [ ("unnecessary delays", unnecessary) ];
      golden = "3948a93adc50bc8a22c0a4a8fffbb88c";
    };
    {
      name = "Sim_run OptP-WS";
      reports = sim_reports (module Dsm_core.Opt_p_ws);
      reaches = [ ("skips", skips) ];
      golden = "2402e960d343afe0241e76d4ed46ae33";
    };
    {
      name = "Sim_run WS-recv";
      reports = sim_reports (module Dsm_core.Ws_receiver);
      reaches = [ ("skips", skips) ];
      golden = "b0520cdd718906374f54c71cb31796e2";
    };
    {
      name = "Sim_run Canary";
      reports = sim_reports (module Dsm_core.Canary);
      reaches = [ ("safety violations", safety) ];
      golden = "544494d36d678dadcd747831fd1516c3";
    };
    {
      name = "Sim_run OptP, lossy links";
      reports =
        sim_reports
          (module Dsm_core.Opt_p)
          ~faults:{ Network.drop = 0.05; duplicate = 0.05; corrupt = 0. };
      reaches = [ ("lost writes", lost) ];
      golden = "b4c845a355328fcae877afbd7093a28c";
    };
    {
      name = "OptP, rewritten reads";
      reports = rerecorded_reports rewrite_reads;
      reaches =
        [
          ("stale reads", illegal_read "stale"); ("⊥ reads", illegal_read "⊥");
        ];
      golden = "02f0fb6c8bd2abdfce40b681d052c815";
    };
    {
      name = "OptP, applies flagged delayed";
      reports = rerecorded_reports flag_delayed;
      reaches = [ ("accounting violations", accounting) ];
      golden = "4cb037335b7eb3ffd1c2012aa35fd2bd";
    };
    {
      name = "Partial_run";
      reports = partial_reports;
      reaches = [ ("necessary delays", necessary) ];
      golden = "f2c221959ba645f5609ea71abfb2a439";
    };
    (* the three campaign reports were re-recorded when the survivors
       of a permanent crash joined the final fixpoint: the runs moved,
       not the audit *)
    {
      name = "Churn_campaign OptP";
      reports = churn_reports (Protocol.Packed (module Dsm_core.Opt_p));
      reaches = [ ("necessary delays", necessary) ];
      golden = "c8fdd743ea33a0eb092854f17208d868";
    };
    {
      name = "Churn_campaign ANBKH";
      reports = churn_reports (Protocol.Packed (module Dsm_core.Anbkh));
      reaches = [ ("unnecessary delays", unnecessary) ];
      golden = "36dea585eb0e20e23fbeae06e86cb44e";
    };
    {
      name = "Churn_campaign Canary";
      reports = churn_reports (Protocol.Packed (module Dsm_core.Canary));
      reaches = [ ("safety violations", safety) ];
      golden = "165ed5a36d1ea824b20d20c5bb7d242e";
    };
    {
      name = "Soak windows OptP";
      reports = soak_reports (module Dsm_core.Opt_p) ~strict_delays:true;
      reaches =
        [
          ("necessary delays", necessary);
          ("later generations", later_generation);
        ];
      golden = "8ea7d32678e264d20e804d53fa15e313";
    };
    {
      name = "Soak windows ANBKH";
      reports = soak_reports (module Dsm_core.Anbkh) ~strict_delays:false;
      reaches = [ ("unnecessary delays", unnecessary) ];
      golden = "34ca4a601d6baddcaf50f7a78ddd3c29";
    };
  ]

let test_case c () =
  let reports = c.reports () in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) (c.name ^ " reaches " ^ what) true
        (List.exists p reports))
    c.reaches;
  let digest =
    Digest.to_hex
      (Digest.string (String.concat "\n" (List.map report_text reports)))
  in
  Alcotest.(check string) (c.name ^ " golden digest") c.golden digest

(* ---- explain's witness test -------------------------------------- *)

(* [Provenance.explain] decides whether a protocol's claim is witnessed
   by membership in the blocking ranges. It must give the answer a
   search of the expanded list gives, generation included. The soak
   windows add delays of later-generation writes. *)
let test_witness_by_range () =
  let sims p = List.map (fun seed -> sim p seed) [ 1; 2 ] in
  let audits =
    List.map
      (fun e -> (e, Checker.check e))
      (sims (module Dsm_core.Opt_p) @ sims (module Dsm_core.Anbkh))
    @ List.map
        (fun seed ->
          let o = partial seed in
          (o.Partial_run.execution, Partial_run.check o))
        [ 1; 2 ]
    @ soak_audits (module Dsm_core.Anbkh) ~strict_delays:false ()
  in
  let differ = ref 0 and witnessed = ref 0 and refuted = ref 0 in
  List.iter
    (fun (exec, (report : Checker.report)) ->
      List.iter2
        (fun (row : Provenance.delay_explanation) (d : Checker.delay) ->
          let expanded =
            match row.ewaiting_for with
            | Some w ->
                List.exists (Dot.equal w) (blocking d)
            | None -> false
          in
          if row.eagrees <> expanded then incr differ;
          if row.eagrees then incr witnessed
          else if row.ewaiting_for <> None then incr refuted)
        (Provenance.explain exec report).rows report.delays)
    audits;
  Alcotest.(check int) "rows deciding otherwise than the expanded list" 0
    !differ;
  Alcotest.(check bool) "some claims witnessed" true (!witnessed > 0);
  Alcotest.(check bool) "some claims refuted" true (!refuted > 0)

(* ---- the reference audit ----------------------------------------- *)

(* The full-replication audit as the definitions read, at no concern
   for cost: every apply is checked against every issuer; each delay's
   blocking ranges are built at its apply from a table of the positions
   where each (issuer, seq) was first counted; a read is checked
   against every write on its variable; completeness visits every
   (write, process) pair. [Checker.check] must give the same report,
   field for field. *)
let reference_audit exec =
  let n = Execution.n_processes exec in
  let history = Execution.to_history exec in
  let wv = Write_vectors.compute history in
  let violations = ref [] and delays = ref [] in
  let emit v = violations := v :: !violations in
  let delays_per_proc = Array.make n 0 in
  let applied = Hashtbl.create 64 and skipped = Hashtbl.create 64 in
  let need d v j = V.get v j - if j = Dot.replica d then 1 else 0 in
  for proc = 0 to n - 1 do
    let cnt = Array.make n 0 in
    let covered = Hashtbl.create 64 and receipt = Hashtbl.create 64 in
    let logical pos d =
      let j = Dot.replica d in
      for s = cnt.(j) + 1 to Dot.seq d do
        Hashtbl.replace covered (j, s) pos
      done;
      cnt.(j) <- max cnt.(j) (Dot.seq d)
    in
    let slot = ref 0 in
    List.iteri
      (fun pos (e : Execution.event) ->
        match e.kind with
        | Execution.Receipt { dot; _ } -> Hashtbl.replace receipt dot pos
        | Execution.Apply { dot; delayed; _ } ->
            let v = Write_vectors.of_write wv dot in
            for j = 0 to n - 1 do
              if cnt.(j) < need dot v j then
                emit
                  (Checker.Safety
                     {
                       proc;
                       applied = dot;
                       missing = Dot.make ~replica:j ~seq:(cnt.(j) + 1);
                     })
            done;
            let accounting () =
              emit (Checker.Immediate_apply_marked_delayed { proc; dot })
            in
            (if delayed then
               match Hashtbl.find_opt receipt dot with
               | None -> accounting ()
               | Some rp ->
                   if rp + 1 = pos then accounting ();
                   let uncovered j s =
                     match Hashtbl.find_opt covered (j, s) with
                     | Some p -> p > rp
                     | None -> true
                   in
                   let ranges =
                     List.filter_map
                       (fun j ->
                         match
                           List.filter (uncovered j)
                             (List.init (max 0 (need dot v j)) succ)
                         with
                         | [] -> None
                         | first :: _ as ss ->
                             Some
                               {
                                 Checker.issuer = j;
                                 gen = 0;
                                 first;
                                 last = List.fold_left max first ss;
                               })
                       (List.init n Fun.id)
                   in
                   let c =
                     if ranges = [] then Checker.Unnecessary
                     else Checker.Necessary
                   in
                   delays_per_proc.(proc) <- delays_per_proc.(proc) + 1;
                   delays := (proc, dot, c, ranges) :: !delays);
            logical pos dot;
            Hashtbl.replace applied (proc, dot) ()
        | Execution.Skip { dot } ->
            logical pos dot;
            Hashtbl.replace skipped (proc, dot) ()
        | Execution.Return { var; read_from; _ } ->
            let rv = Write_vectors.of_read wv ~proc ~slot:!slot in
            incr slot;
            for j = n - 1 downto 0 do
              List.iter
                (fun (w : Operation.write) ->
                  let interposed =
                    match read_from with
                    | None -> true
                    | Some d ->
                        Dot.seq d
                        <= V.get
                             (Write_vectors.of_write wv w.wdot)
                             (Dot.replica d)
                  in
                  let detail =
                    match read_from with
                    | None ->
                        Format.asprintf
                          "read of x%d returned ⊥ although %a causally \
                           precedes it"
                          (var + 1) Dot.pp w.wdot
                    | Some d ->
                        Format.asprintf
                          "read of x%d from %a is stale: %a is causally \
                           interposed"
                          (var + 1) Dot.pp d Dot.pp w.wdot
                  in
                  if interposed && read_from <> Some w.wdot then
                    emit (Checker.Illegal_read { proc; detail }))
                (List.rev
                   (List.filter
                      (fun (w : Operation.write) ->
                        Dot.replica w.wdot = j
                        && w.wvar = var
                        && Dot.seq w.wdot <= V.get rv j)
                      (History.writes history)))
            done
        | Execution.Send _ | Execution.Blocked _ -> ())
      (Execution.events_of exec proc)
  done;
  let missing =
    List.concat_map
      (fun (w : Operation.write) ->
        List.filter_map
          (fun proc ->
            if Hashtbl.mem applied (proc, w.wdot) then None
            else Some (proc, w.wdot))
          (List.init n Fun.id))
      (History.writes history)
  in
  let count p =
    List.length
      (List.filter (fun e -> p e.Execution.kind) (Execution.events exec))
  in
  let delays = List.rev !delays in
  let necessary =
    List.length
      (List.filter (fun (_, _, c, _) -> c = Checker.Necessary) delays)
  in
  (* the report's own [delays] stays empty: only the audit makes a
     [Checker.delay], so the reference's go beside the report *)
  ( {
      Checker.total_applies =
        count (function Execution.Apply _ -> true | _ -> false);
      total_delays = List.length delays;
      necessary_delays = necessary;
      unnecessary_delays = List.length delays - necessary;
      delays = [];
      delays_per_proc;
      violations = List.rev !violations;
      complete = missing = [];
      missing;
      lost = List.filter (fun pd -> not (Hashtbl.mem skipped pd)) missing;
      skipped = count (function Execution.Skip _ -> true | _ -> false);
    },
    delays )

let range_text (r : Checker.range) =
  Printf.sprintf "%d@%d:%d-%d" r.issuer r.gen r.first r.last

(* every report field as text, each delay with its ranges unexpanded *)
let audit_text (r : Checker.report) delays =
  let pairs ps =
    String.concat " "
      (List.map (fun (p, d) -> Printf.sprintf "%d:%s" p (Dot.to_string d)) ps)
  in
  String.concat "\n"
    ([
       Printf.sprintf
         "applies=%d delays=%d necessary=%d unnecessary=%d complete=%b \
          skipped=%d"
         r.total_applies r.total_delays r.necessary_delays
         r.unnecessary_delays r.complete r.skipped;
       "per-proc "
       ^ String.concat ","
           (List.map string_of_int (Array.to_list r.delays_per_proc));
     ]
    @ List.map
        (fun (proc, dot, c, rs) ->
          Printf.sprintf "delay p%d %s %s [%s]" proc (Dot.to_string dot)
            (match c with
            | Checker.Necessary -> "necessary"
            | Checker.Unnecessary -> "unnecessary")
            (String.concat " " (List.map range_text rs)))
        delays
    @ List.map (Format.asprintf "%a" Checker.pp_violation) r.violations
    @ [ "missing " ^ pairs r.missing; "lost " ^ pairs r.lost ])

let checker_text (r : Checker.report) =
  audit_text r
    (List.map
       (fun (d : Checker.delay) ->
         (d.dproc, d.ddot, d.dclass, Checker.blocking d))
       r.delays)

(* Swaps about one remote apply in ten with another remote apply of the
   same process, delayed flag and all. A write is then often applied
   before its issuer's previous write, or after an unsafe apply of it.
   An issuer's own applies stay in place, so the history is unchanged. *)
let swap_applies rng exec =
  let evs = Array.of_list (Execution.events exec) in
  let remote = Array.make (Execution.n_processes exec) [] in
  Array.iteri
    (fun k (e : Execution.event) ->
      match e.kind with
      | Execution.Apply { dot; _ } when Dot.replica dot <> e.proc ->
          remote.(e.proc) <- k :: remote.(e.proc)
      | _ -> ())
    evs;
  Array.iter
    (fun ks ->
      let ks = Array.of_list ks in
      Array.iter
        (fun k ->
          if Rng.bernoulli rng 0.1 then begin
            let k' = ks.(Rng.int rng (Array.length ks)) in
            let e = evs.(k) and e' = evs.(k') in
            evs.(k) <- { e with kind = e'.kind };
            evs.(k') <- { e' with kind = e.kind }
          end)
        ks)
    remote;
  let out =
    Execution.create ~n:(Execution.n_processes exec)
      ~m:(Execution.n_variables exec) ()
  in
  Array.iter
    (fun (e : Execution.event) ->
      Execution.record out ~proc:e.proc ~time:e.time e.kind)
    evs;
  out

let reference_inputs :
    (string * Protocol.packed * Network.faults option) array =
  [|
    ("OptP", Protocol.Packed (module Dsm_core.Opt_p), None);
    ("ANBKH", Protocol.Packed (module Dsm_core.Anbkh), None);
    ("Canary", Protocol.Packed (module Dsm_core.Canary), None);
    ("OptP-WS", Protocol.Packed (module Dsm_core.Opt_p_ws), None);
    ( "OptP, lossy links",
      Protocol.Packed (module Dsm_core.Opt_p),
      Some { Network.drop = 0.05; duplicate = 0.05; corrupt = 0. } );
  |]

(* Half the runs are tiny: there an issuer's first write is often applied
   after another issuer's last, which the audit must not take for its
   issuer's previous write. *)
let gen_reference_case =
  QCheck2.Gen.(
    let* p = int_bound (Array.length reference_inputs - 1) in
    let* n = int_range 2 6 in
    let* ops = oneof [ int_range 2 8; int_range 9 40 ] in
    let* seed = int_bound 1_000_000 in
    let* swapped = bool in
    return (p, n, ops, seed, swapped))

let print_reference_case (p, n, ops, seed, swapped) =
  let name, _, _ = reference_inputs.(p) in
  Printf.sprintf "%s n=%d ops=%d seed=%d%s" name n ops seed
    (if swapped then " applies swapped" else "")

let reference_exec (p, n, ops, seed, swapped) =
  let _, Protocol.Packed (module P), faults = reference_inputs.(p) in
  let exec =
    (Sim_run.run
       (module P)
       ~spec:
         (Spec.make ~n ~m:3 ~ops_per_process:ops ~write_ratio:0.5
            ~think:(Latency.Exponential { mean = 5. })
            ~seed ())
       ~latency:reorder ?faults ~seed:(seed + 1) ())
      .Sim_run.execution
  in
  if swapped then swap_applies (Rng.create seed) exec else exec

let prop_reference_audit =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every report field as the reference audit's"
       ~count:300 ~print:print_reference_case gen_reference_case (fun c ->
         let exec = reference_exec c in
         let r, delays = reference_audit exec in
         let want = audit_text r delays
         and got = checker_text (Checker.check exec) in
         want = got
         || QCheck2.Test.fail_reportf "reference:\n%s\n\nchecker:\n%s" want
              got))

(* ---- what the audit keeps ---------------------------------------- *)

(* A delay keeps its receipt position and the report's one coverage
   table, not its blocking ranges: on this input of 32 processes,
   eagerly built ranges cost the audit 63.3 major words per delay. The
   minor heap is emptied before each reading, since the counter moves
   only at minor collections. *)
let footprint_spec =
  Spec.make ~n:32 ~m:8 ~ops_per_process:206 ~write_ratio:0.5
    ~var_dist:(Spec.Zipf_vars 1.2) ~seed:7 ()

let test_major_words_per_delay () =
  let exec =
    (Sim_run.run
       (module Dsm_core.Opt_p)
       ~spec:footprint_spec ~latency:reorder ~seed:7 ())
      .Sim_run.execution
  in
  let major_words () =
    Gc.minor ();
    (Gc.quick_stat ()).major_words
  in
  let before = major_words () in
  let r = Checker.check exec in
  let per_delay =
    (major_words () -. before) /. float_of_int r.Checker.total_delays
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per delay, of %d delays, below 30"
       per_delay r.total_delays)
    true (per_delay < 30.)

(* OptP with the minor words of its receives counted *)
module Counted_receive = struct
  include Dsm_core.Opt_p

  let words = ref 0.
  let calls = ref 0

  let receive t ~src m =
    let before = Gc.minor_words () in
    let effects = receive t ~src m in
    words := !words +. (Gc.minor_words () -. before);
    incr calls;
    effects
end

(* On the same input, about two thirds of OptP's 102k receives leave
   their message buffered. A receive cost 84.6 minor words when the
   buffer kept an id table, a key tuple and a cons per subscription, and
   each receive built its wait oracle's closures and a record per wait;
   it costs 21.7 now, of which a buffered receive's entry is 7 and its
   reported wakeup constraint 11. *)
let test_receive_minor_words () =
  ignore
    (Sim_run.run
       (module Counted_receive)
       ~spec:footprint_spec ~latency:reorder ~seed:7 ());
  let per_call = !Counted_receive.words /. float_of_int !Counted_receive.calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per receive, of %d, below 40" per_call
       !Counted_receive.calls)
    true (per_call < 40.)

let () =
  Alcotest.run "checker"
    [
      ( "golden reports",
        List.map
          (fun c -> Alcotest.test_case c.name `Quick (test_case c))
          cases );
      ( "explain",
        [
          Alcotest.test_case "witness by range membership" `Quick
            test_witness_by_range;
        ] );
      ("reference audit", [ prop_reference_audit ]);
      ( "footprint",
        [
          Alcotest.test_case "major words per delay" `Quick
            test_major_words_per_delay;
          Alcotest.test_case "receive minor words" `Quick
            test_receive_minor_words;
        ] );
    ]
