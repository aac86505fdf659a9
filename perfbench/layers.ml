(* The traced run: per-layer cost, measured from outside the program.

   For each input the traced run executes:

   - the untraced case (as the timed run does), for trace overhead;
   - the traced case: the same case with the protocol wrapped by
     {!Timed} and spans around the generator, the driver and (on
     static-reorder) the external audit;
   - the other levels of the driver stack on the same input, each under
     its own timed wrapper: Sim_run, Reliable_run, Fault_campaign with
     an empty plan, Churn_campaign. A level's {e proper} time is its
     driver time minus core and durability time, minus the audit the
     driver runs internally (probed by re-running Checker.check on the
     level's execution). A driver layer's self time is its level's
     proper time minus the level below;
   - the workload's own driver with live metrics, wire and recorder
     against all-null observers, for observer overhead.

   Levels above a workload's own driver (all three on static-reorder)
   are reference runs: they price the layer on this input but are not
   part of the workload's case, so conservation leaves them out. *)

open Cases

let now_ns = Timed.now_ns

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Direct calls into the audit layers on one execution. *)
type probe = {
  history_ns : int;
  vectors_ns : int;
  check_ns : int;
  check_major_words : float;
  events : int;
}

let probe_audit exec =
  let history, history_ns = time (fun () -> Execution.to_history exec) in
  let _, vectors_ns =
    time (fun () -> Dsm_memory.Write_vectors.compute history)
  in
  let major0 = (Gc.quick_stat ()).major_words in
  let _, check_ns = time (fun () -> Checker.check exec) in
  {
    history_ns;
    vectors_ns;
    check_ns;
    check_major_words = (Gc.quick_stat ()).major_words -. major0;
    events = Execution.event_count exec;
  }

(* One level of the stack, driven under a fresh timed wrapper. *)
type level_run = {
  driven : driven;
  drive_ns : int;
  counters : Timed.counters;
  restore_probe : unit -> int list;
      (** snapshot every replica's final state and time its restore —
          a recovery's cost, priced on every workload; run it after the
          timed region *)
}

let run_level level input obs =
  let module T = Timed.Make (Dsm_core.Opt_p) () in
  let driven, drive_ns =
    time (fun () -> drive (Protocol.Packed (module T)) level input obs)
  in
  (* the probe calls OptP unwrapped, leaving the level's counters as the
     run left them *)
  let restore_probe () =
    let cfg = Protocol.config ~n:input.spec.Spec.n ~m:input.spec.Spec.m in
    let finals = Hashtbl.create 32 in
    List.iter (fun s -> Hashtbl.replace finals (T.me s) s) (T.states ());
    Hashtbl.fold
      (fun me s acc ->
        let image = Dsm_core.Opt_p.snapshot s in
        snd (time (fun () -> ignore (Dsm_core.Opt_p.restore cfg ~me image)))
        :: acc)
      finals []
  in
  { driven; drive_ns; counters = T.counters; restore_probe }

(* What the metrics need from one level's run, read off as soon as it
   ends so that its execution can be collected: the static-reorder
   stack would not fit in memory at once. *)
type facts = {
  proper_ns : int;
      (** driver time minus core, durability and the driver's own audit *)
  counters : Timed.counters;
  writes : int;
  steps : int;
  messages : int;  (** Sim_run: messages sent; Reliable_run: payloads *)
  frames : int;
  retransmissions : int;
  commits : int;
  snapshot_bytes : int;
  replayed : int;
  stale_dropped : int;
  transfer_bytes : int;
  joins : int;  (** fresh joins and rejoins *)
  restores : int list;
}

let facts r ~audit_ns =
  let exec = execution r.driven in
  let base =
    {
      proper_ns =
        r.drive_ns - Timed.core_ns r.counters
        - Timed.durability_ns r.counters - audit_ns;
      counters = r.counters;
      writes = List.length (Execution.writes exec);
      steps = engine_steps r.driven;
      messages = 0;
      frames = 0;
      retransmissions = 0;
      commits = 0;
      snapshot_bytes = 0;
      replayed = 0;
      stale_dropped = 0;
      transfer_bytes = 0;
      joins = 0;
      restores = [];
    }
  in
  match r.driven with
  | Sim_out o -> { base with messages = o.messages_sent }
  | Reliable_out o ->
      {
        base with
        messages = o.payloads_sent;
        frames = o.frames_sent;
        retransmissions = o.retransmissions;
      }
  | Campaign_out _ -> base
  | Churn_out o ->
      {
        base with
        commits = o.commits;
        snapshot_bytes = o.snapshot_bytes;
        replayed = o.replayed_writes;
        stale_dropped = o.stale_deliveries_dropped;
        transfer_bytes = o.transfer_bytes;
        joins = o.joins + o.rejoins;
        restores = r.restore_probe ();
      }

(* Everything one input contributes to the per-layer metrics. *)
type sample = {
  untraced_ns : int;
  total_ns : int;  (** the traced case, outer span *)
  gen_ns : int;
  external_check_ns : int;  (** static-reorder's audit span *)
  audit : probe;  (** on the traced case's execution *)
  stack : (level * facts) list;  (** every level, bottom up *)
  causal_waits : float list;
  wire : Wire.stats;
  obs_null_ns : int;
  obs_live_ns : int;
  verdict : verdict;  (** of the traced case *)
  ops : int;
}

(* sim-time from a write entering the buffer to its delayed apply *)
let causal_waits exec =
  let blocked = Hashtbl.create 1024 in
  List.fold_left
    (fun acc (e : Execution.event) ->
      match e.kind with
      | Blocked { dot; _ } ->
          if not (Hashtbl.mem blocked (e.proc, dot)) then
            Hashtbl.add blocked (e.proc, dot) e.time;
          acc
      | Apply { dot; delayed = true; _ } -> (
          match Hashtbl.find_opt blocked (e.proc, dot) with
          | Some t -> Dsm_sim.Sim_time.diff e.time t :: acc
          | None -> acc)
      | _ -> acc)
    [] (Execution.events exec)

(* the audit a driver runs inside its own time *)
let internal_audit_ns level exec =
  match level with
  | Sim | Reliable -> 0
  | Campaign | Churn -> (probe_audit exec).check_ns

let sample workload input =
  let own_lvl = own_level workload in
  (* a full major collection before each of the two compared cases, so
     neither pays for the other's garbage *)
  Gc.full_major ();
  let untraced_ns =
    snd (time (fun () -> run_case workload input (wire_only input)))
  in
  (* the traced case: spans around generator, driver and audit *)
  let obs = wire_only input in
  Gc.full_major ();
  let t0 = now_ns () in
  let (writes, reads), gen_ns =
    time (fun () -> Generator.op_counts (Generator.generate input.spec))
  in
  let own = run_level own_lvl input obs in
  let report, external_check_ns =
    match own.driven with
    | Sim_out o -> time (fun () -> Checker.check o.execution)
    | Churn_out o -> (o.report, 0)
    | Reliable_out _ | Campaign_out _ -> assert false
  in
  let total_ns = now_ns () - t0 in
  let exec = execution own.driven in
  let audit = probe_audit exec in
  let own_facts =
    facts own ~audit_ns:(if own_lvl = Churn then audit.check_ns else 0)
  in
  let verdict = judge { driven = own.driven; report; ops = writes + reads } in
  let causal_waits = causal_waits exec in
  let stack =
    List.map
      (fun l ->
        if l = own_lvl then (l, own_facts)
        else begin
          (* each level starts from a collected heap, so none pays for
             another's garbage *)
          Gc.full_major ();
          let r = run_level l input (wire_only input) in
          (l, facts r ~audit_ns:(internal_audit_ns l (execution r.driven)))
        end)
      levels
  in
  let obs_null_ns =
    snd (time (fun () -> drive optp own_lvl input (null_observers ())))
  in
  let obs_live_ns =
    snd (time (fun () -> drive optp own_lvl input (live_observers input)))
  in
  {
    untraced_ns;
    total_ns;
    gen_ns;
    external_check_ns;
    audit;
    stack;
    causal_waits;
    wire = Wire.totals obs.wire;
    obs_null_ns;
    obs_live_ns;
    verdict;
    ops = writes + reads;
  }

(* ---- aggregation ------------------------------------------------ *)

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let ms ns = float_of_int ns /. 1e6

(* a driver layer's self time: its level's proper time minus the
   proper time of the level below *)
let layer_ns s l =
  let rec below = function
    | a :: (b :: _ as rest) -> if b = l then Some a else below rest
    | _ -> None
  in
  let proper l = (List.assoc l s.stack).proper_ns in
  match below levels with None -> proper l | Some b -> proper l - proper b

(* audit self time, split by the probes: history and vectors as probed,
   the rest of Checker.check as the audit proper *)
let checker_ns s =
  if s.external_check_ns > 0 then s.external_check_ns else s.audit.check_ns

(* Sum of the self times of the layers inside the traced case. *)
let attributed_ns workload s =
  let own_lvl = own_level workload in
  let own = (List.assoc own_lvl s.stack).counters in
  let rec upto = function
    | [] -> []
    | l :: rest -> if l = own_lvl then [ l ] else l :: upto rest
  in
  s.gen_ns + Timed.core_ns own + Timed.durability_ns own
  + sum (layer_ns s) (upto levels)
  + checker_ns s

(* Stated bound on unattributed traced time. *)
let conservation_bound_pct = 2.

type metric = { name : string; value : float; unit_ : string }

let metrics workload samples =
  let cases = float_of_int (List.length samples) in
  let at l f s = f (List.assoc l s.stack) in
  let own f = at (own_level workload) (fun x -> f x.counters) in
  let total l f = sum (at l f) samples in
  let per_case ns = ms ns /. cases in
  let total_ns = sum (fun s -> s.total_ns) samples in
  let unattributed =
    100. *. ratio (total_ns - sum (attributed_ns workload) samples) total_ns
  in
  let m name unit_ value = { name; value; unit_ } in
  let own_ratio f g = ratio (sum (own f) samples) (sum (own g) samples) in
  ( [
      m "workload.gen_ms" "ms" (per_case (sum (fun s -> s.gen_ns) samples));
      m "core.write_ns" "ns"
        (own_ratio (fun c -> c.Timed.write_ns) (fun c -> c.writes));
      m "core.read_ns" "ns"
        (own_ratio (fun c -> c.Timed.read_ns) (fun c -> c.reads));
      m "core.receive_ns" "ns"
        (own_ratio (fun c -> c.Timed.receive_ns) (fun c -> c.receives));
      m "core.receive_words" "words"
        (let receives = sum (own (fun c -> c.Timed.receives)) samples in
         if receives = 0 then 0.
         else sumf (own (fun c -> c.receive_words)) samples /. float_of_int receives);
      m "core.buffered_ratio" "ratio"
        (own_ratio (fun c -> c.Timed.receives_buffered) (fun c -> c.receives));
      m "core.wakeup_scans_per_apply" "count"
        (own_ratio (fun c -> c.Timed.wakeup_scans) (fun c -> c.receive_applies));
      m "core.causal_wait_p99" "sim-time"
        (quantile (List.concat_map (fun s -> s.causal_waits) samples) 0.99);
      m "durability.snapshot_ns" "ns"
        (ratio
           (total Churn (fun f -> f.counters.snapshot_ns))
           (total Churn (fun f -> f.counters.snapshots)));
      m "durability.commits_per_write" "count"
        (ratio (total Churn (fun f -> f.commits)) (total Churn (fun f -> f.writes)));
      m "durability.bytes_per_commit" "B"
        (ratio
           (total Churn (fun f -> f.snapshot_bytes))
           (total Churn (fun f -> f.commits)));
      m "durability.restore_ns" "ns"
        (ratio
           (total Churn (fun f -> List.fold_left ( + ) 0 f.restores))
           (total Churn (fun f -> List.length f.restores)));
      m "sim.ns_per_step" "ns"
        (ratio (sum (fun s -> layer_ns s Sim) samples) (total Sim (fun f -> f.steps)));
      m "sim.steps_per_write" "count"
        (ratio (total Sim (fun f -> f.steps)) (total Sim (fun f -> f.writes)));
      m "sim.messages_per_write" "count"
        (ratio (total Sim (fun f -> f.messages)) (total Sim (fun f -> f.writes)));
      m "channel.ms" "ms" (per_case (sum (fun s -> layer_ns s Reliable) samples));
      m "channel.frames_per_payload" "count"
        (ratio
           (total Reliable (fun f -> f.frames))
           (total Reliable (fun f -> f.messages)));
      m "channel.retransmissions_per_payload" "count"
        (ratio
           (total Reliable (fun f -> f.retransmissions))
           (total Reliable (fun f -> f.messages)));
      m "campaign.ms" "ms" (per_case (sum (fun s -> layer_ns s Campaign) samples));
      m "campaign.replayed_per_write" "count"
        (ratio (total Churn (fun f -> f.replayed)) (total Churn (fun f -> f.writes)));
      m "campaign.stale_dropped_ratio" "ratio"
        (let stale = total Churn (fun f -> f.stale_dropped) in
         ratio stale (stale + total Churn (fun f -> f.replayed)));
      m "membership.ms" "ms" (per_case (sum (fun s -> layer_ns s Churn) samples));
      m "membership.transfer_bytes_per_join" "B"
        (ratio
           (total Churn (fun f -> f.transfer_bytes))
           (total Churn (fun f -> f.joins)));
      m "checker.history_ms" "ms"
        (per_case (sum (fun s -> s.audit.history_ns) samples));
      m "checker.vectors_ms" "ms"
        (per_case (sum (fun s -> s.audit.vectors_ns) samples));
      m "checker.audit_ms" "ms"
        (per_case
           (sum
              (fun s -> checker_ns s - s.audit.history_ns - s.audit.vectors_ns)
              samples));
      m "checker.ns_per_event" "ns"
        (ratio (sum checker_ns samples) (sum (fun s -> s.audit.events) samples));
      m "checker.heap_mb" "MB"
        (sumf (fun s -> s.audit.check_major_words) samples
        *. float_of_int (Sys.word_size / 8)
        /. 1048576. /. cases);
      m "wire.meta_bytes_per_frame" "B"
        (ratio (sum (fun s -> s.wire.meta) samples)
           (sum (fun s -> s.wire.frames) samples));
      m "wire.header_bytes_per_frame" "B"
        (ratio (sum (fun s -> s.wire.header) samples)
           (sum (fun s -> s.wire.frames) samples));
      m "obs.overhead_pct" "%"
        (100.
        *. (ratio (sum (fun s -> s.obs_live_ns) samples)
              (sum (fun s -> s.obs_null_ns) samples)
           -. 1.));
      m "trace.overhead_pct" "%"
        (100. *. (ratio total_ns (sum (fun s -> s.untraced_ns) samples) -. 1.));
      m "trace.unattributed_pct" "%" unattributed;
    ],
    Float.abs unattributed <= conservation_bound_pct )
