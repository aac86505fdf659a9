module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Latency = Dsm_sim.Latency
module Sim_time = Dsm_sim.Sim_time
module Rng = Dsm_sim.Rng
module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Json = Dsm_stats.Json

type config = {
  universe : int;
  vars : int;
  epochs : int;
  window : int;
  ops_per_epoch : int;
  write_ratio : float;
  churn_prob : float;
  fault_prob : float;
  min_live : int;
  drop : float;
  duplicate : float;
  corrupt : float;
  latency : Latency.t;
  epoch_len : float;
  retransmit_after : float;
  sync_rounds : int;
  flush_poll : float;
  seed : int;
  max_steps : int;
  max_pump_rounds : int;
  strict_delays : bool;
}

let default =
  {
    universe = 6;
    vars = 4;
    epochs = 1_000;
    window = 20;
    ops_per_epoch = 6;
    write_ratio = 0.6;
    churn_prob = 0.25;
    fault_prob = 0.15;
    min_live = 2;
    drop = 0.02;
    duplicate = 0.02;
    corrupt = 0.01;
    latency = Latency.Lognormal { mu = Float.log 10. -. 0.5; sigma = 1.0 };
    epoch_len = 200.;
    retransmit_after = 50.;
    sync_rounds = 2;
    flush_poll = 10.;
    seed = 1;
    max_steps = 50_000_000;
    max_pump_rounds = 64;
    strict_delays = true;
  }

type window_report = {
  w_index : int;
  w_end_epoch : int;
  w_time : float;
  w_writes : int;
  w_applies : int;
  w_delays : int;
  w_unnecessary : int;
  w_violations : int;
  w_lost : int;
  w_ghost_dots : int;
  w_forged_values : int;
  w_cross_window_dups : int;
  w_double_applies : int;
  w_pump_rounds : int;
  w_live : int;
  w_floor_total : int;
  w_reclaimed_slots : int;
  w_live_words : int;
  w_log_entries : int;
  w_dedup_entries : int;
  w_wire_bytes : int;
}

type outcome = {
  protocol_name : string;
  config : config;
  windows : window_report list;
  occupants : int;
  adoptions : int;
  rejoins : int;
  leaves : int;
  crashes : int;
  frees : int;
  max_generation : int;
  total_writes : int;
  total_applies : int;
  total_delays : int;
  unnecessary_delays : int;
  violations : int;
  lost : int;
  ghost_dots : int;
  forged_values : int;
  cross_window_dups : int;
  double_applies : int;
  ops_skipped_inactive : int;
  replayed_writes : int;
  stale_deliveries_dropped : int;
  chan_stale_quarantined : int;
  net_stale_dropped : int;
  net_nonmember_dropped : int;
  corrupt_dropped : int;
  retransmissions : int;
  duplicates_discarded : int;
  aborted_payloads : int;
  payloads_sent : int;
  frames_sent : int;
  wire_bytes_total : int;
  max_live_words : int;
  max_log_entries : int;
  max_dedup_entries : int;
  dedup_reclaimed : int;
  log_reclaimed : int;
  vec_width : int;
  digest : int;
  engine_steps : int;
  end_time : float;
  clean : bool;
}

let mix d x = (d * 1000003) lxor x

let run (type pt pm) ?(on_audit = fun _ _ -> ())
    (module P : Protocol.S with type t = pt and type msg = pm) cfg =
  if cfg.universe < 2 then invalid_arg "Soak.run: universe must be >= 2";
  if cfg.min_live < 2 || cfg.min_live > cfg.universe then
    invalid_arg "Soak.run: need 2 <= min_live <= universe";
  if cfg.window < 1 || cfg.epochs < 1 then
    invalid_arg "Soak.run: epochs and window must be positive";
  if cfg.vars < 1 then invalid_arg "Soak.run: vars must be positive";
  let universe = cfg.universe and m = cfg.vars in
  let protocol =
    (module P : Protocol.S with type t = pt and type msg = pm)
  in
  let engine = Engine.create () in
  let rng = Rng.create cfg.seed in
  let churn_rng = Rng.split rng in
  let fault_rng = Rng.split rng in
  let op_rng = Rng.split rng in
  let wire = Dsm_obs.Wire.create ~proto:P.name ~n:universe () in
  let network =
    Replica_host.network protocol ~engine ~rng ~n:universe
      ~latency:cfg.latency
      ~faults:
        {
          Network.drop = cfg.drop;
          duplicate = cfg.duplicate;
          corrupt = cfg.corrupt;
        }
      ~wire ()
  in
  let channel =
    Reliable_channel.create ~engine ~network
      ~retransmit_after:cfg.retransmit_after ~rng ()
  in
  let membership =
    Membership.create ~history_limit:64 ~universe
      ~initial:(List.init universe Fun.id)
      ()
  in
  (* commit-before-broadcast and the anti-entropy plane are
     {!Replica_host}'s, as in {!Churn_campaign}: every write is durable
     before its frames leave, so a crash never re-issues a dot and a
     rejoiner's durable vector is never behind what the group saw from
     it.  Committing after {e every} write (not on a timer) also keeps
     the recorded write counter in lock step with the protocol's, which
     the value-forgery monitor depends on.  Catch-up rounds are spaced
     one retransmission timeout apart. *)
  let host =
    Replica_host.create protocol ~engine ~network ~channel ~membership
      ~execution:(Execution.create ~n:universe ~m ())
      ~m ~width:universe
      ~initial:(fun id ->
        Some (P.create (Protocol.config ~n:universe ~m) ~me:id))
      ~sync_rounds:cfg.sync_rounds ~sync_every:cfg.retransmit_after
      ~metrics:(Dsm_obs.Metrics.null ())
  in
  let slots = host.Replica_host.slots in
  let sync_view () =
    Network.set_epoch network (Membership.epoch membership)
  in
  sync_view ();
  let nowf () = Sim_time.to_float (Engine.now engine) in
  (* the previous barrier's common Apply vector: everything at or below
     it has been audited, compacted out of logs, dedup tables and the
     retained execution, and — for retired occupants — reclaimed *)
  let floor = host.floor in
  let proto_of p = Replica_host.proto slots.(p) in
  let live p =
    Membership.is_active membership p
    && (not slots.(p).down)
    && slots.(p).proto <> None
  in
  let live_slots () =
    List.filter (fun p -> not slots.(p).down) (Membership.active membership)
  in
  (* counters *)
  let adoptions = ref 0 and rejoins = ref 0 and leaves = ref 0 in
  let crashes = ref 0 and frees = ref 0 in
  let ops_skipped = ref 0 in
  let total_writes = ref 0 in
  let dedup_reclaimed = ref 0 and log_reclaimed = ref 0 in
  let send_sync_request p = Replica_host.sync_request host slots.(p) in

  (* barrier snapshot: one live replica's image at the moment every
     live Apply vector was equal.  A new occupant of a recycled slot
     adopts from it — its inherited state is exactly the audited floor,
     so every apply it performs afterwards lands in the open window's
     execution through the normal receive path. *)
  let barrier_image = ref (P.snapshot (proto_of 0)) in

  (* ---- churn actions --------------------------------------------- *)
  let do_crash p =
    Membership.crash membership ~at:(Engine.now engine) p;
    sync_view ();
    incr crashes;
    Replica_host.crash host slots.(p)
  in
  let do_rejoin p =
    Membership.join membership ~at:(Engine.now engine) p;
    sync_view ();
    Replica_host.bump_incarnation host p;
    slots.(p).down <- false;
    ignore (Replica_host.restore host slots.(p));
    incr rejoins;
    Replica_host.catch_up host slots.(p);
    (* survivors must also ask around: the rejoiner's pre-crash
       broadcasts may have died quarantined on the wire and only its
       durable log can re-supply them *)
    Replica_host.group_sync host ~rounds:1 ~except:p ()
  in
  let do_leave p =
    let slot = slots.(p) in
    slot.leaving <- true;
    let depart () =
      Replica_host.commit host slot;
      let final = V.get0 (P.applied_vector (proto_of p)) p in
      Membership.leave membership ~at:(Engine.now engine) ~final p;
      sync_view ();
      Replica_host.abort_peer host p;
      (* retire the occupant's runtime state immediately: the slot's
         protocol image, durable checkpoint and log die with it — the
         group's logs carry its writes, and the ledger its final *)
      slot.proto <- None;
      Replica_host.reset_log slot;
      slot.leaving <- false;
      incr leaves
    in
    let rec poll tries =
      if tries > 100_000 then
        failwith (Printf.sprintf "Soak: p%d leave flush did not drain" (p + 1))
      else if slot.down then slot.leaving <- false
      else if Reliable_channel.unacked_from channel ~peer:p = 0 then depart ()
      else
        Engine.schedule_after engine cfg.flush_poll (fun () -> poll (tries + 1))
    in
    poll 0
  in
  let do_adopt p =
    let gen = Membership.generation membership p in
    Membership.join membership ~at:(Engine.now engine) p;
    sync_view ();
    let t =
      P.adopt (Protocol.config ~n:universe ~m) ~me:p ~gen
        ~sponsor:!barrier_image
    in
    let slot = slots.(p) in
    slot.proto <- Some t;
    slot.down <- false;
    slot.leaving <- false;
    Replica_host.reset_log slot;
    slot.write_seq <- V.get0 (P.applied_vector t) p;
    incr adoptions;
    Replica_host.commit host slot;
    Replica_host.catch_up host slot
  in
  let churn_action () =
    let active = Membership.active membership in
    let up = List.filter (fun p -> not slots.(p).down) active in
    let stable = List.filter (fun p -> not slots.(p).leaving) up in
    let downs =
      List.filter
        (fun p -> slots.(p).down && Membership.is_member membership p)
        (List.init universe Fun.id)
    in
    let free_reuse =
      List.filter
        (fun p ->
          match Membership.state membership p with
          | Membership.Free { gen } -> gen > 0
          | _ -> false)
        (List.init universe Fun.id)
    in
    let can_shrink = List.length stable > cfg.min_live in
    let choices = ref [] in
    if can_shrink then choices := `Leave :: `Crash :: !choices;
    if downs <> [] then choices := `Rejoin :: !choices;
    if free_reuse <> [] then choices := `Adopt :: !choices;
    match !choices with
    | [] -> ()
    | cs -> (
        let pick l = List.nth l (Rng.int churn_rng (List.length l)) in
        match pick cs with
        | `Leave -> do_leave (pick stable)
        | `Crash -> do_crash (pick stable)
        | `Rejoin -> do_rejoin (pick downs)
        | `Adopt -> do_adopt (pick free_reuse))
  in
  let fault_action () =
    let up = live_slots () in
    match up with
    | a :: b :: _ when List.length up >= 2 ->
        let arr = Array.of_list up in
        let src = Rng.choice fault_rng arr in
        let dst = Rng.choice fault_rng arr in
        let src, dst = if src = dst then (a, b) else (src, dst) in
        let dur =
          Rng.uniform fault_rng (0.5 *. cfg.epoch_len) (2. *. cfg.epoch_len)
        in
        if Rng.bool fault_rng then begin
          Network.cut_oneway network ~src ~dst;
          Engine.schedule_after engine dur (fun () ->
              Network.heal_oneway network ~src ~dst)
        end
        else begin
          Network.cut network ~a:src ~b:dst;
          Engine.schedule_after engine dur (fun () ->
              Network.heal network ~a:src ~b:dst)
        end
    | _ -> ()
  in

  (* ---- workload ---------------------------------------------------- *)
  let schedule_epoch_ops ~t0 =
    for _ = 1 to cfg.ops_per_epoch do
      let p = Rng.int op_rng universe in
      let at = t0 +. Rng.uniform op_rng 0. cfg.epoch_len in
      let is_write = Rng.bernoulli op_rng cfg.write_ratio in
      let var = Rng.int op_rng m in
      Engine.schedule_at engine (Sim_time.of_float at) (fun () ->
          let slot = slots.(p) in
          if (not (live p)) || slot.leaving then incr ops_skipped
          else if is_write then begin
            slot.write_seq <- slot.write_seq + 1;
            incr total_writes;
            let value = Sim_run.write_value ~proc:p ~seq:slot.write_seq in
            ignore (Replica_host.write host slot ~var ~value);
            Replica_host.commit host slot
          end
          else ignore (Replica_host.read host slot ~var))
    done
  in

  let drain phase =
    Replica_host.drain engine ~max_steps:cfg.max_steps ("Soak: " ^ phase)
  in

  (* ---- the convergence barrier ------------------------------------ *)
  let windows = ref [] in
  let window_index = ref 0 in
  let digest = ref cfg.seed in
  let ghost_dots = ref 0 and forged_values = ref 0 in
  let cross_window_dups = ref 0 and double_applies = ref 0 in
  let total_applies = ref 0 and total_delays = ref 0 in
  let unnecessary_delays = ref 0 and violations = ref 0 and lost = ref 0 in
  let max_live_words = ref 0 and max_log_entries = ref 0 in
  let max_dedup_entries = ref 0 and max_generation = ref 0 in

  (* window monitors, run on the closing window's execution before it
     is discarded. The value-forgery check exploits that the workload
     derives every written value from the dot that will carry it: a
     stale generation slipping past the quarantine cannot forge the
     right value for the slot's current occupant. *)
  let scan_window exec =
    let applied = Hashtbl.create 1024 in
    let g = ref 0 and f = ref 0 and x = ref 0 and d = ref 0 in
    let w = ref 0 and a = ref 0 in
    Execution.iter
      (fun (ev : Execution.event) ->
        match ev.Execution.kind with
        | Execution.Send { dot; var = _; value } ->
            incr w;
            if
              value
              <> Sim_run.write_value ~proc:(Dot.replica dot) ~seq:(Dot.seq dot)
            then incr f
        | Execution.Apply { dot; var = _; value; _ } ->
            incr a;
            let slot = Dot.replica dot and seq = Dot.seq dot in
            if value <> Sim_run.write_value ~proc:slot ~seq then incr f;
            if seq <= floor.(slot) then incr x;
            if Hashtbl.mem applied (ev.Execution.proc, dot) then incr d
            else Hashtbl.add applied (ev.Execution.proc, dot) ();
            (match Membership.dot_gen membership ~slot ~seq with
            | Some gen when gen <> Dot.gen dot -> incr g
            | _ -> ())
        | Execution.Receipt _ | Execution.Blocked _ | Execution.Skip _
        | Execution.Return _ ->
            ())
      exec;
    (!w, !a, !g, !f, !x, !d)
  in
  (* ghost-dot scan over live stores: after reclamation no replica may
     hold a value attributed to a dot beyond the cluster floor, from a
     generation the ledger does not attribute, or with a value the
     dot's occupant never wrote *)
  let scan_stores common =
    let g = ref 0 and f = ref 0 in
    List.iter
      (fun p ->
        for var = 0 to m - 1 do
          match P.read (proto_of p) ~var with
          | _, None -> ()
          | value, Some dot ->
              let slot = Dot.replica dot and seq = Dot.seq dot in
              if seq > common.(slot) then incr g;
              (match Membership.dot_gen membership ~slot ~seq with
              | Some gen when gen <> Dot.gen dot -> incr g
              | _ -> ());
              (match value with
              | Dsm_memory.Operation.Val v ->
                  if v <> Sim_run.write_value ~proc:slot ~seq then incr f
              | Dsm_memory.Operation.Bot -> incr g)
        done)
      (live_slots ());
    (!g, !f)
  in
  let barrier ~end_epoch =
    incr window_index;
    (* 1. globally quiescent: heal every link, revive every corpse *)
    Network.heal_all network;
    List.iter
      (fun p ->
        if slots.(p).down && Membership.is_member membership p then
          do_rejoin p)
      (List.init universe Fun.id);
    drain "barrier drain";
    (* 2. anti-entropy pump to a common Apply vector.  Stores may
       legitimately differ (concurrent writes land in per-replica
       apply order); vector equality is the fixpoint that matters —
       every live replica has applied exactly the same write set. *)
    let vectors_equal () =
      match live_slots () with
      | [] | [ _ ] -> true
      | first :: rest ->
          let v0 = V.to_array (P.applied_vector (proto_of first)) in
          List.for_all
            (fun p -> V.to_array (P.applied_vector (proto_of p)) = v0)
            rest
    in
    let rec pump round =
      if vectors_equal () then round
      else if round >= cfg.max_pump_rounds then
        failwith
          (Printf.sprintf
             "Soak: barrier %d did not converge within %d sync rounds"
             !window_index cfg.max_pump_rounds)
      else begin
        List.iter send_sync_request (live_slots ());
        drain "barrier pump";
        pump (round + 1)
      end
    in
    let pump_rounds = pump 0 in
    let lv = live_slots () in
    List.iter (fun p -> Replica_host.commit host slots.(p)) lv;
    let common =
      match lv with
      | [] -> Array.copy floor
      | p :: _ -> V.to_array (P.applied_vector (proto_of p))
    in
    (* 3. audit the closing window against the floor *)
    let w_writes, w_applies, wg, wf, wx, wd = scan_window host.execution in
    let sg, sf = scan_stores common in
    let report =
      Checker.check
        ~expected:(fun ~proc ~dot:_ -> Membership.is_active membership proc)
        ~floor:(V.of_array floor) host.execution
    in
    on_audit host.execution report;
    let w_violations = List.length report.Checker.violations in
    let w_lost = List.length report.Checker.lost in
    ghost_dots := !ghost_dots + wg + sg;
    forged_values := !forged_values + wf + sf;
    cross_window_dups := !cross_window_dups + wx;
    double_applies := !double_applies + wd;
    total_applies := !total_applies + report.Checker.total_applies;
    total_delays := !total_delays + report.Checker.total_delays;
    unnecessary_delays :=
      !unnecessary_delays + report.Checker.unnecessary_delays;
    violations := !violations + w_violations;
    lost := !lost + w_lost;
    (* 4. reclamation: every retired occupant whose final write the
       whole cluster has applied loses its slot to the next generation;
       logs, dedup tables and the retained execution compact to the new
       floor *)
    let reclaimed = ref 0 in
    for p = 0 to universe - 1 do
      match Membership.state membership p with
      | Membership.Left { final; _ } when common.(p) >= final ->
          Membership.free membership ~at:(Engine.now engine) p;
          Network.bump_generation network p;
          Reliable_channel.bump_generation channel p;
          incr reclaimed;
          incr frees
      | _ -> ()
    done;
    sync_view ();
    for p = 0 to universe - 1 do
      max_generation := max !max_generation (Membership.generation membership p)
    done;
    let log_entries = ref 0 and log_peak = ref 0 in
    Array.iter
      (fun (slot : (pt, pm) Replica_host.slot) ->
        if slot.proto <> None then begin
          log_peak := !log_peak + Hashtbl.length slot.log;
          log_reclaimed :=
            !log_reclaimed + Replica_host.reclaim_log slot ~below:common;
          log_entries := !log_entries + Hashtbl.length slot.log
        end)
      slots;
    dedup_reclaimed := !dedup_reclaimed + Reliable_channel.gc_dedup channel;
    let dedup_now = Reliable_channel.dedup_entries channel in
    (* 5. measure, refloor, reopen *)
    Gc.compact ();
    let live_words = (Gc.stat ()).Gc.live_words in
    max_live_words := max !max_live_words live_words;
    max_log_entries := max !max_log_entries !log_peak;
    max_dedup_entries := max !max_dedup_entries dedup_now;
    Array.blit common 0 floor 0 universe;
    barrier_image :=
      (match lv with p :: _ -> P.snapshot (proto_of p) | [] -> !barrier_image);
    host.execution <- Execution.create ~n:universe ~m ();
    Array.iter (fun d -> digest := mix !digest d) common;
    digest := mix !digest (Membership.epoch membership);
    digest := mix !digest w_writes;
    digest := mix !digest w_applies;
    digest := mix !digest pump_rounds;
    let wr =
      {
        w_index = !window_index;
        w_end_epoch = end_epoch;
        w_time = nowf ();
        w_writes;
        w_applies;
        w_delays = report.Checker.total_delays;
        w_unnecessary = report.Checker.unnecessary_delays;
        w_violations;
        w_lost;
        w_ghost_dots = wg + sg;
        w_forged_values = wf + sf;
        w_cross_window_dups = wx;
        w_double_applies = wd;
        w_pump_rounds = pump_rounds;
        w_live = List.length lv;
        w_floor_total = Array.fold_left ( + ) 0 floor;
        w_reclaimed_slots = !reclaimed;
        w_live_words = live_words;
        w_log_entries = !log_entries;
        w_dedup_entries = dedup_now;
        w_wire_bytes = Dsm_obs.Wire.total_bytes wire;
      }
    in
    windows := wr :: !windows
  in

  (* ---- epoch loop -------------------------------------------------- *)
  for epoch = 1 to cfg.epochs do
    let t0 = nowf () in
    let t_end = t0 +. cfg.epoch_len in
    if Rng.bernoulli churn_rng cfg.churn_prob then churn_action ();
    if Rng.bernoulli fault_rng cfg.fault_prob then fault_action ();
    schedule_epoch_ops ~t0;
    (* an event at the horizon so the clock always lands on it, open
       link cuts notwithstanding (a full drain here could rearm
       retransmission timers forever) *)
    Engine.schedule_at engine (Sim_time.of_float t_end) (fun () -> ());
    (match
       Engine.run ~max_steps:cfg.max_steps
         ~until:(Sim_time.of_float t_end) engine
     with
    | Engine.Drained | Engine.Hit_time_limit -> ()
    | Engine.Hit_step_limit ->
        failwith
          (Printf.sprintf "Soak: epoch %d exceeded %d events" epoch
             cfg.max_steps));
    if epoch mod cfg.window = 0 || epoch = cfg.epochs then
      barrier ~end_epoch:epoch
  done;

  (* every adoption starts one lifetime; the universe's first occupants
     are the rest (an adoption is also a [Joined] transition, so the
     membership summary's joins must not be added again) *)
  let occupants = universe + !adoptions in
  let clean =
    !violations = 0 && !lost = 0 && !ghost_dots = 0 && !forged_values = 0
    && !cross_window_dups = 0 && !double_applies = 0
    && ((not cfg.strict_delays) || !unnecessary_delays = 0)
  in
  {
    protocol_name = P.name;
    config = cfg;
    windows = List.rev !windows;
    occupants;
    adoptions = !adoptions;
    rejoins = !rejoins;
    leaves = !leaves;
    crashes = !crashes;
    frees = !frees;
    max_generation = !max_generation;
    total_writes = !total_writes;
    total_applies = !total_applies;
    total_delays = !total_delays;
    unnecessary_delays = !unnecessary_delays;
    violations = !violations;
    lost = !lost;
    ghost_dots = !ghost_dots;
    forged_values = !forged_values;
    cross_window_dups = !cross_window_dups;
    double_applies = !double_applies;
    ops_skipped_inactive = !ops_skipped;
    replayed_writes = host.replayed_writes;
    stale_deliveries_dropped = host.stale_dropped;
    chan_stale_quarantined = Reliable_channel.stale_quarantined channel;
    net_stale_dropped = Network.messages_stale_dropped network;
    net_nonmember_dropped = Network.messages_nonmember_dropped network;
    corrupt_dropped = Reliable_channel.corrupt_dropped channel;
    retransmissions = Reliable_channel.retransmissions channel;
    duplicates_discarded = Reliable_channel.duplicates_discarded channel;
    aborted_payloads = host.aborted;
    payloads_sent = Reliable_channel.payloads_sent channel;
    frames_sent = Network.messages_sent network;
    wire_bytes_total = Dsm_obs.Wire.total_bytes wire;
    max_live_words = !max_live_words;
    max_log_entries = !max_log_entries;
    max_dedup_entries = !max_dedup_entries;
    dedup_reclaimed = !dedup_reclaimed;
    log_reclaimed = !log_reclaimed;
    vec_width = universe;
    digest = !digest;
    engine_steps = Engine.steps_executed engine;
    end_time = nowf ();
    clean;
  }

(* ---- reporting ----------------------------------------------------- *)

let high_water_table o =
  (* the endurance claim in one table: state that would grow without
     bound under naive slot management, against the bound reclamation
     holds it to *)
  let early, late =
    match (o.windows, List.rev o.windows) with
    | w0 :: _, wn :: _ -> (Some w0, Some wn)
    | _ -> (None, None)
  in
  let row name value = (name, value) in
  let of_w f = function Some w -> f w | None -> 0 in
  [
    row "occupant lifetimes" o.occupants;
    row "slot reuses (adoptions)" o.adoptions;
    row "max generation reached" o.max_generation;
    row "wire vector width" o.vec_width;
    row "live words (first window)" (of_w (fun w -> w.w_live_words) early);
    row "live words (last window)" (of_w (fun w -> w.w_live_words) late);
    row "live words high-water" o.max_live_words;
    row "log entries high-water" o.max_log_entries;
    row "dedup entries high-water" o.max_dedup_entries;
    row "log entries reclaimed" o.log_reclaimed;
    row "dedup entries reclaimed" o.dedup_reclaimed;
  ]

let to_json o =
  let num n = Json.Num (float_of_int n) in
  let window w =
    Json.Obj
      [
        ("window", num w.w_index);
        ("end_epoch", num w.w_end_epoch);
        ("time", Json.Num w.w_time);
        ("writes", num w.w_writes);
        ("applies", num w.w_applies);
        ("delays", num w.w_delays);
        ("unnecessary_delays", num w.w_unnecessary);
        ("violations", num w.w_violations);
        ("lost", num w.w_lost);
        ("ghost_dots", num w.w_ghost_dots);
        ("forged_values", num w.w_forged_values);
        ("cross_window_dups", num w.w_cross_window_dups);
        ("double_applies", num w.w_double_applies);
        ("pump_rounds", num w.w_pump_rounds);
        ("live", num w.w_live);
        ("floor_total", num w.w_floor_total);
        ("reclaimed_slots", num w.w_reclaimed_slots);
        ("live_words", num w.w_live_words);
        ("log_entries", num w.w_log_entries);
        ("dedup_entries", num w.w_dedup_entries);
        ("wire_bytes", num w.w_wire_bytes);
      ]
  in
  (* windows are summarized by quartile samples plus extrema — 500
     windows of a 10k-epoch run would swamp the artifact otherwise *)
  let ws = Array.of_list o.windows in
  let sampled =
    let n = Array.length ws in
    if n <= 12 then Array.to_list ws
    else
      List.filter_map
        (fun i -> if i >= 0 && i < n then Some ws.(i) else None)
        [ 0; n / 4; n / 2; 3 * n / 4; n - 2; n - 1 ]
  in
  Json.Obj
    [
      ("schema", Json.Str "causal-dsm-bench/v1");
      ("section", Json.Str "soak");
      ("protocol", Json.Str o.protocol_name);
      ( "config",
        Json.Obj
          [
            ("universe", num o.config.universe);
            ("vars", num o.config.vars);
            ("epochs", num o.config.epochs);
            ("window", num o.config.window);
            ("ops_per_epoch", num o.config.ops_per_epoch);
            ("seed", num o.config.seed);
            ("churn_prob", Json.Num o.config.churn_prob);
            ("fault_prob", Json.Num o.config.fault_prob);
            ("drop", Json.Num o.config.drop);
            ("duplicate", Json.Num o.config.duplicate);
            ("corrupt", Json.Num o.config.corrupt);
          ] );
      ("occupants", num o.occupants);
      ("adoptions", num o.adoptions);
      ("rejoins", num o.rejoins);
      ("leaves", num o.leaves);
      ("crashes", num o.crashes);
      ("frees", num o.frees);
      ("max_generation", num o.max_generation);
      ("total_writes", num o.total_writes);
      ("total_applies", num o.total_applies);
      ("total_delays", num o.total_delays);
      ("unnecessary_delays", num o.unnecessary_delays);
      ("violations", num o.violations);
      ("lost", num o.lost);
      ("ghost_dots", num o.ghost_dots);
      ("forged_values", num o.forged_values);
      ("cross_window_dups", num o.cross_window_dups);
      ("double_applies", num o.double_applies);
      ("replayed_writes", num o.replayed_writes);
      ("stale_quarantined", num o.chan_stale_quarantined);
      ("net_stale_dropped", num o.net_stale_dropped);
      ("retransmissions", num o.retransmissions);
      ("wire_total_bytes", num o.wire_bytes_total);
      ("vec_width", num o.vec_width);
      ("max_live_words", num o.max_live_words);
      ("max_log_entries", num o.max_log_entries);
      ("max_dedup_entries", num o.max_dedup_entries);
      ("dedup_reclaimed", num o.dedup_reclaimed);
      ("log_reclaimed", num o.log_reclaimed);
      (* as a string: the 63-bit fingerprint does not survive the
         round-trip through a JSON double *)
      ("digest", Json.Str (string_of_int o.digest));
      ("engine_steps", num o.engine_steps);
      ("end_time", Json.Num o.end_time);
      ("clean", Json.Bool o.clean);
      ("windows", Json.Arr (List.map window sampled));
    ]

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s soak: %d epochs / %d windows, %d occupant lifetimes over %d \
     slots (%d adoptions, %d rejoins, %d leaves, %d crashes, %d frees, max \
     gen %d)@,\
     writes=%d applies=%d delays=%d (unnecessary=%d) violations=%d lost=%d@,\
     ghosts=%d forged=%d cross-window dups=%d double applies=%d@,\
     quarantined=%d stale-dropped=%d nonmember-dropped=%d replayed=%d@,\
     reclaimed: %d log entries, %d dedup entries; high-water: %d log / %d \
     dedup / %d live words; vec width=%d@,\
     digest=%d steps=%d t_end=%.0f clean=%b@]" o.protocol_name
    o.config.epochs (List.length o.windows) o.occupants o.config.universe
    o.adoptions o.rejoins o.leaves o.crashes o.frees o.max_generation
    o.total_writes o.total_applies o.total_delays o.unnecessary_delays
    o.violations o.lost o.ghost_dots o.forged_values o.cross_window_dups
    o.double_applies o.chan_stale_quarantined o.net_stale_dropped
    o.net_nonmember_dropped o.replayed_writes o.log_reclaimed
    o.dedup_reclaimed o.max_log_entries o.max_dedup_entries o.max_live_words
    o.vec_width o.digest o.engine_steps o.end_time o.clean
