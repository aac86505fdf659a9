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

(* soak wire envelope: protocol traffic plus the anti-entropy plane.
   Unlike {!Churn_campaign} there is no state-transfer message — a new
   occupant of a recycled slot bootstraps from the barrier snapshot
   ({!Protocol.S.adopt}) and pulls the open window's writes through the
   same sync path every rejoiner uses. *)
type 'msg wire =
  | Proto of 'msg
  | Sync_request of { vec : int array }
  | Sync_reply of { vec : int array; writes : 'msg list }

let wire_of_env msg_frame env =
  match env with
  | Proto m -> msg_frame m
  | Sync_request { vec } ->
      {
        Dsm_obs.Wire.kind = "sync";
        scalars = 0;
        dots = 0;
        vectors = [ V.of_array vec ];
      }
  | Sync_reply { vec; writes } ->
      List.fold_left
        (fun acc m ->
          let f = msg_frame m in
          {
            acc with
            Dsm_obs.Wire.scalars =
              acc.Dsm_obs.Wire.scalars + f.Dsm_obs.Wire.scalars;
            dots = acc.Dsm_obs.Wire.dots + f.Dsm_obs.Wire.dots;
            vectors = acc.Dsm_obs.Wire.vectors @ f.Dsm_obs.Wire.vectors;
          })
        {
          Dsm_obs.Wire.kind = "sync";
          scalars = 1;
          dots = 0;
          vectors = [ V.of_array vec ];
        }
        writes

let mix d x = (d * 1000003) lxor x

let run (type pt pm)
    (module P : Protocol.S with type t = pt and type msg = pm) cfg =
  if cfg.universe < 2 then invalid_arg "Soak.run: universe must be >= 2";
  if cfg.min_live < 2 || cfg.min_live > cfg.universe then
    invalid_arg "Soak.run: need 2 <= min_live <= universe";
  if cfg.window < 1 || cfg.epochs < 1 then
    invalid_arg "Soak.run: epochs and window must be positive";
  if cfg.vars < 1 then invalid_arg "Soak.run: vars must be positive";
  let universe = cfg.universe and m = cfg.vars in
  let engine = Engine.create () in
  let rng = Rng.create cfg.seed in
  let churn_rng = Rng.split rng in
  let fault_rng = Rng.split rng in
  let op_rng = Rng.split rng in
  let wire = Dsm_obs.Wire.create ~proto:P.name ~n:universe () in
  let measure = Reliable_channel.wire_frame (wire_of_env P.msg_frame) in
  let faults =
    {
      Network.drop = cfg.drop;
      duplicate = cfg.duplicate;
      corrupt = cfg.corrupt;
    }
  in
  let network =
    Network.create ~engine ~rng ~n:universe
      ~latency:(fun ~src:_ ~dst:_ -> cfg.latency)
      ~faults ~mangle:Reliable_channel.corrupt_frame ~wire ~measure
      ~sizer:(fun f -> Dsm_obs.Wire.frame_bytes (measure f))
      ()
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
  Network.set_membership network (Membership.is_member membership);
  let sync_view () =
    Network.set_epoch network (Membership.epoch membership)
  in
  sync_view ();
  let nowf () = Sim_time.to_float (Engine.now engine) in
  (* the previous barrier's common Apply vector: everything at or below
     it has been audited, compacted out of logs, dedup tables and the
     retained execution, and — for retired occupants — reclaimed *)
  let floor = Array.make universe 0 in
  let execution = ref (Execution.create ~n:universe ~m ()) in
  let nodes_proto : pt option array =
    Array.init universe (fun id ->
        Some (P.create (Protocol.config ~n:universe ~m) ~me:id))
  in
  let down = Array.make universe false in
  let leaving = Array.make universe false in
  let durable : (string * string) option array = Array.make universe None in
  let logs : (Dot.t, pm) Hashtbl.t array =
    Array.init universe (fun _ -> Hashtbl.create 256)
  in
  let staged : (Sim_time.t * Execution.kind) list array =
    Array.make universe []
  in
  let write_seq = Array.make universe 0 in
  let proto_of p =
    match nodes_proto.(p) with
    | Some t -> t
    | None ->
        invalid_arg
          (Printf.sprintf "Soak: slot %d has no protocol state" p)
  in
  let live p =
    Membership.is_active membership p && (not down.(p)) && nodes_proto.(p) <> None
  in
  let live_slots () = List.filter (fun p -> not down.(p)) (Membership.active membership) in
  (* counters *)
  let adoptions = ref 0 and rejoins = ref 0 and leaves = ref 0 in
  let crashes = ref 0 and frees = ref 0 in
  let ops_skipped = ref 0 and replayed = ref 0 and stale_dropped = ref 0 in
  let aborted = ref 0 in
  let total_writes = ref 0 in
  let dedup_reclaimed = ref 0 and log_reclaimed = ref 0 in

  let record p kind = staged.(p) <- (Engine.now engine, kind) :: staged.(p) in
  (* commit-before-broadcast, after {!Churn_campaign}: every write is
     durable before its frames leave, so a crash never re-issues a dot
     and a rejoiner's durable vector is never behind what the group saw
     from it.  Committing after {e every} write (not on a timer) also
     keeps the recorded write counter in lock step with the protocol's,
     which the value-forgery monitor depends on. *)
  let commit p =
    List.iter
      (fun (time, kind) -> Execution.record !execution ~proc:p ~time kind)
      (List.rev staged.(p));
    staged.(p) <- [];
    let image = P.snapshot (proto_of p) in
    let log_image = Protocol.Snapshot.encode logs.(p) in
    durable.(p) <- Some (image, log_image)
  in
  let log_outbound p msg =
    List.iter
      (fun (dot, _, _) -> Hashtbl.replace logs.(p) dot msg)
      (P.msg_writes msg)
  in
  let covered p dot =
    let v = P.applied_vector (proto_of p) in
    V.get0 v (Dot.replica dot) >= Dot.seq dot
  in
  let ch_send ~src ~dst msg =
    if Membership.is_active membership dst then
      Reliable_channel.send channel ~src ~dst msg
  in
  let ch_broadcast ~src msg =
    List.iter
      (fun dst -> if dst <> src then ch_send ~src ~dst msg)
      (Membership.active membership)
  in
  let rec process p (eff : pm Protocol.effects) =
    List.iter (fun dot -> record p (Execution.Skip { dot })) eff.skipped;
    List.iter
      (fun (a : Protocol.apply_record) ->
        record p
          (Execution.Apply
             {
               dot = a.adot;
               var = a.avar;
               value = a.avalue;
               delayed = a.afrom_buffer;
             }))
      eff.applied;
    List.iter
      (fun outbound ->
        let msg =
          match outbound with
          | Protocol.Broadcast msg -> msg
          | Protocol.Unicast { msg; _ } -> msg
        in
        log_outbound p msg;
        List.iter
          (fun (dot, var, value) -> record p (Execution.Send { dot; var; value }))
          (P.msg_writes msg);
        match outbound with
        | Protocol.Broadcast msg -> ch_broadcast ~src:p (Proto msg)
        | Protocol.Unicast { dst; msg } -> ch_send ~src:p ~dst (Proto msg))
      eff.to_send
  and deliver_proto p ~src msg =
    log_outbound p msg;
    let writes = P.msg_writes msg in
    if writes <> [] && List.for_all (fun (dot, _, _) -> covered p dot) writes
    then incr stale_dropped
    else begin
      List.iter
        (fun (dot, _, _) -> record p (Execution.Receipt { dot; src }))
        writes;
      let eff = P.receive (proto_of p) ~src msg in
      (match writes with
      | [] -> ()
      | _ when eff.Protocol.applied = [] && eff.Protocol.skipped = [] -> (
          match P.waiting_for (proto_of p) ~src msg with
          | Some waiting_for ->
              List.iter
                (fun (dot, _, _) ->
                  record p (Execution.Blocked { dot; waiting_for }))
                writes
          | None -> ())
      | _ -> ());
      process p eff
    end
  in
  let send_sync_request p =
    let vec = V.to_array (P.applied_vector (proto_of p)) in
    List.iter
      (fun dst ->
        if dst <> p then
          Reliable_channel.send channel ~src:p ~dst (Sync_request { vec }))
      (Membership.active membership)
  in
  (* the writes this node holds beyond [vec]; components at or below
     the audit floor never enter the gap — they were compacted out of
     every log at the barrier, and every durable vector (commit after
     each write, forced rejoin before each barrier) is at or above the
     floor, so no requester can ask for them *)
  let collect_since p ~vec =
    let mine = V.to_array (P.applied_vector (proto_of p)) in
    let out = ref [] in
    for u = Array.length mine - 1 downto 0 do
      let have = max (if u < Array.length vec then vec.(u) else 0) floor.(u) in
      for s = mine.(u) downto have + 1 do
        (* the log is keyed by full dots: under slot reuse the same
           (slot, seq) coordinate pair always denotes one write, but
           its dot carries the issuing occupant's generation — resolve
           it through the retirement ledger before the lookup *)
        let gen =
          match Membership.dot_gen membership ~slot:u ~seq:s with
          | Some g -> g
          | None -> 0
        in
        let dot = Dot.make_gen ~replica:u ~gen ~seq:s in
        match Hashtbl.find_opt logs.(p) dot with
        | Some msg -> out := msg :: !out
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Soak: %s applied %s but p%d's durable log cannot \
                  re-supply it (mine=[%s] vec=[%s] floor=[%s])"
                 P.name (Dot.to_string dot) (p + 1)
                 (String.concat ";" (Array.to_list (Array.map string_of_int mine)))
                 (String.concat ";" (Array.to_list (Array.map string_of_int vec)))
                 (String.concat ";"
                    (Array.to_list (Array.map string_of_int floor))))
      done
    done;
    (mine, !out)
  in
  let serve_sync p ~peer ~vec =
    let mine, out = collect_since p ~vec in
    ch_send ~src:p ~dst:peer (Sync_reply { vec = mine; writes = out })
  in
  let issuer_of msg =
    match P.msg_writes msg with
    | (dot, _, _) :: _ -> Dot.replica dot
    | [] -> invalid_arg "Soak: control message in the anti-entropy log"
  in
  let absorb_sync p writes =
    List.iter
      (fun msg ->
        let fresh =
          List.exists (fun (dot, _, _) -> not (covered p dot)) (P.msg_writes msg)
        in
        if fresh then begin
          incr replayed;
          deliver_proto p ~src:(issuer_of msg) msg
        end)
      writes
  in
  for dst = 0 to universe - 1 do
    Reliable_channel.set_handler channel dst (fun ~src ~at:_ w ->
        if (not down.(dst)) && nodes_proto.(dst) <> None then
          match w with
          | Proto msg -> deliver_proto dst ~src msg
          | Sync_request { vec } -> serve_sync dst ~peer:src ~vec
          | Sync_reply { vec = _; writes } -> absorb_sync dst writes)
  done;
  let schedule_catch_up p =
    send_sync_request p;
    for k = 1 to cfg.sync_rounds - 1 do
      Engine.schedule_after engine (float_of_int k *. cfg.retransmit_after)
        (fun () -> if live p then send_sync_request p)
    done
  in

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
    down.(p) <- true;
    incr crashes;
    staged.(p) <- [];
    Network.mark_crashed network p;
    aborted := !aborted + Reliable_channel.abort_peer channel ~peer:p
  in
  let do_rejoin p =
    Membership.join membership ~at:(Engine.now engine) p;
    sync_view ();
    Network.bump_incarnation network p;
    Reliable_channel.bump_incarnation channel p;
    Network.mark_recovered network p;
    down.(p) <- false;
    (match durable.(p) with
    | Some (image, log_image) ->
        let t = P.restore (Protocol.config ~n:universe ~m) ~me:p image in
        nodes_proto.(p) <- Some t;
        logs.(p) <- Protocol.Snapshot.decode log_image
    | None ->
        (* crashed before its first commit in this occupancy *)
        nodes_proto.(p) <-
          Some (P.create (Protocol.config ~n:universe ~m) ~me:p));
    incr rejoins;
    schedule_catch_up p;
    (* survivors must also ask around: the rejoiner's pre-crash
       broadcasts may have died quarantined on the wire and only its
       durable log can re-supply them *)
    Engine.schedule_after engine cfg.retransmit_after (fun () ->
        List.iter (fun q -> if q <> p then send_sync_request q) (live_slots ()))
  in
  let do_leave p =
    leaving.(p) <- true;
    let depart () =
      commit p;
      let final = V.get0 (P.applied_vector (proto_of p)) p in
      Membership.leave membership ~at:(Engine.now engine) ~final p;
      sync_view ();
      aborted := !aborted + Reliable_channel.abort_peer channel ~peer:p;
      (* retire the occupant's runtime state immediately: the slot's
         protocol image, durable checkpoint and log die with it — the
         group's logs carry its writes, and the ledger its final *)
      nodes_proto.(p) <- None;
      durable.(p) <- None;
      logs.(p) <- Hashtbl.create 16;
      leaving.(p) <- false;
      incr leaves
    in
    let rec poll tries =
      if tries > 100_000 then
        failwith (Printf.sprintf "Soak: p%d leave flush did not drain" (p + 1))
      else if down.(p) then leaving.(p) <- false
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
    nodes_proto.(p) <- Some t;
    down.(p) <- false;
    leaving.(p) <- false;
    logs.(p) <- Hashtbl.create 64;
    write_seq.(p) <- V.get0 (P.applied_vector t) p;
    incr adoptions;
    commit p;
    schedule_catch_up p
  in
  let churn_action () =
    let active = Membership.active membership in
    let up = List.filter (fun p -> not down.(p)) active in
    let stable = List.filter (fun p -> not leaving.(p)) up in
    let downs =
      List.filter
        (fun p -> down.(p) && Membership.is_member membership p)
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
    let up = List.filter (fun p -> not down.(p)) (Membership.active membership) in
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
          if (not (live p)) || leaving.(p) then incr ops_skipped
          else if is_write then begin
            write_seq.(p) <- write_seq.(p) + 1;
            incr total_writes;
            let value = Sim_run.write_value ~proc:p ~seq:write_seq.(p) in
            let _, eff = P.write (proto_of p) ~var ~value in
            process p eff;
            commit p
          end
          else begin
            let value, read_from = P.read (proto_of p) ~var in
            record p (Execution.Return { var; value; read_from })
          end)
    done
  in

  let drain phase =
    match Engine.run ~max_steps:cfg.max_steps engine with
    | Engine.Drained -> ()
    | Engine.Hit_step_limit ->
        failwith
          (Printf.sprintf "Soak: %s did not quiesce within %d events" phase
             cfg.max_steps)
    | Engine.Hit_time_limit -> assert false
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
    List.iter
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
      (Execution.events exec);
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
        if down.(p) && Membership.is_member membership p then do_rejoin p)
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
    List.iter commit lv;
    let common =
      match lv with
      | [] -> Array.copy floor
      | p :: _ -> V.to_array (P.applied_vector (proto_of p))
    in
    (* 3. audit the closing window against the floor *)
    let w_writes, w_applies, wg, wf, wx, wd = scan_window !execution in
    let sg, sf = scan_stores common in
    let report =
      Checker.check
        ~expected:(fun ~proc ~dot:_ -> Membership.is_active membership proc)
        ~floor:(V.of_array floor) !execution
    in
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
    Array.iteri
      (fun p log ->
        if nodes_proto.(p) <> None then begin
          log_peak := !log_peak + Hashtbl.length log;
          let dead =
            Hashtbl.fold
              (fun dot _ acc ->
                if Dot.seq dot <= common.(Dot.replica dot) then dot :: acc
                else acc)
              log []
          in
          List.iter (Hashtbl.remove log) dead;
          log_reclaimed := !log_reclaimed + List.length dead;
          log_entries := !log_entries + Hashtbl.length log
        end)
      logs;
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
    execution := Execution.create ~n:universe ~m ();
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

  let summary = Membership.history_summary membership in
  let occupants = universe + summary.Membership.joins + !adoptions in
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
    replayed_writes = !replayed;
    stale_deliveries_dropped = !stale_dropped;
    chan_stale_quarantined = Reliable_channel.stale_quarantined channel;
    net_stale_dropped = Network.messages_stale_dropped network;
    net_nonmember_dropped = Network.messages_nonmember_dropped network;
    corrupt_dropped = Reliable_channel.corrupt_dropped channel;
    retransmissions = Reliable_channel.retransmissions channel;
    duplicates_discarded = Reliable_channel.duplicates_discarded channel;
    aborted_payloads = !aborted;
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
