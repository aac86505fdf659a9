module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Fault_plan = Dsm_sim.Fault_plan
module Sim_time = Dsm_sim.Sim_time
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec
module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Metrics = Dsm_obs.Metrics

type 'msg wire =
  | Proto of 'msg
  | Sync_request of { vec : int array }
  | Sync_reply of { vec : int array; writes : 'msg list }
  | Transfer of { vec : int array; writes : 'msg list }
      (* the sponsor's delta state transfer: its durable write log cut
         at the joiner's Apply vector, replayed at the joiner through
         the normal receive path *)
  | Heartbeat of { sent : float }
      (* gossip liveness beacon; [sent] lets a refutation prove the
         sender was alive after the suspicion, retransmissions
         notwithstanding *)

(* frame-shape measurer over the campaign envelope, for the byte-cost
   accountant: protocol messages keep their own shape, anti-entropy
   traffic appears under a "sync" cause (a request is one vector, a
   reply its vector plus every carried write's shape), transfers under
   their own cause (they carry whole log suffixes — the dominant churn
   wire cost), heartbeats as one scalar *)
let wire_of_env msg_frame env =
  let vec_plus_writes ~kind ~scalars vec writes =
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
        Dsm_obs.Wire.kind;
        scalars;
        dots = 0;
        vectors = [ Dsm_vclock.Vector_clock.of_array vec ];
      }
      writes
  in
  match env with
  | Proto m -> msg_frame m
  | Sync_request { vec } ->
      {
        Dsm_obs.Wire.kind = "sync";
        scalars = 0;
        dots = 0;
        vectors = [ Dsm_vclock.Vector_clock.of_array vec ];
      }
  | Sync_reply { vec; writes } ->
      vec_plus_writes ~kind:"sync" ~scalars:1 vec writes
  | Transfer { vec; writes } ->
      vec_plus_writes ~kind:"transfer" ~scalars:1 vec writes
  | Heartbeat _ ->
      { Dsm_obs.Wire.kind = "heartbeat"; scalars = 1; dots = 0; vectors = [] }

type catch_up_kind = Fresh_join | Rejoin | Recover

type catch_up = {
  cproc : int;
  ckind : catch_up_kind;
  started_at : float;
  crashed_at : float option;
  rolled_back : int;  (* applies the durable-state restore undid *)
  mutable transfer_writes : int;
  mutable transfer_gap : int;
      (* componentwise vector gap sponsor - joiner at transfer time;
         bounds transfer_writes (one single-write message per dot) *)
  mutable transfer_bytes : int;
  mutable replayed : int;
  mutable target : int array option;
      (* componentwise max of peer vectors seen in replies; caught up
         once the local applied vector dominates it *)
  mutable converged_at : float option;
}

type replica_state = {
  sproc : int;
  sapplied : int array;
  sclock : int array;
  sstore : (Dsm_memory.Operation.value * Dot.t option) list;
}

type suspicion = {
  speer : int;
  sobserver : int;
  sphi : float;
  sat : float;
  strue : bool;  (* the peer really was down when suspected *)
  slatency : float option;  (* crash-to-suspicion, when [strue] *)
  mutable srefuted_at : float option;
      (* a heartbeat sent after [sat] arrived: false (or outdated)
         suspicion, survived via the rejoin path *)
}

type outcome = {
  execution : Execution.t;
  history : Dsm_memory.History.t;
  report : Checker.report;
  protocol_name : string;
  plan : Fault_plan.t;
  membership : Membership.t;
  final_epoch : int;
  joins : int;
  rejoins : int;
  leaves : int;
  catch_ups : catch_up list;
  detector : Failure_detector.config option;
  heartbeats_sent : int;
  suspicions : suspicion list;
  false_suspicions : int;
  refutations : int;
  view_reasons : (int * float * string) list;
  transfer_bytes : int;
  quarantine_leaks : int;
  sessions : Session_tier.report option;
  active_at_end : int list;
  final_states : replica_state list;
  live_equal : bool;
  clean : bool;
  commits : int;
  snapshot_bytes : int;
  rolled_back_events : int;
  ops_skipped_inactive : int;
  sync_requests : int;
  sync_replies : int;
  replayed_writes : int;
  stale_deliveries_dropped : int;
  chan_stale_quarantined : int;
  net_stale_dropped : int;
  net_nonmember_dropped : int;
  net_oneway_dropped : int;
  net_flap_dropped : int;
  net_delay_inflated : int;
  net_partition_dropped : int;
  net_crash_dropped : int;
  corrupt_dropped : int;
  aborted_payloads : int;
  payloads_sent : int;
  frames_sent : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

(* per-slot runtime wrapper; [proto = None] until the slot joins *)
type ('proto, 'msg) node = {
  id : int;
  mutable proto : 'proto option;
  mutable down : bool;
  mutable ever_crashed : bool;
  mutable leaving : bool;  (* flushing; still in the view *)
  mutable durable : (Protocol.config * string * string) option;
      (* (config at checkpoint, protocol snapshot, serialized write
         log) — restore needs the exact config the image was taken
         under, then re-grows to the current view width *)
  mutable log : (Dot.t, 'msg) Hashtbl.t;
  mutable staged : (Sim_time.t * Execution.kind) list;  (* newest first *)
  mutable staged_count : int;
  mutable write_seq : int;
  mutable last_crash : float;
  mutable cur : catch_up option;  (* open catch-up, until converged *)
}

(* ghost-dot audit: the quarantine must keep stale incarnation traffic
   out of [Apply].  Two independently checkable symptoms of a leak:
   the same dot applied twice at one process (a stale retransmission
   slipping past the post-crash dedup reset), or one dot observed with
   two different (var, value) bindings anywhere (a forged or corrupted
   write surviving the checksum layer). *)
let count_quarantine_leaks execution =
  let seen_value : (Dot.t, int * int) Hashtbl.t = Hashtbl.create 256 in
  let applied : (int * Dot.t, unit) Hashtbl.t = Hashtbl.create 256 in
  let leaks = ref 0 in
  List.iter
    (fun (ev : Execution.event) ->
      let check_value dot var value =
        match Hashtbl.find_opt seen_value dot with
        | None -> Hashtbl.add seen_value dot (var, value)
        | Some (var', value') ->
            if var <> var' || value <> value' then incr leaks
      in
      match ev.Execution.kind with
      | Execution.Send { dot; var; value } -> check_value dot var value
      | Execution.Apply { dot; var; value; _ } ->
          check_value dot var value;
          if Hashtbl.mem applied (ev.Execution.proc, dot) then incr leaks
          else Hashtbl.add applied (ev.Execution.proc, dot) ()
      | Execution.Receipt _ | Execution.Blocked _ | Execution.Skip _
      | Execution.Return _ ->
          ())
    (Execution.events execution);
  !leaks

let run (type pt pm)
    (module P : Protocol.S with type t = pt and type msg = pm) ~spec
    ~latency ?(faults = Network.no_faults) ~plan ~initial ?detector
    ?(mixed = false) ?sessions ?(checkpoint_every = 50.) ?(sync_rounds = 2)
    ?(sync_interval = 100.) ?(flush_poll = 10.) ?(settle = true)
    ?(retransmit_after = 50.) ?(seed = 1) ?(max_steps = 20_000_000)
    ?(metrics = Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.)
    ?(queue = Engine.Indexed) ?(arena = true) ?(batch = false) () =
  let universe = spec.Spec.n and m = spec.Spec.m in
  if initial < 2 || initial > universe then
    invalid_arg "Churn_campaign.run: need 2 <= initial <= spec.n slots";
  let fd_on = detector <> None in
  if fd_on && (not mixed) && Fault_plan.has_churn plan then
    invalid_arg
      "Churn_campaign.run: emergent mode scripts no membership — drop the \
       Join/Leave events; crashes and partitions are the only inputs, the \
       detector produces the view history (pass ~mixed:true — the nemesis \
       driver does — to combine both)";
  let initial_slots = List.init initial Fun.id in
  Fault_plan.validate ~n:universe ~initial:initial_slots plan;
  if checkpoint_every <= 0. then
    invalid_arg "Churn_campaign.run: checkpoint_every must be positive";
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create ~queue () in
  let rng = Rng.create seed in
  let measure = Reliable_channel.wire_frame (wire_of_env P.msg_frame) in
  let network =
    Network.create ~engine ~rng ~n:universe
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~arena ~batch ~faults ~mangle:Reliable_channel.corrupt_frame ~metrics
      ~wire ~measure
      ~sizer:(fun f -> Dsm_obs.Wire.frame_bytes (measure f))
      ()
  in
  if Dsm_obs.Timeseries.enabled recorder then begin
    let horizon =
      let ops_horizon =
        Array.fold_left
          (fun acc ops ->
            List.fold_left
              (fun acc { Spec.at; _ } -> Float.max acc at)
              acc ops)
          0. schedule
      in
      List.fold_left
        (fun acc ev ->
          Float.max acc (Sim_time.to_float (Fault_plan.time ev)))
        ops_horizon plan
    in
    if horizon >= scrape_every then
      Engine.schedule_every engine ~every:scrape_every
        ~until:(Sim_time.of_float horizon) (fun () ->
          Dsm_obs.Timeseries.scrape recorder
            ~now:(Sim_time.to_float (Engine.now engine)))
  end;
  let channel =
    Reliable_channel.create ~engine ~network ~retransmit_after ~rng
      ~metrics ()
  in
  let membership = Membership.create ~universe ~initial:initial_slots () in
  Network.set_membership network (Membership.is_member membership);
  let probe_epoch = Metrics.gauge metrics "membership_epoch" in
  let probe_active = Metrics.gauge metrics "membership_active" in
  let probe_joins = Metrics.counter metrics "membership_joins_total" in
  let probe_rejoins = Metrics.counter metrics "membership_rejoins_total" in
  let probe_leaves = Metrics.counter metrics "membership_leaves_total" in
  let probe_transfer_bytes =
    Metrics.counter metrics "membership_transfer_bytes"
  in
  let probe_join_latency =
    Metrics.histogram metrics "membership_join_latency" ~lo:0. ~hi:512.
      ~bins:16
  in
  let probe_checkpoints = Metrics.counter metrics "campaign_checkpoints" in
  let probe_checkpoint_bytes =
    Metrics.counter metrics "campaign_checkpoint_bytes"
  in
  let probe_rollback_depth =
    (* applies lost per restore: durable-state rollback distance *)
    Metrics.histogram metrics "campaign_rollback_depth" ~lo:0. ~hi:64.
      ~bins:16
  in
  let probe_replayed = Metrics.counter metrics "campaign_replayed_writes" in
  let probe_sync_requests =
    Metrics.counter metrics "campaign_sync_requests"
  in
  let probe_sync_replies = Metrics.counter metrics "campaign_sync_replies" in
  let probe_fd_heartbeats = Metrics.counter metrics "fd_heartbeats_total" in
  let probe_fd_suspicions = Metrics.counter metrics "fd_suspicions_total" in
  let probe_fd_false =
    Metrics.counter metrics "fd_false_positives_total"
  in
  let probe_fd_refutations =
    Metrics.counter metrics "fd_refutations_total"
  in
  let probe_fd_phi =
    Metrics.histogram metrics "fd_phi_at_suspicion" ~lo:0. ~hi:16. ~bins:16
  in
  let probe_fd_latency = Metrics.gauge metrics "fd_detection_latency" in
  Metrics.set probe_active initial;
  let execution = Execution.create ~n:universe ~m () in
  let nodes =
    Array.init universe (fun id ->
        {
          id;
          proto =
            (if id < initial then
               Some (P.create (Protocol.config ~n:initial ~m) ~me:id)
             else None);
          down = false;
          ever_crashed = false;
          leaving = false;
          durable = None;
          log = Hashtbl.create 256;
          staged = [];
          staged_count = 0;
          write_seq = 0;
          last_crash = 0.;
          cur = None;
        })
  in
  let proto_of node =
    match node.proto with
    | Some t -> t
    | None ->
        invalid_arg
          (Printf.sprintf "Churn_campaign: slot %d has no protocol state"
             node.id)
  in
  (* the view width: every live protocol state is kept grown to it, so
     a message vector is never wider than its receiver's clock by the
     time the issuer may broadcast (the growth-before-traffic
     invariant the protocols' [grow] contract requires) *)
  let width = ref initial in
  let grow_all () =
    Array.iter
      (fun node ->
        match node.proto with
        | Some t -> P.grow t ~n:!width
        | None -> ())
      nodes
  in
  let sync_view () =
    Network.set_epoch network (Membership.epoch membership);
    Metrics.set probe_epoch (Membership.epoch membership);
    Metrics.set probe_active (List.length (Membership.active membership))
  in
  (* detector state: one accrual observer per slot, a per-pair clock of
     the last payload sent (standalone heartbeats are suppressed while
     protocol traffic piggybacks as liveness evidence), and the time
     each slot was suspected (a refutation must postdate it) *)
  let detectors =
    match detector with
    | None -> [||]
    | Some cfg ->
        Array.init universe (fun me ->
            Failure_detector.create cfg ~universe ~me)
  in
  let last_sent =
    if fd_on then Array.make_matrix universe universe neg_infinity
    else [||]
  in
  let suspected_at = Array.make universe infinity in
  let nowf () = Sim_time.to_float (Engine.now engine) in
  (* the membership view is the addressing oracle: senders talk only to
     currently active members; everyone else catches up by transfer or
     anti-entropy when (re)entering the view *)
  let ch_send ~src ~dst msg =
    if Membership.is_active membership dst then begin
      if fd_on then last_sent.(src).(dst) <- nowf ();
      Reliable_channel.send channel ~src ~dst msg
    end
  in
  let ch_broadcast ~src msg =
    List.iter
      (fun dst -> if dst <> src then ch_send ~src ~dst msg)
      (Membership.active membership)
  in
  let catch_ups = ref [] in
  let joins = ref 0 in
  let rejoins = ref 0 in
  let leaves = ref 0 in
  let transfer_bytes = ref 0 in
  let commits = ref 0 in
  let snapshot_bytes = ref 0 in
  let rolled_back = ref 0 in
  let ops_skipped = ref 0 in
  let sync_requests = ref 0 in
  let sync_replies = ref 0 in
  let replayed_writes = ref 0 in
  let stale_dropped = ref 0 in
  let aborted = ref 0 in
  let heartbeats = ref 0 in
  let suspicions = ref [] in
  let false_suspicions = ref 0 in
  let refutations = ref 0 in
  let reasons = ref [] in
  (* view-change provenance: one line per epoch bump, recorded right
     after the transition so the epoch stamp is the view it produced *)
  let push_reason fmt =
    Printf.ksprintf
      (fun why ->
        reasons := (Membership.epoch membership, nowf (), why) :: !reasons)
      fmt
  in

  let record node kind =
    node.staged <- (Engine.now engine, kind) :: node.staged;
    node.staged_count <- node.staged_count + 1
  in
  (* commit = make everything since the last commit durable: flush the
     staged events into the recorded execution and serialize protocol
     state + write log.  Called after every local write (so a write is
     durable before its broadcast leaves — no dot is ever reissued) and
     at the periodic checkpoints (so received writes also become
     durable without waiting for the next local write). *)
  let commit node =
    List.iter
      (fun (time, kind) ->
        Execution.record execution ~proc:node.id ~time kind)
      (List.rev node.staged);
    node.staged <- [];
    node.staged_count <- 0;
    let image = P.snapshot (proto_of node) in
    let log_image = Protocol.Snapshot.encode node.log in
    node.durable <- Some (Protocol.config ~n:!width ~m, image, log_image);
    incr commits;
    Metrics.incr probe_checkpoints;
    Metrics.add probe_checkpoint_bytes
      (String.length image + String.length log_image);
    snapshot_bytes := !snapshot_bytes + String.length image
                      + String.length log_image
  in
  let log_outbound node msg =
    List.iter
      (fun (dot, _, _) -> Hashtbl.replace node.log dot msg)
      (P.msg_writes msg)
  in
  let covered node dot =
    let v = P.applied_vector (proto_of node) in
    V.get0 v (Dot.replica dot) >= Dot.seq dot
  in
  let check_converged node =
    match node.cur with
    | Some c when c.converged_at = None -> (
        match c.target with
        | None -> ()
        | Some target ->
            let v = P.applied_vector (proto_of node) in
            let ok = ref true in
            Array.iteri
              (fun i want -> if V.get0 v i < want then ok := false)
              target;
            if !ok then begin
              c.converged_at <- Some (nowf ());
              Metrics.observe probe_join_latency (nowf () -. c.started_at);
              node.cur <- None
            end)
    | _ -> ()
  in
  let rec process node (eff : pm Protocol.effects) =
    List.iter (fun dot -> record node (Execution.Skip { dot })) eff.skipped;
    List.iter
      (fun (a : Protocol.apply_record) ->
        record node
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
        log_outbound node msg;
        List.iter
          (fun (dot, var, value) ->
            record node (Execution.Send { dot; var; value }))
          (P.msg_writes msg);
        match outbound with
        | Protocol.Broadcast msg -> ch_broadcast ~src:node.id (Proto msg)
        | Protocol.Unicast { dst; msg } ->
            ch_send ~src:node.id ~dst (Proto msg))
      eff.to_send
  and deliver_proto node ~src msg =
    log_outbound node msg;
    let writes = P.msg_writes msg in
    if writes <> [] && List.for_all (fun (dot, _, _) -> covered node dot)
                         writes
    then incr stale_dropped
    else begin
      List.iter
        (fun (dot, _, _) -> record node (Execution.Receipt { dot; src }))
        writes;
      let eff = P.receive (proto_of node) ~src msg in
      (match writes with
      | [] -> ()
      | _ when eff.Protocol.applied = [] && eff.Protocol.skipped = [] -> (
          match P.waiting_for (proto_of node) ~src msg with
          | Some waiting_for ->
              List.iter
                (fun (dot, _, _) ->
                  record node (Execution.Blocked { dot; waiting_for }))
                writes
          | None -> ())
      | _ -> ());
      process node eff;
      check_converged node
    end
  in
  let send_sync_request node =
    let vec = V.to_array (P.applied_vector (proto_of node)) in
    List.iter
      (fun dst ->
        if dst <> node.id then begin
          incr sync_requests;
          Metrics.incr probe_sync_requests;
          Reliable_channel.send channel ~src:node.id ~dst
            (Sync_request { vec })
        end)
      (Membership.active membership)
  in
  let issuer_of msg =
    match P.msg_writes msg with
    | (dot, _, _) :: _ -> Dot.replica dot
    | [] ->
        invalid_arg
          "Churn_campaign: control message in the anti-entropy log"
  in
  (* the writes this node holds beyond [vec]; [vec] may be narrower or
     wider than this node's own clock — out-of-range components are
     implicit zeros on both sides *)
  let collect_since node ~vec =
    let mine = V.to_array (P.applied_vector (proto_of node)) in
    let out = ref [] in
    for u = Array.length mine - 1 downto 0 do
      let have = if u < Array.length vec then vec.(u) else 0 in
      for s = mine.(u) downto have + 1 do
        let dot = Dot.make ~replica:u ~seq:s in
        match Hashtbl.find_opt node.log dot with
        | Some msg -> out := msg :: !out
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Churn_campaign: %s applied %s but its durable log \
                  cannot re-supply it (protocol outside the \
                  complete-broadcast class?)"
                 P.name (Dot.to_string dot))
      done
    done;
    (V.to_array (P.applied_vector (proto_of node)), !out)
  in
  let serve_sync node ~peer ~vec =
    let mine, out = collect_since node ~vec in
    incr sync_replies;
    Metrics.incr probe_sync_replies;
    ch_send ~src:node.id ~dst:peer (Sync_reply { vec = mine; writes = out })
  in
  let merge_target c vec =
    c.target <-
      Some
        (match c.target with
        | None -> Array.copy vec
        | Some t ->
            let len = max (Array.length t) (Array.length vec) in
            Array.init len (fun i ->
                let a = if i < Array.length t then t.(i) else 0 in
                let b = if i < Array.length vec then vec.(i) else 0 in
                max a b))
  in
  let absorb_sync node writes ~vec =
    (match node.cur with
    | Some c -> merge_target c vec
    | None -> ());
    List.iter
      (fun msg ->
        let fresh =
          List.exists (fun (dot, _, _) -> not (covered node dot))
            (P.msg_writes msg)
        in
        if fresh then begin
          incr replayed_writes;
          Metrics.incr probe_replayed;
          (match node.cur with
          | Some c -> c.replayed <- c.replayed + 1
          | None -> ());
          deliver_proto node ~src:(issuer_of msg) msg
        end)
      writes;
    check_converged node
  in
  (* refutation-driven rejoin, installed by the emergent wiring below:
     a heartbeat sent after the suspicion proves the slot alive *)
  let refute_hook :
      (peer:int -> witness:int -> sent:float -> unit) ref =
    ref (fun ~peer:_ ~witness:_ ~sent:_ -> ())
  in
  for dst = 0 to universe - 1 do
    Reliable_channel.set_handler channel dst (fun ~src ~at:_ w ->
        let node = nodes.(dst) in
        if (not node.down) && node.proto <> None then begin
          if fd_on then begin
            (* piggyback: any frame from [src] is liveness evidence *)
            Failure_detector.observe detectors.(dst) ~peer:src
              ~at:(nowf ());
            match w with
            | Heartbeat { sent }
              when Membership.is_member membership src
                   && (not (Membership.is_active membership src))
                   && (not nodes.(src).down)
                   && sent > suspected_at.(src) ->
                !refute_hook ~peer:src ~witness:dst ~sent
            | _ -> ()
          end;
          match w with
          | Heartbeat _ -> ()
          | Proto msg -> deliver_proto node ~src msg
          | Sync_request { vec } -> serve_sync node ~peer:src ~vec
          | Sync_reply { vec; writes } | Transfer { vec; writes } ->
              absorb_sync node writes ~vec
        end)
  done;

  (* anti-entropy rounds for a node that just (re)entered the view *)
  let schedule_catch_up node =
    send_sync_request node;
    for k = 1 to sync_rounds - 1 do
      Engine.schedule_after engine (float_of_int k *. sync_interval)
        (fun () ->
          if (not node.down) && Membership.is_active membership node.id then
            send_sync_request node)
    done
  in
  (* group-wide rounds: every active member asks around — needed after
     a crash-rejoin, when the rejoiner's own pre-crash broadcasts may
     have died quarantined on the wire and only it can re-supply them *)
  let schedule_group_sync () =
    for k = 1 to sync_rounds do
      Engine.schedule_after engine
        (float_of_int k *. sync_interval)
        (fun () ->
          List.iter
            (fun p ->
              let node = nodes.(p) in
              if not node.down then send_sync_request node)
            (Membership.active membership))
    done
  in

  (* ---- churn and fault plan wiring --------------------------------- *)
  (* The one plan peek: whether a crashed slot ever re-enters the view
     is a fact about the future.  It only gates the corpse's send-queue
     abandonment — a slot that will rejoin keeps its armed timers, and
     those zombie retransmissions are exactly the stale-incarnation
     traffic the channel quarantine must eat. *)
  let permanently_down = Fault_plan.down_at_end plan in
  let on_crash p =
    let node = nodes.(p) in
    if not fd_on then begin
      (* scripted mode: the plan is the membership oracle.  In emergent
         mode a crash is a purely physical event — the view only
         changes when a detector's accrued suspicion says so *)
      Membership.crash membership ~at:(Engine.now engine) p;
      sync_view ();
      push_reason "p%d crashed (plan)" (p + 1)
    end
    else if mixed && Membership.is_active membership p then begin
      (* mixed mode: a scripted crash is operator knowledge — the view
         reflects it immediately, and the detector (which only judges
         active peers) never has to discover it.  Skipped when a
         suspicion already marked the slot down. *)
      Membership.crash membership ~at:(Engine.now engine) p;
      sync_view ();
      push_reason "p%d crashed (plan)" (p + 1)
    end;
    node.down <- true;
    node.ever_crashed <- true;
    node.last_crash <- nowf ();
    rolled_back := !rolled_back + node.staged_count;
    node.staged <- [];
    node.staged_count <- 0;
    node.cur <- None;
    Network.mark_crashed network p;
    aborted := !aborted + Reliable_channel.abort_peer channel ~peer:p;
    if List.mem p permanently_down then begin
      aborted := !aborted + Reliable_channel.abort_sender channel ~peer:p;
      schedule_group_sync ()
    end
  in
  let start_catch_up ?crashed_at ?(rolled_back = 0) node ckind =
    let c =
      {
        cproc = node.id;
        ckind;
        started_at = nowf ();
        crashed_at;
        rolled_back;
        transfer_writes = 0;
        transfer_gap = 0;
        transfer_bytes = 0;
        replayed = 0;
        target = None;
        converged_at = None;
      }
    in
    node.cur <- Some c;
    catch_ups := c :: !catch_ups;
    c
  in
  (* delta state transfer: the sponsor (lowest-id other active member)
     ships its durable log cut at the joiner's Apply vector — a fresh
     joiner's zeros degenerate to the whole log, a rejoiner only pays
     for the gap its crash (or false suspicion) opened *)
  let send_delta_transfer c joiner =
    match
      List.find_opt (fun q -> q <> joiner.id) (Membership.active membership)
    with
    | None -> ()
    | Some sponsor ->
        let snode = nodes.(sponsor) in
        let jvec = V.to_array (P.applied_vector (proto_of joiner)) in
        let vec, out = collect_since snode ~vec:jvec in
        c.transfer_writes <- List.length out;
        c.transfer_gap <-
          (let gap = ref 0 in
           Array.iteri
             (fun u s ->
               let have = if u < Array.length jvec then jvec.(u) else 0 in
               if s > have then gap := !gap + (s - have))
             vec;
           !gap);
        c.transfer_bytes <- String.length (Marshal.to_string out []);
        transfer_bytes := !transfer_bytes + c.transfer_bytes;
        Metrics.add probe_transfer_bytes c.transfer_bytes;
        ch_send ~src:sponsor ~dst:joiner.id (Transfer { vec; writes = out })
  in
  (* rebuild a crashed slot from its last commit; returns the applies
     the restore undid *)
  let restore_node node =
    let before = V.sum (P.applied_vector (proto_of node)) in
    (match node.durable with
    | Some (cfg0, image, log_image) ->
        let t = P.restore cfg0 ~me:node.id image in
        P.grow t ~n:!width;
        node.proto <- Some t;
        node.log <- Protocol.Snapshot.decode log_image
    | None ->
        node.proto <- Some (P.create (Protocol.config ~n:!width ~m) ~me:node.id);
        node.log <- Hashtbl.create 256);
    let rolled = before - V.sum (P.applied_vector (proto_of node)) in
    Metrics.observe probe_rollback_depth (float_of_int rolled);
    rolled
  in
  let on_recover p =
    let node = nodes.(p) in
    if not fd_on then begin
      Membership.recover membership ~at:(Engine.now engine) p;
      sync_view ();
      push_reason "p%d recovered (plan)" (p + 1)
    end
    else if mixed && not (Membership.is_active membership p) then begin
      (* mixed mode: the scripted crash put the slot down in the view
         (or a suspicion did); a scripted recover re-admits it under
         the same incarnation, as a static recovery does *)
      Membership.recover membership ~at:(Engine.now engine) p;
      sync_view ();
      push_reason "p%d recovered (plan)" (p + 1)
    end;
    node.down <- false;
    Network.mark_recovered network p;
    let rolled_back = restore_node node in
    let recover () =
      ignore
        (start_catch_up node Recover ~crashed_at:node.last_crash
           ~rolled_back);
      schedule_catch_up node
    in
    if fd_on then begin
      (* the slot heard nothing while down: re-arm its own arrival
         clocks or it would instantly suspect every peer *)
      for q = 0 to universe - 1 do
        if q <> p then begin
          Failure_detector.forget detectors.(p) ~peer:q;
          Failure_detector.observe detectors.(p) ~peer:q ~at:(nowf ());
          if mixed then begin
            (* and the peers heard nothing from it while it was down
               but outside the view: without a re-arm its pre-crash
               silence would be suspected on the next accrual tick *)
            Failure_detector.forget detectors.(q) ~peer:p;
            Failure_detector.observe detectors.(q) ~peer:p ~at:(nowf ())
          end
        end
      done;
      (* if a detector already turned this crash into a [Down], the
         catch-up belongs to the refutation-driven rejoin: the slot's
         resumed heartbeats will re-admit it *)
      if Membership.is_active membership p then recover ()
    end
    else recover ()
  in
  let on_join p =
    let node = nodes.(p) in
    let fresh = not (Membership.is_member membership p) in
    Membership.join membership ~at:(Engine.now engine) p;
    width := max !width (p + 1);
    grow_all ();
    sync_view ();
    if fd_on then begin
      (* mixed mode: the detectors were seeded at t=0, so without a
         re-arm a scripted joiner entering mid-run would look silent
         since the beginning of time and be suspected on the next
         accrual tick.  Fresh clocks on both sides, exactly as the
         refutation-driven rejoin does. *)
      suspected_at.(p) <- infinity;
      for q = 0 to universe - 1 do
        if q <> p then begin
          Failure_detector.forget detectors.(q) ~peer:p;
          Failure_detector.observe detectors.(q) ~peer:p ~at:(nowf ());
          Failure_detector.forget detectors.(p) ~peer:q;
          Failure_detector.observe detectors.(p) ~peer:q ~at:(nowf ())
        end
      done
    end;
    if fresh then begin
      (* bootstrap: empty state, then the sponsor's transfer (the full
         log: a fresh joiner's vector is all zeros) arrives through the
         normal receive path *)
      push_reason "p%d joined (plan)" (p + 1);
      node.proto <-
        Some (P.create (Protocol.config ~n:!width ~m) ~me:p);
      node.log <- Hashtbl.create 256;
      incr joins;
      Metrics.incr probe_joins;
      let c = start_catch_up node Fresh_join in
      send_delta_transfer c node;
      schedule_catch_up node
    end
    else begin
      (* crash-rejoin: same slot, fresh incarnation — everything this
         slot's previous life still has on the wire is now stale *)
      push_reason "p%d rejoined (plan)" (p + 1);
      Network.bump_incarnation network p;
      Reliable_channel.bump_incarnation channel p;
      Network.mark_recovered network p;
      node.down <- false;
      let rolled_back = restore_node node in
      incr rejoins;
      Metrics.incr probe_rejoins;
      let c =
        start_catch_up node Rejoin ~crashed_at:node.last_crash ~rolled_back
      in
      send_delta_transfer c node;
      schedule_catch_up node;
      schedule_group_sync ()
    end
  in
  let on_leave p =
    let node = nodes.(p) in
    node.leaving <- true;
    (* graceful departure: stop issuing, flush — wait until every
       payload this slot originated has been acknowledged, so its
       writes are all delivered somewhere durable — then leave *)
    let depart () =
      if not (Membership.is_active membership p) then
        (* mixed mode: a detector suspicion (or refutation still in
           flight) won the race with this scripted leave — the slot is
           not a live member, so there is nothing to depart from.  The
           slot stays flushing/quiet; the detector pipeline owns its
           fate now. *)
        push_reason "p%d leave skipped: not active when the flush drained"
          (p + 1)
      else begin
      commit node;
      (* record the departing occupant's final write counter: the
         retired-generation ledger needs it to resolve this occupant's
         dots, and the slot-reuse gate compares the cluster Apply floor
         against it before recycling the slot *)
      let final = V.get0 (P.applied_vector (proto_of node)) p in
      Membership.leave membership ~at:(Engine.now engine) ~final p;
      sync_view ();
      push_reason "p%d left gracefully (plan)" (p + 1);
      (* frames still in flight toward the retired slot would
         retransmit forever against nonmember drops *)
      aborted := !aborted + Reliable_channel.abort_peer channel ~peer:p;
      incr leaves;
      Metrics.incr probe_leaves
      end
    in
    let rec poll tries =
      if tries > 10_000 then
        failwith
          (Printf.sprintf
             "Churn_campaign: p%d leave flush did not drain" (p + 1))
      else if Reliable_channel.unacked_from channel ~peer:p = 0 then
        depart ()
      else
        Engine.schedule_after engine flush_poll (fun () -> poll (tries + 1))
    in
    poll 0
  in
  Fault_plan.install plan ~engine ~on_join ~on_leave ~on_crash ~on_recover
    ~on_cut:(fun groups -> Network.partition network groups)
    ~on_heal:(fun () -> Network.heal_all network)
    ~on_cut_oneway:(fun ~src ~dst -> Network.cut_oneway network ~src ~dst)
    ~on_heal_oneway:(fun ~src ~dst -> Network.heal_oneway network ~src ~dst)
    ~on_flap:(fun ~a ~b ~period ~until_ ->
      Network.flap network ~a ~b ~period ~until_)
    ~on_inflate:(fun ~src ~dst ~factor ~until_ ->
      Network.inflate network ~src ~dst ~factor ~until_)
    ();

  (* ---- workload ---------------------------------------------------- *)
  (* every slot has an op stream; ops land only while the slot is an
     active, non-flushing member — the rest are counted skips *)
  Array.iteri
    (fun proc ops ->
      let node = nodes.(proc) in
      List.iter
        (fun { Spec.at; op } ->
          Engine.schedule_at engine (Sim_time.of_float at) (fun () ->
              if
                node.down || node.leaving
                || not (Membership.is_active membership proc)
              then incr ops_skipped
              else
                match op with
                | Spec.Do_write { var } ->
                    node.write_seq <- node.write_seq + 1;
                    let value =
                      Sim_run.write_value ~proc ~seq:node.write_seq
                    in
                    let _, eff = P.write (proto_of node) ~var ~value in
                    process node eff;
                    commit node
                | Spec.Do_read { var } ->
                    let value, read_from = P.read (proto_of node) ~var in
                    record node
                      (Execution.Return { var; value; read_from })))
        ops)
    schedule;

  let horizon =
    let plan_end =
      List.fold_left
        (fun acc ev ->
          Float.max acc (Sim_time.to_float (Fault_plan.time ev)))
        0. plan
    in
    let base = Float.max (Dsm_workload.Generator.end_time schedule) plan_end in
    (* the session tier keeps issuing past the replica op streams; fold
       its nominal duration in so detector gossip outlasts the sessions *)
    match sessions with
    | None -> base
    | Some (sc : Session_tier.config) ->
        Float.max base
          (sc.Session_tier.think_mean
          *. float_of_int (sc.Session_tier.ops_per_session + 2))
  in
  (* ---- emergent membership: gossip + accrual detection ------------- *)
  (match detector with
  | None -> ()
  | Some cfg ->
      (* seed every pair's arrival clock at t=0: silence accrues from
         the start even for a slot that crashes before ever speaking *)
      Array.iter
        (fun det ->
          for q = 0 to universe - 1 do
            Failure_detector.observe det ~peer:q ~at:0.
          done)
        detectors;
      let suspect ~observer ~peer ~phi =
        let node = nodes.(peer) in
        let now = nowf () in
        let was_down = node.down in
        Membership.crash membership ~at:(Engine.now engine) peer;
        sync_view ();
        push_reason "p%d suspected by p%d (phi=%.2f)" (peer + 1)
          (observer + 1) phi;
        suspected_at.(peer) <- now;
        let slatency =
          if was_down then Some (now -. node.last_crash) else None
        in
        suspicions :=
          {
            speer = peer;
            sobserver = observer;
            sphi = phi;
            sat = now;
            strue = was_down;
            slatency;
            srefuted_at = None;
          }
          :: !suspicions;
        Metrics.incr probe_fd_suspicions;
        Metrics.observe probe_fd_phi phi;
        (match slatency with
        | Some l -> Metrics.set probe_fd_latency (int_of_float (l +. 0.5))
        | None ->
            incr false_suspicions;
            Metrics.incr probe_fd_false);
        (* payloads queued toward the silent slot (heartbeats included)
           would retransmit forever against crash drops *)
        aborted := !aborted + Reliable_channel.abort_peer channel ~peer
      in
      (refute_hook :=
         fun ~peer ~witness ~sent ->
           let node = nodes.(peer) in
           incr refutations;
           Metrics.incr probe_fd_refutations;
           (match
              List.find_opt
                (fun s -> s.speer = peer && s.srefuted_at = None)
                !suspicions
            with
           | Some s -> s.srefuted_at <- Some (nowf ())
           | None -> ());
           suspected_at.(peer) <- infinity;
           (* the refuted suspicion reuses the crash-rejoin path: fresh
              incarnation, quarantined leftovers, delta transfer +
              anti-entropy — false suspicions are survivable because
              rejoin already is *)
           Membership.join membership ~at:(Engine.now engine) peer;
           sync_view ();
           push_reason
             "p%d rejoined: heartbeat sent@%.1f to p%d refuted the \
              suspicion"
             (peer + 1) sent (witness + 1);
           Network.bump_incarnation network peer;
           Reliable_channel.bump_incarnation channel peer;
           Network.mark_recovered network peer;
           incr rejoins;
           Metrics.incr probe_rejoins;
           (* fresh incarnation: stale arrival history on either side
              must not poison the new estimates *)
           for q = 0 to universe - 1 do
             if q <> peer then begin
               Failure_detector.forget detectors.(q) ~peer;
               Failure_detector.observe detectors.(q) ~peer ~at:(nowf ());
               Failure_detector.forget detectors.(peer) ~peer:q;
               Failure_detector.observe detectors.(peer) ~peer:q
                 ~at:(nowf ())
             end
           done;
           let c = start_catch_up node Rejoin in
           send_delta_transfer c node;
           schedule_catch_up node;
           schedule_group_sync ());
      (* gossip + accrual run past the plan so a crash near the horizon
         is still detected; the bound is the worst-case silence a
         clamped window can demand before phi crosses the threshold *)
      let detection_span =
        (* adaptive scaling can raise a link's threshold by at most
           1 + 2 * adaptive (the interval clamp bounds cv below 2), so
           the worst-case silence before crossing grows by the same
           factor; with adaptive = 0 this is the fixed-threshold bound *)
        cfg.Failure_detector.threshold
        *. (1. +. (2. *. cfg.Failure_detector.adaptive))
        *. Float.log 10.
        *. (4. *. cfg.Failure_detector.heartbeat_every)
      in
      (* suspicion stops before gossip does: a slot falsely suspected
         at the very last accrual tick still gets gossip ticks of its
         own afterwards, so its refuting heartbeat is always
         originated (delivery needs no ticks — the channel retransmits
         until acked) *)
      let accrual_until = horizon +. detection_span in
      let hb_horizon =
        accrual_until
        +. (4. *. cfg.Failure_detector.heartbeat_every)
        +. (2. *. sync_interval)
      in
      Engine.schedule_every engine
        ~every:cfg.Failure_detector.heartbeat_every
        ~until:(Sim_time.of_float hb_horizon)
        (fun () ->
          let now = nowf () in
          (* gossip: a standalone beacon only where no recent protocol
             traffic already piggybacked as evidence *)
          for p = 0 to universe - 1 do
            let node = nodes.(p) in
            (* a flushing slot is still alive and still judged by every
               peer's accrual loop below — it must keep gossiping until
               it actually departs, or a scripted leave under an armed
               detector (mixed mode) turns into an unrefutable false
               suspicion *)
            if
              (not node.down)
              && node.proto <> None
              && Membership.is_member membership p
            then
              List.iter
                (fun dst ->
                  if
                    dst <> p
                    && now -. last_sent.(p).(dst)
                       >= cfg.Failure_detector.heartbeat_every
                  then begin
                    incr heartbeats;
                    Metrics.incr probe_fd_heartbeats;
                    ch_send ~src:p ~dst (Heartbeat { sent = now })
                  end)
                (Membership.active membership)
          done;
          (* accrue: every live active observer judges every active
             peer; first threshold crossing wins the view change *)
          if now <= accrual_until then
          for p = 0 to universe - 1 do
            let node = nodes.(p) in
            if (not node.down) && Membership.is_active membership p then
              List.iter
                (fun q ->
                  if q <> p && Membership.is_active membership q then begin
                    let phi =
                      Failure_detector.phi detectors.(p) ~peer:q ~at:now
                    in
                    if
                      phi
                      >= Failure_detector.effective_threshold detectors.(p)
                           ~peer:q
                    then suspect ~observer:p ~peer:q ~phi
                  end)
                (Membership.active membership)
          done);
      (* liveness backstop: once gossip stops, nothing new will suspect
         a still-down slot, so abandon any payloads queued toward the
         remaining corpses *)
      Engine.schedule_at engine (Sim_time.of_float (hb_horizon +. 1.))
        (fun () ->
          for p = 0 to universe - 1 do
            if nodes.(p).down then
              aborted :=
                !aborted + Reliable_channel.abort_peer channel ~peer:p
          done));

  let rec schedule_checkpoints at =
    if at <= horizon +. checkpoint_every then begin
      Engine.schedule_at engine (Sim_time.of_float at) (fun () ->
          List.iter
            (fun p ->
              let node = nodes.(p) in
              if not node.down then commit node)
            (Membership.active membership));
      schedule_checkpoints (at +. checkpoint_every)
    end
  in
  schedule_checkpoints checkpoint_every;

  (* ---- session tier ------------------------------------------------ *)
  (* lightweight client sessions in front of the replicas: each carries
     a session vector ([dep]) joined from the dots it wrote and the dots
     its reads returned, and a replica serves it only when its applied
     vector dominates [dep].  The RPC model is deterministic: a request
     arriving at a down / absent / flushing home gets a definitive
     Unavailable reply, a dep-gate miss a definitive Blocked reply (the
     op is never parked server-side), and only an executed op's reply
     leg is lossy — lost iff the home crashes before it drains.  A lost
     write reply is resolved by {e probing} for the op id in a home's
     durable log, never by blind reissue, so writes are at-most-once by
     construction. *)
  let session_finalize :
      (Dsm_memory.History.t -> Session_tier.report option) ref =
    ref (fun _ -> None)
  in
  (match sessions with
  | None -> ()
  | Some scfg ->
      let module ST = Session_tier in
      ST.validate_config scfg;
      (* independent stream: session traffic must not perturb the
         network/fault RNG draws of a session-free run *)
      let srng = Rng.create (scfg.ST.seed + (seed * 7919)) in
      let p_ops = Metrics.counter metrics "session_ops_total" in
      let p_writes = Metrics.counter metrics "session_writes_total" in
      let p_reads = Metrics.counter metrics "session_reads_total" in
      let p_migr = Metrics.counter metrics "session_migrations_total" in
      let p_retries = Metrics.counter metrics "session_retries_total" in
      let p_blocked = Metrics.counter metrics "session_blocked_total" in
      let p_unavail =
        Metrics.counter metrics "session_unavailable_total"
      in
      let p_degraded = Metrics.counter metrics "session_degraded_total" in
      let p_dedup = Metrics.counter metrics "session_dedup_hits_total" in
      let p_lost =
        Metrics.counter metrics "session_replies_lost_total"
      in
      let p_lat =
        Metrics.histogram metrics "session_op_latency" ~lo:0. ~hi:1024.
          ~bins:16
      in
      let sess =
        Array.init scfg.ST.count (fun sid ->
            ST.make_session ~sid ~universe)
      in
      let spans = ref [] in
      let migrations = ref [] in
      let s_writes = ref 0 and s_reads = ref 0 in
      let s_retries = ref 0 and s_blocked = ref 0 in
      let s_unavail = ref 0 in
      let s_dedup = ref 0 and s_lost = ref 0 in
      let wlat = ref [] and rlat = ref [] in
      let candidates () =
        List.filter
          (fun p ->
            let node = nodes.(p) in
            (not node.down) && (not node.leaving) && node.proto <> None)
          (Membership.active membership)
      in
      (* first dot of [dep] the home has not applied, if any *)
      let frontier_gap node (s : ST.session) =
        let v = P.applied_vector (proto_of node) in
        let missing = ref None in
        Array.iteri
          (fun u want ->
            if !missing = None && want > 0 && V.get0 v u < want then
              missing := Some (Dot.make ~replica:u ~seq:want))
          s.ST.dep;
        !missing
      in
      (* at-most-once probe: the op id, durable in this home's log and
         applied there *)
      let find_committed node value =
        Hashtbl.fold
          (fun dot msg acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if
                  List.exists
                    (fun (d, _, v) -> Dot.equal d dot && v = value)
                    (P.msg_writes msg)
                  && covered node dot
                then Some dot
                else None)
          node.log None
      in
      let join_dot (s : ST.session) dot =
        let r = Dot.replica dot in
        if r < Array.length s.ST.dep then
          s.ST.dep.(r) <- max s.ST.dep.(r) (Dot.seq dot)
      in
      let observe_latency span =
        match span.ST.odone_at with
        | None -> ()
        | Some t ->
            let l = t -. span.ST.oissued_at in
            Metrics.observe p_lat l;
            (match span.ST.okind with
            | ST.Op_write -> wlat := l :: !wlat
            | ST.Op_read -> rlat := l :: !rlat)
      in
      let rec start_op (s : ST.session) =
        if s.ST.op_seq < scfg.ST.ops_per_session then begin
          s.ST.op_seq <- s.ST.op_seq + 1;
          let okind =
            if Rng.float srng < scfg.ST.write_ratio then ST.Op_write
            else ST.Op_read
          in
          let span =
            {
              ST.osid = s.ST.sid;
              oseq = s.ST.op_seq;
              okind;
              ovar = Rng.int srng m;
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
          attempt s span ~probe:false ~retries_left:scfg.ST.max_retries
        end
      and next_op s =
        Engine.schedule_after engine
          (Rng.exponential srng scfg.ST.think_mean)
          (fun () -> start_op s)
      and degrade s span kind =
        span.ST.ooutcome <- Some kind;
        span.ST.odone_at <- Some (nowf ());
        Metrics.incr p_degraded;
        next_op s
      and reject s span ~probe ~retries_left ~deg =
        if retries_left <= 0 then degrade s span deg
        else begin
          incr s_retries;
          Metrics.incr p_retries;
          Engine.schedule_after engine
            (ST.backoff_delay scfg ~rng:srng ~attempt:span.ST.oattempts)
            (fun () -> attempt s span ~probe ~retries_left:(retries_left - 1))
        end
      and attempt s span ~probe ~retries_left =
        span.ST.oattempts <- span.ST.oattempts + 1;
        match
          ST.choose_home scfg.ST.placement ~sid:s.ST.sid ~universe
            ~rng:srng ~active:(candidates ()) ~current:s.ST.home
        with
        | None ->
            incr s_unavail;
            Metrics.incr p_unavail;
            reject s span ~probe ~retries_left ~deg:ST.Deg_unreachable
        | Some h ->
            (match s.ST.home with
            | Some h0 when h0 <> h && not scfg.ST.handoff ->
                (* canary: the session vector is dropped on retarget *)
                Array.fill s.ST.dep 0 (Array.length s.ST.dep) 0
            | _ -> ());
            s.ST.home <- Some h;
            let t_send = nowf () in
            Engine.schedule_after engine
              (Dsm_sim.Latency.sample latency srng)
              (fun () -> arrive s span ~h ~t_send ~probe ~retries_left)
      and arrive s span ~h ~t_send ~probe ~retries_left =
        let node = nodes.(h) in
        let t_handled = nowf () in
        (* one reply leg; [lossy] marks executed ops, whose reply dies
           with a crashing home — the only in-doubt window.  The client
           notices at its RPC timeout and runs [on_lost]. *)
        let reply ~lossy ~on_lost k =
          Engine.schedule_after engine
            (Dsm_sim.Latency.sample latency srng)
            (fun () ->
              if lossy && node.last_crash > t_handled then begin
                incr s_lost;
                Metrics.incr p_lost;
                let wake =
                  Float.max 0. (t_send +. scfg.ST.rpc_timeout -. nowf ())
                in
                Engine.schedule_after engine wake on_lost
              end
              else k ())
        in
        let no_loss k =
          reply ~lossy:false ~on_lost:(fun () -> assert false) k
        in
        if
          node.down || node.leaving || node.proto = None
          || not (Membership.is_active membership h)
        then begin
          incr s_unavail;
          Metrics.incr p_unavail;
          no_loss (fun () ->
              reject s span ~probe ~retries_left ~deg:ST.Deg_unreachable)
        end
        else if probe then
          match
            find_committed node (ST.op_value ~sid:s.ST.sid ~op:span.ST.oseq)
          with
          | Some dot ->
              incr s_dedup;
              Metrics.incr p_dedup;
              no_loss (fun () ->
                  serve_write s span ~h ~dot ~outcome:ST.Ok_dedup)
          | None ->
              no_loss (fun () ->
                  reject s span ~probe:true ~retries_left
                    ~deg:ST.Deg_in_doubt)
        else
          match frontier_gap node s with
          | Some wf ->
              span.ST.owaiting_for <- Some wf;
              span.ST.oclaim_home <- h;
              span.ST.oclaim_at <- t_handled;
              incr s_blocked;
              Metrics.incr p_blocked;
              no_loss (fun () ->
                  reject s span ~probe:false ~retries_left
                    ~deg:ST.Deg_blocked)
          | None -> (
              match span.ST.okind with
              | ST.Op_read ->
                  let value, read_from =
                    P.read (proto_of node) ~var:span.ST.ovar
                  in
                  span.ST.oserved_at <- t_handled;
                  record node
                    (Execution.Return { var = span.ST.ovar; value; read_from });
                  reply ~lossy:true
                    ~on_lost:(fun () ->
                      (* an unacknowledged read is idempotent: retry *)
                      reject s span ~probe:false ~retries_left
                        ~deg:ST.Deg_unreachable)
                    (fun () -> serve_read s span ~h ~value ~read_from)
              | ST.Op_write -> (
                  let value = ST.op_value ~sid:s.ST.sid ~op:span.ST.oseq in
                  match find_committed node value with
                  | Some dot ->
                      incr s_dedup;
                      Metrics.incr p_dedup;
                      reply ~lossy:true
                        ~on_lost:(fun () ->
                          reject s span ~probe:true ~retries_left
                            ~deg:ST.Deg_in_doubt)
                        (fun () ->
                          serve_write s span ~h ~dot ~outcome:ST.Ok_dedup)
                  | None ->
                      node.write_seq <- node.write_seq + 1;
                      let dot, eff =
                        P.write (proto_of node) ~var:span.ST.ovar ~value
                      in
                      span.ST.oserved_at <- t_handled;
                      process node eff;
                      commit node;
                      reply ~lossy:true
                        ~on_lost:(fun () ->
                          reject s span ~probe:true ~retries_left
                            ~deg:ST.Deg_in_doubt)
                        (fun () ->
                          serve_write s span ~h ~dot ~outcome:ST.Ok_served)))
      and note_served s span h =
        span.ST.oserved_by <- h;
        span.ST.odone_at <- Some (nowf ());
        (match s.ST.served_home with
        | Some prev when prev <> h ->
            migrations :=
              {
                ST.msid = s.ST.sid;
                mat = nowf ();
                mfrom = prev;
                mto = h;
                mcarried = scfg.ST.handoff;
              }
              :: !migrations;
            Metrics.incr p_migr
        | _ -> ());
        s.ST.served_home <- Some h;
        Metrics.incr p_ops;
        observe_latency span
      and serve_write s span ~h ~dot ~outcome =
        span.ST.odot <- Some dot;
        span.ST.ooutcome <- Some outcome;
        note_served s span h;
        join_dot s dot;
        s.ST.acked <-
          Dsm_memory.Operation.write ~proc:(Dot.replica dot)
            ~seq:(Dot.seq dot) ~var:span.ST.ovar
            ~value:(ST.op_value ~sid:s.ST.sid ~op:span.ST.oseq)
          :: s.ST.acked;
        incr s_writes;
        Metrics.incr p_writes;
        next_op s
      and serve_read s span ~h ~value ~read_from =
        span.ST.odot <- read_from;
        span.ST.ooutcome <- Some ST.Ok_served;
        note_served s span h;
        (match read_from with Some d -> join_dot s d | None -> ());
        s.ST.acked <-
          Dsm_memory.Operation.read ~proc:s.ST.sid ~slot:s.ST.reads_done
            ~var:span.ST.ovar ~value ~read_from
          :: s.ST.acked;
        s.ST.reads_done <- s.ST.reads_done + 1;
        incr s_reads;
        Metrics.incr p_reads;
        next_op s
      in
      Array.iter next_op sess;
      session_finalize :=
        fun history ->
          let streams =
            Array.to_list
              (Array.map (fun s -> (s.ST.sid, List.rev s.ST.acked)) sess)
          in
          let all_spans = List.rev !spans in
          let violations =
            ST.audit ~execution ~history ~spans:all_spans
              ~home_crashed_after:(fun ~home ~t ->
                nodes.(home).last_crash > t)
              ~streams ()
          in
          let duplicate_writes = ST.duplicate_writes history in
          let degraded =
            List.filter
              (fun sp ->
                match sp.ST.ooutcome with
                | Some
                    ( ST.Deg_blocked | ST.Deg_in_doubt
                    | ST.Deg_unreachable ) ->
                    true
                | _ -> false)
              all_spans
          in
          Some
            {
              ST.cfg = scfg;
              streams;
              spans = all_spans;
              migrations = List.rev !migrations;
              ops_done = !s_writes + !s_reads;
              writes_done = !s_writes;
              reads_done = !s_reads;
              retries = !s_retries;
              blocked_rejections = !s_blocked;
              unavailable_rejections = !s_unavail;
              dedup_hits = !s_dedup;
              replies_lost = !s_lost;
              degraded;
              duplicate_writes;
              violations;
              write_latencies = List.rev !wlat;
              read_latencies = List.rev !rlat;
            });

  let drain phase =
    match Engine.run ~max_steps engine with
    | Engine.Drained -> ()
    | Engine.Hit_step_limit ->
        failwith
          (Printf.sprintf
             "Churn_campaign: %s did not quiesce within %d events (%s)"
             P.name max_steps phase)
    | Engine.Hit_time_limit -> assert false
  in
  drain "main phase";

  (* ---- final anti-entropy fixpoint --------------------------------- *)
  (* sync until nothing new moves.  Under churn every active member
     asks around — joiners pick up writes that raced their view change,
     survivors pick up a rejoiner's re-supplied pre-crash writes.
     Without churn only recovered crashers ask: a write still buffered
     at every peer when the last in-run round fired is picked up here,
     after everything quiesced. *)
  (* detector-driven view changes count as churn: rejoiners with
     quarantined pre-bump traffic need every active member to ask *)
  let churny = Fault_plan.has_churn plan || fd_on in
  let rec final_sync iter =
    let before = !replayed_writes in
    let asked = ref false in
    List.iter
      (fun p ->
        let node = nodes.(p) in
        if (not node.down) && (churny || node.ever_crashed) then begin
          asked := true;
          Engine.schedule_after engine 1. (fun () ->
              if not node.down then send_sync_request node)
        end)
      (Membership.active membership);
    if !asked then begin
      drain "final sync";
      if !replayed_writes > before && iter < 32 then final_sync (iter + 1)
    end
  in
  final_sync 0;

  (* ---- settle phase ------------------------------------------------ *)
  let live () =
    List.filter_map
      (fun p ->
        let node = nodes.(p) in
        if node.down then None else Some node)
      (Membership.active membership)
  in
  if settle then begin
    List.iter
      (fun node ->
        Engine.schedule_after engine 1. (fun () ->
            if not node.down then begin
              for var = 0 to m - 1 do
                let value, read_from = P.read (proto_of node) ~var in
                record node (Execution.Return { var; value; read_from })
              done;
              for var = 0 to m - 1 do
                node.write_seq <- node.write_seq + 1;
                let value =
                  Sim_run.write_value ~proc:node.id ~seq:node.write_seq
                in
                let _, eff = P.write (proto_of node) ~var ~value in
                process node eff
              done;
              commit node
            end);
        drain "settle")
      (live ());
    List.iter
      (fun node ->
        Engine.schedule_after engine 1. (fun () ->
            if not node.down then begin
              for var = 0 to m - 1 do
                let value, read_from = P.read (proto_of node) ~var in
                record node (Execution.Return { var; value; read_from })
              done;
              commit node
            end))
      (live ());
    drain "settle reads"
  end;
  List.iter (fun node -> commit node) (live ());

  if Metrics.enabled metrics then begin
    let live_protos = List.map proto_of (live ()) in
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 live_protos in
    let max_of f = List.fold_left (fun acc t -> max acc (f t)) 0 live_protos in
    Metrics.add (Metrics.counter metrics "buffer_wakeup_scans")
      (sum P.buffer_wakeup_scans);
    Metrics.add (Metrics.counter metrics "buffer_total_buffered")
      (sum P.total_buffered);
    Metrics.set (Metrics.gauge metrics "buffer_high_watermark")
      (max_of P.buffer_high_watermark)
  end;

  (* ---- verification ------------------------------------------------ *)
  let final_states =
    List.map
      (fun node ->
        {
          sproc = node.id;
          sapplied = V.to_array (P.applied_vector (proto_of node));
          sclock = V.to_array (P.local_clock (proto_of node));
          sstore = List.init m (fun var -> P.read (proto_of node) ~var);
        })
      (live ())
  in
  let live_equal =
    match final_states with
    | [] | [ _ ] -> true
    | first :: rest ->
        List.for_all
          (fun s ->
            s.sapplied = first.sapplied
            && s.sstore = first.sstore
            && ((not settle) || s.sclock = first.sclock))
          rest
  in
  let active_at_end = Membership.active membership in
  (* completeness is owed by the final view's active members; safety
     and read legality stay unconditional for every slot that ever ran *)
  let report =
    Checker.check
      ~expected:(fun ~proc ~dot:_ ->
        Membership.is_active membership proc
        && not nodes.(proc).down)
      execution
  in
  let quarantine_leaks = count_quarantine_leaks execution in
  let history = Execution.to_history execution in
  let session_report = !session_finalize history in
  {
    execution;
    history;
    report;
    protocol_name = P.name;
    plan;
    membership;
    final_epoch = Membership.epoch membership;
    joins = !joins;
    rejoins = !rejoins;
    leaves = !leaves;
    catch_ups = List.rev !catch_ups;
    detector;
    heartbeats_sent = !heartbeats;
    suspicions = List.rev !suspicions;
    false_suspicions = !false_suspicions;
    refutations = !refutations;
    view_reasons = List.rev !reasons;
    transfer_bytes = !transfer_bytes;
    quarantine_leaks;
    sessions = session_report;
    active_at_end;
    final_states;
    live_equal;
    clean = Checker.is_clean report && quarantine_leaks = 0;
    commits = !commits;
    snapshot_bytes = !snapshot_bytes;
    rolled_back_events = !rolled_back;
    ops_skipped_inactive = !ops_skipped;
    sync_requests = !sync_requests;
    sync_replies = !sync_replies;
    replayed_writes = !replayed_writes;
    stale_deliveries_dropped = !stale_dropped;
    chan_stale_quarantined = Reliable_channel.stale_quarantined channel;
    net_stale_dropped = Network.messages_stale_dropped network;
    net_nonmember_dropped = Network.messages_nonmember_dropped network;
    net_oneway_dropped = Network.messages_oneway_dropped network;
    net_flap_dropped = Network.messages_flap_dropped network;
    net_delay_inflated = Network.messages_delay_inflated network;
    net_partition_dropped = Network.messages_partition_dropped network;
    net_crash_dropped = Network.messages_crash_dropped network;
    corrupt_dropped = Reliable_channel.corrupt_dropped channel;
    aborted_payloads = !aborted;
    payloads_sent = Reliable_channel.payloads_sent channel;
    frames_sent = Network.messages_sent network;
    retransmissions = Reliable_channel.retransmissions channel;
    duplicates_discarded = Reliable_channel.duplicates_discarded channel;
    engine_steps = Engine.steps_executed engine;
    end_time = nowf ();
  }

let catch_up_latency c =
  Option.map (fun t -> t -. c.started_at) c.converged_at

let pp_catch_up_kind ppf = function
  | Fresh_join -> Format.pp_print_string ppf "join"
  | Rejoin -> Format.pp_print_string ppf "rejoin"
  | Recover -> Format.pp_print_string ppf "recover"

let pp_catch_up ppf c =
  Format.fprintf ppf "p%d %a@%.1f transfer=%d(%dB) replayed=%d%s"
    (c.cproc + 1) pp_catch_up_kind c.ckind c.started_at c.transfer_writes
    c.transfer_bytes c.replayed
    (match catch_up_latency c with
    | Some l -> Printf.sprintf " converged=+%.1f" l
    | None -> " never converged")

let pp_suspicion ppf s =
  Format.fprintf ppf "p%d suspected by p%d@%.1f phi=%.2f %s%s"
    (s.speer + 1) (s.sobserver + 1) s.sat s.sphi
    (if s.strue then
       match s.slatency with
       | Some l -> Printf.sprintf "(down, detected +%.1f)" l
       | None -> "(down)"
     else "(false positive)")
    (match s.srefuted_at with
    | Some t -> Printf.sprintf " refuted@%.1f" t
    | None -> "")

let pp_view_reason ppf (epoch, at, why) =
  Format.fprintf ppf "epoch %d @%.1f: %s" epoch at why

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s churn campaign: %d joins / %d rejoins / %d leaves over %d \
     epochs, %d transfer bytes, sync %d req / %d replies, %d replayed \
     writes, %d stale quarantined, %d stale-dropped, %d nonmember-dropped \
     frames, %d quarantine leaks; live_equal=%b clean=%b t_end=%.1f@,%a"
    o.protocol_name o.joins o.rejoins o.leaves o.final_epoch
    o.transfer_bytes o.sync_requests o.sync_replies o.replayed_writes
    o.chan_stale_quarantined o.net_stale_dropped o.net_nonmember_dropped
    o.quarantine_leaks o.live_equal o.clean o.end_time
    (Format.pp_print_list pp_catch_up)
    o.catch_ups;
  (match o.detector with
  | None -> ()
  | Some cfg ->
      if o.catch_ups <> [] then Format.fprintf ppf "@,";
      Format.fprintf ppf
        "fd: threshold=%.1f heartbeat=%.1f — %d heartbeats, %d \
         suspicions (%d false), %d refutations"
        cfg.Failure_detector.threshold
        cfg.Failure_detector.heartbeat_every o.heartbeats_sent
        (List.length o.suspicions)
        o.false_suspicions o.refutations;
      if o.suspicions <> [] then
        Format.fprintf ppf "@,%a"
          (Format.pp_print_list pp_suspicion)
          o.suspicions;
      if o.view_reasons <> [] then
        Format.fprintf ppf "@,%a"
          (Format.pp_print_list pp_view_reason)
          o.view_reasons);
  Format.fprintf ppf "@]"
