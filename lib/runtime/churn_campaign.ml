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

type catch_up_kind = Replica_host.catch_up_kind =
  | Fresh_join
  | Rejoin
  | Recover

type catch_up = Replica_host.catch_up = {
  cproc : int;
  ckind : catch_up_kind;
  started_at : float;
  crashed_at : float option;
  rolled_back : int;
  mutable transfer_writes : int;
  mutable transfer_gap : int;
  mutable transfer_bytes : int;
  mutable replayed : int;
  mutable target : int array option;
  mutable converged_at : float option;
}

type replica_state = {
  sproc : int;
  sapplied : int array;
  sclock : int array;
  sstore : (Dsm_memory.Operation.value * Dot.t option) list;
}

type suspicion = Failure_detector.suspicion = {
  speer : int;
  sobserver : int;
  sphi : float;
  sat : float;
  strue : bool;
  slatency : float option;
  mutable srefuted_at : float option;
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

module Dot_tbl = Hashtbl.Make (Dot)

(* a dot's first (var, value) binding, and the processes that applied it *)
type binding = { var : int; value : int; applied_at : Bytes.t }

(* ghost-dot audit: the quarantine must keep stale incarnation traffic
   out of [Apply].  Two independently checkable symptoms of a leak:
   the same dot applied twice at one process (a stale retransmission
   slipping past the post-crash dedup reset), or one dot observed with
   two different (var, value) bindings anywhere (a forged or corrupted
   write surviving the checksum layer). *)
let count_quarantine_leaks execution =
  let module Row = Execution.Row in
  let n = Execution.n_processes execution in
  let seen = Dot_tbl.create 256 in
  let leaks = ref 0 in
  Row.iter
    (fun proc l i ->
      match Row.tag l i with
      | (Row.Send | Row.Apply) as tag ->
          let dot = Row.dot l i in
          let var = Row.var l i and value = Row.value l i in
          let b =
            match Dot_tbl.find seen dot with
            | b ->
                if var <> b.var || value <> b.value then incr leaks;
                b
            | exception Not_found ->
                let b = { var; value; applied_at = Bytes.make n '\000' } in
                Dot_tbl.add seen dot b;
                b
          in
          if tag = Row.Apply then
            if Bytes.get b.applied_at proc = '\001' then incr leaks
            else Bytes.set b.applied_at proc '\001'
      | Row.Receipt | Row.Blocked | Row.Skip | Row.Return -> ())
    execution;
  !leaks

(* anti-entropy after a join or a rejoin: [sync_rounds] requests,
   [sync_interval] apart; a graceful leave polls its send queue every
   [flush_poll] until it drains *)
let sync_rounds = 2
let sync_interval = 100.
let flush_poll = 10.

let run (type pt pm)
    (module P : Protocol.S with type t = pt and type msg = pm) ~spec
    ~latency ?(faults = Network.no_faults) ~plan ~initial ?detector
    ?(mixed = false) ?sessions ?(checkpoint_every = 50.) ?(settle = true)
    ?(retransmit_after = 50.) ?(seed = 1) ?(max_steps = 20_000_000)
    ?(metrics = Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.) () =
  let protocol =
    (module P : Protocol.S with type t = pt and type msg = pm)
  in
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
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network =
    Replica_host.network protocol ~engine ~rng ~n:universe ~latency ~faults
      ~metrics ~wire ()
  in
  (* the later of [from] and the last plan event *)
  let past_plan from =
    List.fold_left
      (fun acc ev -> Float.max acc (Sim_time.to_float (Fault_plan.time ev)))
      from plan
  in
  Replica_host.schedule_scrapes engine recorder ~every:scrape_every
    ~horizon:(fun () -> past_plan (Replica_host.ops_horizon schedule));
  let channel =
    Reliable_channel.create ~engine ~network ~retransmit_after ~rng
      ~metrics ()
  in
  let membership = Membership.create ~universe ~initial:initial_slots () in
  let probe_epoch = Metrics.gauge metrics "membership_epoch" in
  let probe_active = Metrics.gauge metrics "membership_active" in
  let probe_joins = Metrics.counter metrics "membership_joins_total" in
  let probe_rejoins = Metrics.counter metrics "membership_rejoins_total" in
  let probe_leaves = Metrics.counter metrics "membership_leaves_total" in
  let host =
    Replica_host.create protocol ~engine ~network ~channel ~membership
      ~execution:(Execution.create ~n:universe ~m ())
      ~m ~width:initial
      ~initial:(fun id ->
        if id < initial then
          Some (P.create (Protocol.config ~n:initial ~m) ~me:id)
        else None)
      ~sync_rounds ~sync_every:sync_interval ~metrics
  in
  let nodes = host.Replica_host.slots in
  let proto_of = Replica_host.proto in
  let sync_view () =
    Network.set_epoch network (Membership.epoch membership);
    Metrics.set probe_epoch (Membership.epoch membership);
    Metrics.set probe_active (List.length (Membership.active membership))
  in
  let nowf () = Sim_time.to_float (Engine.now engine) in
  let joins = ref 0 in
  let rejoins = ref 0 in
  let leaves = ref 0 in
  let ops_skipped = ref 0 in
  let reasons = ref [] in
  (* view-change provenance: one line per epoch bump, recorded right
     after the transition so the epoch stamp is the view it produced *)
  let push_reason fmt =
    Printf.ksprintf
      (fun why ->
        reasons := (Membership.epoch membership, nowf (), why) :: !reasons)
      fmt
  in
  (* the one rejoin, for a plan crash-rejoin and a refuted suspicion
     alike: same slot, fresh incarnation — everything its previous life
     still has on the wire is now stale — then a delta transfer and
     anti-entropy rounds, group-wide since its pre-crash writes may have
     died quarantined on the wire *)
  let rejoin node ~crashed_at ~rolled_back =
    Replica_host.bump_incarnation host node.Replica_host.id;
    incr rejoins;
    Metrics.incr probe_rejoins;
    let c =
      Replica_host.start_catch_up host node Rejoin ?crashed_at ~rolled_back
    in
    Replica_host.transfer host c node;
    Replica_host.catch_up host node;
    Replica_host.group_sync host ~rounds:sync_rounds ()
  in
  (* emergent membership: a suspicion marks the peer down, a refuting
     heartbeat re-admits it through the rejoin *)
  let fd =
    Failure_detector.plane detector host ~metrics
      ~on_suspect:(fun ~observer ~peer ~phi ->
        Membership.crash membership ~at:(Engine.now engine) peer;
        sync_view ();
        push_reason "p%d suspected by p%d (phi=%.2f)" (peer + 1)
          (observer + 1) phi)
      ~on_refute:(fun ~peer ~witness ~sent ->
        Membership.join membership ~at:(Engine.now engine) peer;
        sync_view ();
        push_reason
          "p%d rejoined: heartbeat sent@%.1f to p%d refuted the suspicion"
          (peer + 1) sent (witness + 1);
        rejoin nodes.(peer) ~crashed_at:None ~rolled_back:0)
  in
  Metrics.set probe_active initial;

  (* ---- churn and fault plan wiring --------------------------------- *)
  (* The one plan peek: whether a crashed slot ever re-enters the view
     is a fact about the future.  It only gates the corpse's send-queue
     abandonment — a slot that will rejoin keeps its armed timers, and
     those zombie retransmissions are exactly the stale-incarnation
     traffic the channel quarantine must eat. *)
  let permanently_down = Fault_plan.down_at_end plan in
  let on_crash p =
    let node = nodes.(p) in
    (* scripted mode: the plan is the membership oracle.  In emergent
       mode a crash is a purely physical event — the view only changes
       when a detector's accrued suspicion says so.  In mixed mode a
       scripted crash is operator knowledge — the view reflects it
       immediately, and the detector (which only judges active peers)
       never has to discover it; skipped when a suspicion already
       marked the slot down. *)
    if (not fd_on) || (mixed && Membership.is_active membership p) then begin
      Membership.crash membership ~at:(Engine.now engine) p;
      sync_view ();
      push_reason "p%d crashed (plan)" (p + 1)
    end;
    Replica_host.crash host node;
    if List.mem p permanently_down then begin
      host.aborted <-
        host.aborted + Reliable_channel.abort_sender channel ~peer:p;
      Replica_host.group_sync host ~rounds:sync_rounds ()
    end
  in
  let on_recover p =
    let node = nodes.(p) in
    (* in mixed mode the scripted crash put the slot down in the view
       (or a suspicion did); a scripted recover re-admits it under the
       same incarnation, as a static recovery does *)
    if (not fd_on) || (mixed && not (Membership.is_active membership p))
    then begin
      Membership.recover membership ~at:(Engine.now engine) p;
      sync_view ();
      push_reason "p%d recovered (plan)" (p + 1)
    end;
    node.down <- false;
    Network.mark_recovered network p;
    let rolled_back = Replica_host.restore host node in
    (* the slot heard nothing while down: re-arm its own arrival clocks
       or it would instantly suspect every peer — and in mixed mode the
       peers heard nothing from it while it was down but outside the
       view: without a re-arm its pre-crash silence would be suspected
       on the next accrual tick *)
    Failure_detector.rearm fd ~peers:mixed p;
    (* if a detector already turned this crash into a [Down], the
       catch-up belongs to the refutation-driven rejoin: the slot's
       resumed heartbeats will re-admit it *)
    if (not fd_on) || Membership.is_active membership p then begin
      ignore
        (Replica_host.start_catch_up host node Recover
           ~crashed_at:node.last_crash ~rolled_back);
      Replica_host.catch_up host node
    end
  in
  let on_join p =
    let node = nodes.(p) in
    let fresh = not (Membership.is_member membership p) in
    Membership.join membership ~at:(Engine.now engine) p;
    Replica_host.grow host ~n:(p + 1);
    sync_view ();
    (* mixed mode: the detectors were seeded at t=0, so without a
       re-arm a scripted joiner entering mid-run would look silent since
       the beginning of time and be suspected on the next accrual tick.
       Fresh clocks on both sides, exactly as the refutation does. *)
    Failure_detector.readmit fd p;
    if fresh then begin
      (* bootstrap: empty state, then the sponsor's transfer (the full
         log: a fresh joiner's vector is all zeros) arrives through the
         normal receive path *)
      push_reason "p%d joined (plan)" (p + 1);
      node.proto <-
        Some (P.create (Protocol.config ~n:host.width ~m) ~me:p);
      Replica_host.reset_log node;
      incr joins;
      Metrics.incr probe_joins;
      let c = Replica_host.start_catch_up host node Fresh_join in
      Replica_host.transfer host c node;
      Replica_host.catch_up host node
    end
    else begin
      push_reason "p%d rejoined (plan)" (p + 1);
      node.down <- false;
      let rolled_back = Replica_host.restore host node in
      rejoin node ~crashed_at:(Some node.last_crash) ~rolled_back
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
      Replica_host.commit host node;
      (* record the departing occupant's final write counter: the
         retired-generation ledger needs it to resolve this occupant's
         dots, and the slot-reuse gate compares the cluster Apply floor
         against it before recycling the slot *)
      let final = V.get0 (Replica_host.applied host node) p in
      Membership.leave membership ~at:(Engine.now engine) ~final p;
      sync_view ();
      push_reason "p%d left gracefully (plan)" (p + 1);
      (* frames still in flight toward the retired slot would
         retransmit forever against nonmember drops *)
      Replica_host.abort_peer host p;
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
                    ignore (Replica_host.write host node ~var ~value);
                    Replica_host.commit host node
                | Spec.Do_read { var } ->
                    ignore (Replica_host.read host node ~var)))
        ops)
    schedule;

  let horizon =
    let base = past_plan (Dsm_workload.Generator.end_time schedule) in
    (* the session tier keeps issuing past the replica op streams; fold
       its nominal duration in so detector gossip outlasts the sessions *)
    match sessions with
    | None -> base
    | Some (sc : Session_tier.config) ->
        Float.max base
          (sc.Session_tier.think_mean
          *. float_of_int (sc.Session_tier.ops_per_session + 2))
  in

  Failure_detector.start fd ~horizon;

  let rec schedule_checkpoints at =
    if at <= horizon +. checkpoint_every then begin
      Engine.schedule_at engine (Sim_time.of_float at) (fun () ->
          List.iter
            (fun p ->
              let node = nodes.(p) in
              if not node.down then Replica_host.commit host node)
            (Membership.active membership));
      schedule_checkpoints (at +. checkpoint_every)
    end
  in
  schedule_checkpoints checkpoint_every;

  (* ---- session tier ------------------------------------------------ *)
  let finish_sessions =
    Option.map
      (fun scfg -> Session_tier.start scfg host ~latency ~seed ~metrics)
      sessions
  in

  let drain phase =
    Replica_host.drain engine ~max_steps
      (Printf.sprintf "Churn_campaign: %s (%s)" P.name phase)
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
     quarantined pre-bump traffic need every active member to ask.  So
     does a permanent crash: a survivor may apply a corpse's write it
     held buffered only after the survivors' gossip rounds, and only
     another survivor's request can carry it on from there. *)
  let churny = Fault_plan.has_churn plan || fd_on || permanently_down <> [] in
  let rec final_sync iter =
    let before = host.replayed_writes in
    let asked = ref false in
    List.iter
      (fun p ->
        let node = nodes.(p) in
        if (not node.down) && (churny || node.ever_crashed) then begin
          asked := true;
          Engine.schedule_after engine 1. (fun () ->
              if not node.down then Replica_host.sync_request host node)
        end)
      (Membership.active membership);
    if !asked then begin
      drain "final sync";
      if host.replayed_writes > before && iter < 32 then final_sync (iter + 1)
    end
  in
  final_sync 0;

  (* ---- settle phase ------------------------------------------------ *)
  let live () =
    List.filter
      (fun node -> not node.Replica_host.down)
      (List.map (Array.get nodes) (Membership.active membership))
  in
  if settle then begin
    List.iter
      (fun node ->
        Engine.schedule_after engine 1. (fun () ->
            if not node.Replica_host.down then begin
              for var = 0 to m - 1 do
                ignore (Replica_host.read host node ~var)
              done;
              for var = 0 to m - 1 do
                node.write_seq <- node.write_seq + 1;
                let value =
                  Sim_run.write_value ~proc:node.id ~seq:node.write_seq
                in
                ignore (Replica_host.write host node ~var ~value)
              done;
              Replica_host.commit host node
            end);
        drain "settle")
      (live ());
    List.iter
      (fun node ->
        Engine.schedule_after engine 1. (fun () ->
            if not node.Replica_host.down then begin
              for var = 0 to m - 1 do
                ignore (Replica_host.read host node ~var)
              done;
              Replica_host.commit host node
            end))
      (live ());
    drain "settle reads"
  end;
  List.iter (Replica_host.commit host) (live ());

  Replica_host.scrape_buffers protocol metrics (List.map proto_of (live ()));

  (* ---- verification ------------------------------------------------ *)
  let final_states =
    List.map
      (fun node ->
        {
          sproc = node.Replica_host.id;
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
      host.execution
  in
  let quarantine_leaks = count_quarantine_leaks host.execution in
  let history = Execution.to_history host.execution in
  {
    execution = host.execution;
    history;
    report;
    protocol_name = P.name;
    plan;
    membership;
    final_epoch = Membership.epoch membership;
    joins = !joins;
    rejoins = !rejoins;
    leaves = !leaves;
    catch_ups = List.rev host.catch_ups;
    detector;
    heartbeats_sent = Failure_detector.heartbeats_sent fd;
    suspicions = Failure_detector.suspicions fd;
    false_suspicions = Failure_detector.false_suspicions fd;
    refutations = Failure_detector.refutations fd;
    view_reasons = List.rev !reasons;
    transfer_bytes = host.transfer_bytes;
    quarantine_leaks;
    sessions = Option.map (fun finish -> finish history) finish_sessions;
    active_at_end;
    final_states;
    live_equal;
    clean = Checker.is_clean report && quarantine_leaks = 0;
    commits = host.commits;
    snapshot_bytes = host.snapshot_bytes;
    rolled_back_events = host.rolled_back;
    ops_skipped_inactive = !ops_skipped;
    sync_requests = host.sync_requests;
    sync_replies = host.sync_replies;
    replayed_writes = host.replayed_writes;
    stale_deliveries_dropped = host.stale_dropped;
    chan_stale_quarantined = Reliable_channel.stale_quarantined channel;
    net_stale_dropped = Network.messages_stale_dropped network;
    net_nonmember_dropped = Network.messages_nonmember_dropped network;
    net_oneway_dropped = Network.messages_oneway_dropped network;
    net_flap_dropped = Network.messages_flap_dropped network;
    net_delay_inflated = Network.messages_delay_inflated network;
    net_partition_dropped = Network.messages_partition_dropped network;
    net_crash_dropped = Network.messages_crash_dropped network;
    corrupt_dropped = Reliable_channel.corrupt_dropped channel;
    aborted_payloads = host.aborted;
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
