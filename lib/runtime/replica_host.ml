module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Sim_time = Dsm_sim.Sim_time
module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Metrics = Dsm_obs.Metrics
module Wire = Dsm_obs.Wire

type ('p, 'm) protocol = (module Protocol.S with type t = 'p and type msg = 'm)

(* ---- the effect-to-event rule -------------------------------------- *)

(* A writing-semantics skip is the logical apply of the overwritten
   write "immediately before" its overwriter's apply, so skips are
   recorded first; each outbound message records one Send per carried
   write before it leaves. The lists are walked by top-level functions:
   a [List.iter] closure over [record] and [proc] would be built on
   every receive that applies a write. *)
let rec record_skips record proc = function
  | [] -> ()
  | dot :: rest ->
      record proc (Execution.Skip { dot });
      record_skips record proc rest

let rec record_applies record proc = function
  | [] -> ()
  | (a : Protocol.apply_record) :: rest ->
      record proc
        (Execution.Apply
           { dot = a.adot; var = a.avar; value = a.avalue; delayed = a.afrom_buffer });
      record_applies record proc rest

let rec record_sends record proc = function
  | [] -> ()
  | (dot, var, value) :: rest ->
      record proc (Execution.Send { dot; var; value });
      record_sends record proc rest

let step (type p m) (protocol : (p, m) protocol) ~record ~transmit proc
    (eff : m Protocol.effects) =
  let module P = (val protocol) in
  record_skips record proc eff.skipped;
  record_applies record proc eff.applied;
  match eff.to_send with
  | [] -> ()
  | l ->
      List.iter
        (fun outbound ->
          let msg =
            match outbound with
            | Protocol.Broadcast msg | Protocol.Unicast { msg; _ } -> msg
          in
          record_sends record proc (P.msg_writes msg);
          transmit proc outbound)
        l

(* one row per carried write, walked by top-level functions: a
   [List.iter] closure over [record], [proc] and [src] would be built
   on every delivery *)
let rec record_receipts record proc src = function
  | [] -> ()
  | (dot, _, _) :: rest ->
      record proc (Execution.Receipt { dot; src });
      record_receipts record proc src rest

let rec record_blocked record proc waiting_for = function
  | [] -> ()
  | (dot, _, _) :: rest ->
      record proc (Execution.Blocked { dot; waiting_for });
      record_blocked record proc waiting_for rest

(* [writes] is [P.msg_writes msg], computed once by the caller *)
let receive_writes (type p m) (protocol : (p, m) protocol) ~record ~transmit
    proc t ~src msg writes =
  let module P = (val protocol) in
  record_receipts record proc src writes;
  let eff = P.receive t ~src msg in
  (* the receive names the wakeup constraint of a message it buffered *)
  (match eff.Protocol.waiting_for with
  | Some waiting_for -> record_blocked record proc waiting_for writes
  | None -> ());
  step protocol ~record ~transmit proc eff

let receive (type p m) (protocol : (p, m) protocol) ~record ~transmit proc t
    ~src msg =
  let module P = (val protocol) in
  receive_writes protocol ~record ~transmit proc t ~src msg (P.msg_writes msg)

(* ---- quiescence and the flight recorder ---------------------------- *)

let drain engine ~max_steps what =
  match Engine.run ~max_steps engine with
  | Engine.Drained -> ()
  | Engine.Hit_step_limit ->
      failwith
        (Printf.sprintf "%s did not quiesce within %d events" what max_steps)
  | Engine.Hit_time_limit -> assert false (* no [until] given *)

(* Periodic registry scrapes on the sim clock, bounded to [horizon] so
   the tick stream cannot keep the queue alive past the run's last
   scheduled input. Ticks are pure registry reads — no RNG draw, no
   protocol state — so the run's observable outcome is unchanged. *)
let schedule_scrapes engine recorder ~every ~horizon =
  if Dsm_obs.Timeseries.enabled recorder then begin
    let horizon = horizon () in
    if horizon >= every then
      Engine.schedule_every engine ~every ~until:(Sim_time.of_float horizon)
        (fun () ->
          Dsm_obs.Timeseries.scrape recorder
            ~now:(Sim_time.to_float (Engine.now engine)))
  end

(* end-of-run scrape of the counters protocols keep internally *)
let scrape_buffers (type p m) (protocol : (p, m) protocol) metrics protos =
  if Metrics.enabled metrics then begin
    let module P = (val protocol) in
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 protos in
    let max_of f = List.fold_left (fun acc t -> max acc (f t)) 0 protos in
    Metrics.add (Metrics.counter metrics "buffer_wakeup_scans")
      (sum P.buffer_wakeup_scans);
    Metrics.add (Metrics.counter metrics "buffer_total_buffered")
      (sum P.total_buffered);
    Metrics.set (Metrics.gauge metrics "buffer_high_watermark")
      (max_of P.buffer_high_watermark)
  end

let ops_horizon schedule =
  Array.fold_left
    (fun acc ops ->
      List.fold_left
        (fun acc { Dsm_workload.Spec.at; _ } -> Float.max acc at)
        acc ops)
    0. schedule

(* ---- the durable host ---------------------------------------------- *)

type 'msg envelope =
  | Proto of 'msg
  | Sync_request of { vec : int array }
  | Sync_reply of { vec : int array; writes : 'msg list }
  | Transfer of { vec : int array; writes : 'msg list }
  | Heartbeat of { sent : float }

(* frame-shape measurer over the envelope, for the byte-cost
   accountant: protocol messages keep their own shape, anti-entropy
   traffic appears under a "sync" cause (a request is one vector, a
   reply its vector plus every carried write's shape), transfers under
   their own cause (they carry whole log suffixes — the dominant churn
   wire cost), heartbeats as one scalar *)
let wire_of_env msg_frame env =
  (* one pass: the carried writes' frames are summed and their vectors
     gathered in reverse, then reversed behind the envelope's own
     vector (the delta positions follow this order); appending each
     write's vectors to the list so far was quadratic in the writes *)
  let vec_plus_writes ~kind ~scalars vec writes =
    let scalars, dots, rev_vectors =
      List.fold_left
        (fun (scalars, dots, rev) m ->
          let f = msg_frame m in
          ( scalars + f.Wire.scalars,
            dots + f.Wire.dots,
            List.rev_append f.Wire.vectors rev ))
        (scalars, 0, []) writes
    in
    { Wire.kind; scalars; dots; vectors = V.of_array vec :: List.rev rev_vectors }
  in
  match env with
  | Proto m -> msg_frame m
  | Sync_request { vec } ->
      {
        Wire.kind = "sync";
        scalars = 0;
        dots = 0;
        vectors = [ V.of_array vec ];
      }
  | Sync_reply { vec; writes } ->
      vec_plus_writes ~kind:"sync" ~scalars:1 vec writes
  | Transfer { vec; writes } ->
      vec_plus_writes ~kind:"transfer" ~scalars:1 vec writes
  | Heartbeat _ ->
      { Wire.kind = "heartbeat"; scalars = 1; dots = 0; vectors = [] }

let network (type p m) (protocol : (p, m) protocol) ~engine ~rng ~n ~latency
    ~faults ?metrics ~wire () =
  let module P = (val protocol) in
  let measure = Reliable_channel.wire_frame (wire_of_env P.msg_frame) in
  Network.create ~engine ~rng ~n
    ~latency:(fun ~src:_ ~dst:_ -> latency)
    ~faults ~mangle:Reliable_channel.corrupt_frame ?metrics
    ~wire ~measure
    ~sizer:(fun f -> Wire.frame_bytes (measure f))
    ()

type catch_up_kind = Fresh_join | Rejoin | Recover

type catch_up = {
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

(* The last commit. The log is a base image of the whole table followed
   by one segment per later commit that logged something: the bindings
   [log_outbound] made since the commit before, in order. Replaying the
   segments over the base with [Hashtbl.replace] repeats the live
   table's own updates, so the restored table has the same bindings in
   the same bucket order. A reset or a reclamation sets [rebase]: the
   next commit encodes the whole table again, and until then a restore
   still rebuilds the log as it was committed. *)
type 'm durable = {
  mutable image : (Protocol.config * string) option;
      (* config at commit, protocol snapshot *)
  mutable base : string;
  mutable segments : string list;  (* newest first *)
  mutable pending : (Dot.t * 'm) list;
      (* bound since the last commit, newest first; empty while [rebase] *)
  mutable rebase : bool;
}

let no_durable () =
  { image = None; base = ""; segments = []; pending = []; rebase = true }

type ('p, 'm) slot = {
  id : int;
  mutable proto : 'p option;
  mutable down : bool;
  mutable ever_crashed : bool;
  mutable leaving : bool;
  durable : 'm durable;
  mutable log : (Dot.t, 'm) Hashtbl.t;
  mutable staged : (Sim_time.t * Execution.kind) list;
  mutable staged_count : int;
  mutable write_seq : int;
  mutable last_crash : float;
  mutable cur : catch_up option;
}

type probes = {
  transfer_bytes_p : Metrics.counter;
  join_latency : Metrics.histogram;
  checkpoints : Metrics.counter;
  checkpoint_bytes : Metrics.counter;
  rollback_depth : Metrics.histogram;
  replayed : Metrics.counter;
  requests : Metrics.counter;
  replies : Metrics.counter;
}

(* what the drivers never touch: pre-resolved instruments, and the
   staging and sending closures the shared rule records and transmits
   through *)
type ('p, 'm) internal = {
  probes : probes;
  record : int -> Execution.kind -> unit;
  transmit : int -> 'm Protocol.outbound -> unit;
}

type ('p, 'm) t = {
  protocol : ('p, 'm) protocol;
  m : int;
  engine : Engine.t;
  network : 'm envelope Reliable_channel.frame Network.t;
  channel : 'm envelope Reliable_channel.t;
  membership : Membership.t;
  slots : ('p, 'm) slot array;
  floor : int array;
  sync_rounds : int;
  sync_every : float;
  mutable execution : Execution.t;
  mutable width : int;
  mutable on_send : src:int -> dst:int -> unit;
  mutable on_frame : dst:int -> src:int -> 'm envelope -> unit;
  mutable catch_ups : catch_up list;
  mutable commits : int;
  mutable snapshot_bytes : int;
  mutable rolled_back : int;
  mutable aborted : int;
  mutable replayed_writes : int;
  mutable stale_dropped : int;
  mutable sync_requests : int;
  mutable sync_replies : int;
  mutable transfer_bytes : int;
  internal : ('p, 'm) internal;
}

let nowf h = Sim_time.to_float (Engine.now h.engine)

let proto slot =
  match slot.proto with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "Replica_host: slot %d has no protocol state" slot.id)

let applied (type p m) (h : (p, m) t) slot =
  let module P = (val h.protocol) in
  P.applied_vector (proto slot)

let covered h slot dot =
  V.get0 (applied h slot) (Dot.replica dot) >= Dot.seq dot

let abort_peer h p =
  h.aborted <- h.aborted + Reliable_channel.abort_peer h.channel ~peer:p

(* the membership view is the addressing oracle: senders talk only to
   currently active members; everyone else catches up by transfer or
   anti-entropy when (re)entering the view *)
let send h ~src ~dst env =
  if Membership.is_active h.membership dst then begin
    h.on_send ~src ~dst;
    Reliable_channel.send h.channel ~src ~dst env
  end

(* a rebinding to the physically same message changes nothing the
   next commit must append *)
let log_outbound (type p m) (h : (p, m) t) slot msg =
  let module P = (val h.protocol) in
  let d = slot.durable in
  List.iter
    (fun (dot, _, _) ->
      match Hashtbl.find_opt slot.log dot with
      | Some logged when logged == msg -> ()
      | _ ->
          Hashtbl.replace slot.log dot msg;
          if not d.rebase then d.pending <- (dot, msg) :: d.pending)
    (P.msg_writes msg)

let transmit h src outbound =
  let slot = h.slots.(src) in
  match outbound with
  | Protocol.Broadcast msg ->
      log_outbound h slot msg;
      let env = Proto msg in
      List.iter
        (fun dst -> if dst <> src then send h ~src ~dst env)
        (Membership.active h.membership)
  | Protocol.Unicast { dst; msg } ->
      log_outbound h slot msg;
      send h ~src ~dst (Proto msg)

(* staged until the next commit: a crash discards everything since *)
let stage h p kind =
  let slot = h.slots.(p) in
  slot.staged <- (Engine.now h.engine, kind) :: slot.staged;
  slot.staged_count <- slot.staged_count + 1

let commit (type p m) (h : (p, m) t) slot =
  let module P = (val h.protocol) in
  List.iter
    (fun (time, kind) -> Execution.record h.execution ~proc:slot.id ~time kind)
    (List.rev slot.staged);
  slot.staged <- [];
  slot.staged_count <- 0;
  let d = slot.durable in
  let image = P.snapshot (proto slot) in
  d.image <- Some (Protocol.config ~n:h.width ~m:h.m, image);
  let log_bytes =
    if d.rebase then begin
      d.base <- Protocol.Snapshot.encode slot.log;
      d.segments <- [];
      d.rebase <- false;
      String.length d.base
    end
    else
      match d.pending with
      | [] -> 0
      | bindings ->
          let segment = Protocol.Snapshot.encode (List.rev bindings) in
          d.segments <- segment :: d.segments;
          String.length segment
  in
  d.pending <- [];
  let bytes = String.length image + log_bytes in
  h.commits <- h.commits + 1;
  Metrics.incr h.internal.probes.checkpoints;
  Metrics.add h.internal.probes.checkpoint_bytes bytes;
  h.snapshot_bytes <- h.snapshot_bytes + bytes

let restore (type p m) (h : (p, m) t) slot =
  let module P = (val h.protocol) in
  let before = V.sum (applied h slot) in
  let d = slot.durable in
  (match d.image with
  | Some (cfg0, image) ->
      let t = P.restore cfg0 ~me:slot.id image in
      P.grow t ~n:h.width;
      slot.proto <- Some t;
      let log = Protocol.Snapshot.decode d.base in
      List.iter
        (fun segment ->
          List.iter
            (fun (dot, msg) -> Hashtbl.replace log dot msg)
            (Protocol.Snapshot.decode segment))
        (List.rev d.segments);
      slot.log <- log
  | None ->
      slot.proto <-
        Some (P.create (Protocol.config ~n:h.width ~m:h.m) ~me:slot.id);
      slot.log <- Hashtbl.create 256);
  d.pending <- [];
  let rolled = before - V.sum (applied h slot) in
  Metrics.observe h.internal.probes.rollback_depth (float_of_int rolled);
  rolled

let reset_log slot =
  let d = slot.durable in
  d.image <- None;
  d.base <- "";
  d.segments <- [];
  d.pending <- [];
  d.rebase <- true;
  slot.log <- Hashtbl.create 256

let reclaim_log slot ~below =
  let dead =
    Hashtbl.fold
      (fun dot _ acc ->
        if Dot.seq dot <= below.(Dot.replica dot) then dot :: acc else acc)
      slot.log []
  in
  if dead <> [] then begin
    List.iter (Hashtbl.remove slot.log) dead;
    slot.durable.pending <- [];
    slot.durable.rebase <- true
  end;
  List.length dead

let crash h slot =
  slot.down <- true;
  slot.ever_crashed <- true;
  slot.last_crash <- nowf h;
  h.rolled_back <- h.rolled_back + slot.staged_count;
  slot.staged <- [];
  slot.staged_count <- 0;
  slot.cur <- None;
  Network.mark_crashed h.network slot.id;
  abort_peer h slot.id

let bump_incarnation h p =
  Network.bump_incarnation h.network p;
  Reliable_channel.bump_incarnation h.channel p;
  Network.mark_recovered h.network p

let grow (type p m) (h : (p, m) t) ~n =
  let module P = (val h.protocol) in
  h.width <- max h.width n;
  Array.iter
    (fun slot ->
      match slot.proto with Some t -> P.grow t ~n:h.width | None -> ())
    h.slots

let write (type p m) (h : (p, m) t) slot ~var ~value =
  let module P = (val h.protocol) in
  let dot, eff = P.write (proto slot) ~var ~value in
  let { record; transmit; _ } = h.internal in
  step h.protocol ~record ~transmit slot.id eff;
  dot

let read (type p m) (h : (p, m) t) slot ~var =
  let module P = (val h.protocol) in
  let value, read_from = P.read (proto slot) ~var in
  stage h slot.id (Execution.Return { var; value; read_from });
  (value, read_from)

let check_converged h slot =
  match slot.cur with
  | Some c when c.converged_at = None -> (
      match c.target with
      | None -> ()
      | Some target ->
          let v = applied h slot in
          let ok = ref true in
          Array.iteri
            (fun i want -> if V.get0 v i < want then ok := false)
            target;
          if !ok then begin
            c.converged_at <- Some (nowf h);
            Metrics.observe h.internal.probes.join_latency
              (nowf h -. c.started_at);
            slot.cur <- None
          end)
  | _ -> ()

(* the durable delivery path: an echo of writes already covered is
   dropped here, before the protocol sees it *)
let deliver (type p m) (h : (p, m) t) slot ~src msg =
  let module P = (val h.protocol) in
  log_outbound h slot msg;
  let writes = P.msg_writes msg in
  if
    writes <> []
    && List.for_all (fun (dot, _, _) -> covered h slot dot) writes
  then h.stale_dropped <- h.stale_dropped + 1
  else begin
    let { record; transmit; _ } = h.internal in
    receive_writes h.protocol ~record ~transmit slot.id (proto slot) ~src msg
      writes;
    check_converged h slot
  end

(* ---- anti-entropy -------------------------------------------------- *)

let sync_request h slot =
  let vec = V.to_array (applied h slot) in
  List.iter
    (fun dst ->
      if dst <> slot.id then begin
        h.sync_requests <- h.sync_requests + 1;
        Metrics.incr h.internal.probes.requests;
        Reliable_channel.send h.channel ~src:slot.id ~dst (Sync_request { vec })
      end)
    (Membership.active h.membership)

(* The writes [slot] holds beyond [vec]; [vec] may be narrower or wider
   than the slot's own clock — out-of-range components are implicit
   zeros on both sides. Components at or below the audit floor never
   enter the gap: they were compacted out of every log, and every
   durable vector is at or above the floor, so no requester can ask for
   them. The log is keyed by full dots: under slot reuse one (slot,
   seq) pair always denotes one write, but its dot carries the issuing
   occupant's generation, resolved through the retirement ledger. *)
let collect_since (type p m) (h : (p, m) t) slot ~vec =
  let module P = (val h.protocol) in
  let mine = V.to_array (applied h slot) in
  let out = ref [] in
  for u = Array.length mine - 1 downto 0 do
    let asked = if u < Array.length vec then vec.(u) else 0 in
    let have = max asked h.floor.(u) in
    for s = mine.(u) downto have + 1 do
      let gen =
        match Membership.dot_gen h.membership ~slot:u ~seq:s with
        | Some g -> g
        | None -> 0
      in
      let dot = Dot.make_gen ~replica:u ~gen ~seq:s in
      match Hashtbl.find_opt slot.log dot with
      | Some msg -> out := msg :: !out
      | None ->
          let ints a =
            String.concat ";" (Array.to_list (Array.map string_of_int a))
          in
          invalid_arg
            (Printf.sprintf
               "Replica_host: %s applied %s but p%d's durable log cannot \
                re-supply it (mine=[%s] vec=[%s] floor=[%s]; a protocol \
                outside the complete-broadcast class?)"
               P.name (Dot.to_string dot) (slot.id + 1) (ints mine) (ints vec)
               (ints h.floor))
    done
  done;
  (mine, !out)

let serve h slot ~peer ~vec =
  let mine, writes = collect_since h slot ~vec in
  h.sync_replies <- h.sync_replies + 1;
  Metrics.incr h.internal.probes.replies;
  send h ~src:slot.id ~dst:peer (Sync_reply { vec = mine; writes })

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

(* replies and transfers replay through the normal receive path, so
   the delivery buffer and the delay accounting are untouched *)
let absorb (type p m) (h : (p, m) t) slot writes ~vec =
  let module P = (val h.protocol) in
  (match slot.cur with Some c -> merge_target c vec | None -> ());
  List.iter
    (fun msg ->
      let carried = P.msg_writes msg in
      if List.exists (fun (dot, _, _) -> not (covered h slot dot)) carried
      then begin
        h.replayed_writes <- h.replayed_writes + 1;
        Metrics.incr h.internal.probes.replayed;
        (match slot.cur with
        | Some c -> c.replayed <- c.replayed + 1
        | None -> ());
        let issuer =
          match carried with
          | (dot, _, _) :: _ -> Dot.replica dot
          | [] ->
              invalid_arg
                "Replica_host: control message in the anti-entropy log"
        in
        deliver h slot ~src:issuer msg
      end)
    writes;
  check_converged h slot

let handle h ~dst ~src env =
  let slot = h.slots.(dst) in
  if (not slot.down) && slot.proto <> None then begin
    h.on_frame ~dst ~src env;
    match env with
    | Heartbeat _ -> ()
    | Proto msg -> deliver h slot ~src msg
    | Sync_request { vec } -> serve h slot ~peer:src ~vec
    | Sync_reply { vec; writes } | Transfer { vec; writes } ->
        absorb h slot writes ~vec
  end

(* anti-entropy rounds for a slot that just (re)entered the view *)
let catch_up h slot =
  sync_request h slot;
  for k = 1 to h.sync_rounds - 1 do
    Engine.schedule_after h.engine (float_of_int k *. h.sync_every) (fun () ->
        if (not slot.down) && Membership.is_active h.membership slot.id then
          sync_request h slot)
  done

let group_sync h ~rounds ?except () =
  for k = 1 to rounds do
    Engine.schedule_after h.engine (float_of_int k *. h.sync_every) (fun () ->
        List.iter
          (fun p ->
            let slot = h.slots.(p) in
            if (not slot.down) && Some p <> except then sync_request h slot)
          (Membership.active h.membership))
  done

(* ---- membership: catch-up episodes and state transfer -------------- *)

let start_catch_up h ?crashed_at ?(rolled_back = 0) slot ckind =
  let c =
    {
      cproc = slot.id;
      ckind;
      started_at = nowf h;
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
  slot.cur <- Some c;
  h.catch_ups <- c :: h.catch_ups;
  c

(* delta state transfer: the sponsor (lowest-id other active member)
   ships its durable log cut at the joiner's Apply vector — a fresh
   joiner's zeros degenerate to the whole log, a rejoiner only pays for
   the gap its crash (or false suspicion) opened *)
let transfer h c joiner =
  match
    List.find_opt (fun q -> q <> joiner.id) (Membership.active h.membership)
  with
  | None -> ()
  | Some sponsor ->
      let jvec = V.to_array (applied h joiner) in
      let vec, writes = collect_since h h.slots.(sponsor) ~vec:jvec in
      c.transfer_writes <- List.length writes;
      c.transfer_gap <-
        (let gap = ref 0 in
         Array.iteri
           (fun u s ->
             let have = if u < Array.length jvec then jvec.(u) else 0 in
             if s > have then gap := !gap + (s - have))
           vec;
         !gap);
      c.transfer_bytes <- String.length (Marshal.to_string writes []);
      h.transfer_bytes <- h.transfer_bytes + c.transfer_bytes;
      Metrics.add h.internal.probes.transfer_bytes_p c.transfer_bytes;
      send h ~src:sponsor ~dst:joiner.id (Transfer { vec; writes })

let create (type p m) (protocol : (p, m) protocol) ~engine ~network ~channel
    ~membership ~execution ~m ~width ~initial ~sync_rounds ~sync_every ~metrics
    =
  let universe = Membership.universe membership in
  Network.set_membership network (Membership.is_member membership);
  (* registered one by one: a record's fields evaluate in no fixed
     order, and the registry exports in registration order *)
  let transfer_bytes_p = Metrics.counter metrics "membership_transfer_bytes" in
  let join_latency =
    Metrics.histogram metrics "membership_join_latency" ~lo:0. ~hi:512.
      ~bins:16
  in
  let checkpoints = Metrics.counter metrics "campaign_checkpoints" in
  let checkpoint_bytes = Metrics.counter metrics "campaign_checkpoint_bytes" in
  let rollback_depth =
    (* applies lost per restore: durable-state rollback distance *)
    Metrics.histogram metrics "campaign_rollback_depth" ~lo:0. ~hi:64.
      ~bins:16
  in
  let replayed = Metrics.counter metrics "campaign_replayed_writes" in
  let requests = Metrics.counter metrics "campaign_sync_requests" in
  let replies = Metrics.counter metrics "campaign_sync_replies" in
  let probes =
    {
      transfer_bytes_p;
      join_latency;
      checkpoints;
      checkpoint_bytes;
      rollback_depth;
      replayed;
      requests;
      replies;
    }
  in
  let slots =
    Array.init universe (fun id ->
        {
          id;
          proto = initial id;
          down = false;
          ever_crashed = false;
          leaving = false;
          durable = no_durable ();
          log = Hashtbl.create 256;
          staged = [];
          staged_count = 0;
          write_seq = 0;
          last_crash = 0.;
          cur = None;
        })
  in
  let rec h =
    {
      protocol;
      m;
      engine;
      network;
      channel;
      membership;
      slots;
      floor = Array.make universe 0;
      sync_rounds;
      sync_every;
      execution;
      width;
      on_send = (fun ~src:_ ~dst:_ -> ());
      on_frame = (fun ~dst:_ ~src:_ _ -> ());
      catch_ups = [];
      commits = 0;
      snapshot_bytes = 0;
      rolled_back = 0;
      aborted = 0;
      replayed_writes = 0;
      stale_dropped = 0;
      sync_requests = 0;
      sync_replies = 0;
      transfer_bytes = 0;
      internal =
        {
          probes;
          record = (fun p kind -> stage h p kind);
          transmit = (fun p outbound -> transmit h p outbound);
        };
    }
  in
  for dst = 0 to universe - 1 do
    Reliable_channel.set_handler channel dst (fun ~src ~at:_ env ->
        handle h ~dst ~src env)
  done;
  h
