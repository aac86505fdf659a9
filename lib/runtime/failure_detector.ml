module Engine = Dsm_sim.Engine
module Sim_time = Dsm_sim.Sim_time
module Metrics = Dsm_obs.Metrics

type config = {
  threshold : float;
  heartbeat_every : float;
  window : int;
  adaptive : float;
}

let config ?(threshold = 3.) ?(heartbeat_every = 20.) ?(window = 16)
    ?(adaptive = 0.) () =
  if (not (Float.is_finite threshold)) || threshold <= 0. then
    invalid_arg "Failure_detector.config: threshold must be positive";
  if (not (Float.is_finite heartbeat_every)) || heartbeat_every <= 0. then
    invalid_arg "Failure_detector.config: heartbeat_every must be positive";
  if window < 2 then
    invalid_arg "Failure_detector.config: window must be >= 2";
  if (not (Float.is_finite adaptive)) || adaptive < 0. then
    invalid_arg "Failure_detector.config: adaptive must be non-negative";
  { threshold; heartbeat_every; window; adaptive }

(* per-peer sliding window of inter-arrival intervals, as a ring;
   [sum_sq] tracks the second moment so the per-link coefficient of
   variation (the adaptive-threshold input) is O(1) per observation *)
type peer_state = {
  intervals : float array;
  mutable count : int;  (* samples held, <= window *)
  mutable next : int;  (* ring write cursor *)
  mutable sum : float;  (* running sum of held samples *)
  mutable sum_sq : float;  (* running sum of squared samples *)
  mutable last : float;  (* last arrival; NaN until armed *)
}

type t = { cfg : config; me : int; peers : peer_state array }

let create cfg ~universe ~me =
  if universe <= 0 then
    invalid_arg "Failure_detector.create: universe must be positive";
  if me < 0 || me >= universe then
    invalid_arg "Failure_detector.create: me outside the universe";
  {
    cfg;
    me;
    peers =
      Array.init universe (fun _ ->
          {
            intervals = Array.make cfg.window 0.;
            count = 0;
            next = 0;
            sum = 0.;
            sum_sq = 0.;
            last = Float.nan;
          });
  }

let state t peer =
  if peer < 0 || peer >= Array.length t.peers then
    invalid_arg "Failure_detector: peer outside the universe";
  t.peers.(peer)

(* the interval clamp: bursts must not collapse mu, one long gap must
   not inflate it past recovery *)
let clamp_hi cfg = 4. *. cfg.heartbeat_every

let observe t ~peer ~at =
  if peer <> t.me then begin
    let p = state t peer in
    if Float.is_nan p.last then p.last <- at
    else if at > p.last then begin
      let lo = 0.5 *. t.cfg.heartbeat_every in
      let interval = Float.min (clamp_hi t.cfg) (Float.max lo (at -. p.last)) in
      if p.count = Array.length p.intervals then begin
        let evicted = p.intervals.(p.next) in
        p.sum <- p.sum -. evicted;
        p.sum_sq <- p.sum_sq -. (evicted *. evicted)
      end
      else p.count <- p.count + 1;
      p.intervals.(p.next) <- interval;
      p.sum <- p.sum +. interval;
      p.sum_sq <- p.sum_sq +. (interval *. interval);
      p.next <- (p.next + 1) mod Array.length p.intervals;
      p.last <- at
    end
  end

let forget t ~peer =
  let p = state t peer in
  p.count <- 0;
  p.next <- 0;
  p.sum <- 0.;
  p.sum_sq <- 0.;
  p.last <- Float.nan

let last_heard t ~peer =
  let p = state t peer in
  if Float.is_nan p.last then None else Some p.last

let mean_interval t ~peer =
  let p = state t peer in
  (* heartbeat-period prior as one extra sample: a freshly armed peer
     is judged against the configured gossip rate *)
  (p.sum +. t.cfg.heartbeat_every) /. float_of_int (p.count + 1)

(* Sample coefficient of variation of the held window (stddev / mean),
   0 until two samples are held. The clamp in [observe] bounds every
   sample to [hb/2, 4hb], so cv is bounded (< 2) and a single outlier
   cannot blow the adaptive threshold up without bound. *)
let interval_cv t ~peer =
  let p = state t peer in
  if p.count < 2 then 0.
  else begin
    let n = float_of_int p.count in
    let mean = p.sum /. n in
    let var = Float.max 0. ((p.sum_sq /. n) -. (mean *. mean)) in
    Float.sqrt var /. mean
  end

(* Per-peer adaptive threshold: a link whose inter-arrival times are
   noisy (heavy-tailed latency, piggyback bursts alternating with
   heartbeat-paced silence) legitimately produces long gaps, so its
   threshold is raised in proportion to the observed coefficient of
   variation; a metronomic link keeps the configured base and so keeps
   the base detection time. [adaptive = 0.] (the default) disables the
   scaling — every pinned campaign keeps its fixed threshold. *)
let effective_threshold t ~peer =
  if t.cfg.adaptive = 0. then t.cfg.threshold
  else t.cfg.threshold *. (1. +. (t.cfg.adaptive *. interval_cv t ~peer))

let ln10 = Float.log 10.

(* adaptive scaling can raise a link's threshold by at most
   1 + 2 * adaptive (the interval clamp bounds cv below 2), and the
   clamp bounds mu by [clamp_hi], so this silence always crosses; with
   adaptive = 0 it is the fixed-threshold bound *)
let worst_case_silence cfg =
  cfg.threshold *. (1. +. (2. *. cfg.adaptive)) *. ln10 *. clamp_hi cfg

let phi t ~peer ~at =
  let p = state t peer in
  if Float.is_nan p.last || at <= p.last then 0.
  else (at -. p.last) /. (mean_interval t ~peer *. ln10)

let suspicious t ~peer ~at = phi t ~peer ~at >= effective_threshold t ~peer

(* ---- the detector plane -------------------------------------------- *)

type suspicion = {
  speer : int;
  sobserver : int;
  sphi : float;
  sat : float;
  strue : bool;
  slatency : float option;
  mutable srefuted_at : float option;
}

(* one accrual observer per slot, a per-pair clock of the last payload
   sent (standalone heartbeats are suppressed while protocol traffic
   piggybacks as liveness evidence), and the time each slot was
   suspected (a refutation must postdate it) *)
type ('p, 'm) plane = {
  config : config option;
  host : ('p, 'm) Replica_host.t;
  detectors : t array;
  last_sent : float array array;
  suspected_at : float array;
  on_suspect : observer:int -> peer:int -> phi:float -> unit;
  on_refute : peer:int -> witness:int -> sent:float -> unit;
  p_heartbeats : Metrics.counter;
  p_suspicions : Metrics.counter;
  p_false : Metrics.counter;
  p_refutations : Metrics.counter;
  p_phi : Metrics.histogram;
  p_latency : Metrics.gauge;
  mutable heartbeats : int;
  mutable suspicions : suspicion list;  (* newest first *)
  mutable refutations : int;
}

let nowf fd = Sim_time.to_float (Engine.now fd.host.Replica_host.engine)
let universe fd = Array.length fd.host.Replica_host.slots

(* fresh arrival clocks at [p] for every peer and, with [~peers], at
   every peer for [p] *)
let rearm fd ~peers p =
  if fd.config <> None then begin
    let reset det ~peer =
      forget det ~peer;
      observe det ~peer ~at:(nowf fd)
    in
    for q = 0 to universe fd - 1 do
      if q <> p then begin
        reset fd.detectors.(p) ~peer:q;
        if peers then reset fd.detectors.(q) ~peer:p
      end
    done
  end

let readmit fd p =
  if fd.config <> None then begin
    fd.suspected_at.(p) <- infinity;
    rearm fd ~peers:true p
  end

(* a heartbeat sent after the suspicion proves the slot alive; the
   refuted suspicion reuses the crash-rejoin path (fresh incarnation,
   quarantined leftovers, delta transfer + anti-entropy), so false
   suspicions are survivable because rejoin already is.  The fresh
   incarnation gets fresh arrival clocks on either side: stale history
   must not poison the new estimates. *)
let refute fd ~peer ~witness ~sent =
  fd.refutations <- fd.refutations + 1;
  Metrics.incr fd.p_refutations;
  List.find_opt (fun s -> s.speer = peer && s.srefuted_at = None) fd.suspicions
  |> Option.iter (fun s -> s.srefuted_at <- Some (nowf fd));
  readmit fd peer;
  fd.on_refute ~peer ~witness ~sent

let suspect fd ~observer ~peer ~phi =
  let node = fd.host.Replica_host.slots.(peer) in
  let now = nowf fd in
  let was_down = node.down in
  fd.on_suspect ~observer ~peer ~phi;
  fd.suspected_at.(peer) <- now;
  let slatency = if was_down then Some (now -. node.last_crash) else None in
  fd.suspicions <-
    {
      speer = peer;
      sobserver = observer;
      sphi = phi;
      sat = now;
      strue = was_down;
      slatency;
      srefuted_at = None;
    }
    :: fd.suspicions;
  Metrics.incr fd.p_suspicions;
  Metrics.observe fd.p_phi phi;
  (match slatency with
  | Some l -> Metrics.set fd.p_latency (int_of_float (l +. 0.5))
  | None -> Metrics.incr fd.p_false);
  (* payloads queued toward the silent slot (heartbeats included) would
     retransmit forever against crash drops *)
  Replica_host.abort_peer fd.host peer

let plane config (host : ('p, 'm) Replica_host.t) ~metrics ~on_suspect
    ~on_refute =
  let universe = Array.length host.slots in
  (* registered one by one: the registry exports in registration order *)
  let p_heartbeats = Metrics.counter metrics "fd_heartbeats_total" in
  let p_suspicions = Metrics.counter metrics "fd_suspicions_total" in
  let p_false = Metrics.counter metrics "fd_false_positives_total" in
  let p_refutations = Metrics.counter metrics "fd_refutations_total" in
  let p_phi =
    Metrics.histogram metrics "fd_phi_at_suspicion" ~lo:0. ~hi:16. ~bins:16
  in
  let p_latency = Metrics.gauge metrics "fd_detection_latency" in
  let on = config <> None in
  let fd =
    {
      config;
      host;
      detectors =
        (match config with
        | None -> [||]
        | Some cfg -> Array.init universe (fun me -> create cfg ~universe ~me));
      last_sent =
        (if on then Array.make_matrix universe universe neg_infinity else [||]);
      suspected_at = Array.make universe infinity;
      on_suspect;
      on_refute;
      p_heartbeats;
      p_suspicions;
      p_false;
      p_refutations;
      p_phi;
      p_latency;
      heartbeats = 0;
      suspicions = [];
      refutations = 0;
    }
  in
  if on then begin
    let membership = host.membership in
    host.on_send <- (fun ~src ~dst -> fd.last_sent.(src).(dst) <- nowf fd);
    host.on_frame <-
      (fun ~dst ~src w ->
        (* piggyback: any frame from [src] is liveness evidence *)
        observe fd.detectors.(dst) ~peer:src ~at:(nowf fd);
        match w with
        | Replica_host.Heartbeat { sent }
          when Membership.is_member membership src
               && (not (Membership.is_active membership src))
               && (not host.slots.(src).down)
               && sent > fd.suspected_at.(src) ->
            refute fd ~peer:src ~witness:dst ~sent
        | _ -> ())
  end;
  fd

let start fd ~horizon =
  match fd.config with
  | None -> ()
  | Some cfg ->
      let host = fd.host in
      let membership = host.Replica_host.membership in
      let nodes = host.Replica_host.slots in
      (* seed every pair's arrival clock at t=0: silence accrues from
         the start even for a slot that crashes before ever speaking *)
      Array.iter
        (fun det ->
          for q = 0 to universe fd - 1 do
            observe det ~peer:q ~at:0.
          done)
        fd.detectors;
      (* gossip + accrual run past [horizon] so a crash near it is still
         detected.  Suspicion stops before gossip does: a slot falsely
         suspected at the very last accrual tick still gets gossip ticks
         of its own afterwards, so its refuting heartbeat is always
         originated (delivery needs no ticks — the channel retransmits
         until acked) *)
      let accrual_until = horizon +. worst_case_silence cfg in
      let hb_horizon =
        accrual_until
        +. (4. *. cfg.heartbeat_every)
        +. (2. *. host.Replica_host.sync_every)
      in
      Engine.schedule_every host.engine ~every:cfg.heartbeat_every
        ~until:(Sim_time.of_float hb_horizon)
        (fun () ->
          let now = nowf fd in
          (* gossip: a standalone beacon only where no recent protocol
             traffic already piggybacked as evidence *)
          for p = 0 to universe fd - 1 do
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
                    && now -. fd.last_sent.(p).(dst) >= cfg.heartbeat_every
                  then begin
                    fd.heartbeats <- fd.heartbeats + 1;
                    Metrics.incr fd.p_heartbeats;
                    Replica_host.send host ~src:p ~dst
                      (Replica_host.Heartbeat { sent = now })
                  end)
                (Membership.active membership)
          done;
          (* accrue: every live active observer judges every active
             peer; first threshold crossing wins the view change *)
          if now <= accrual_until then
            for p = 0 to universe fd - 1 do
              if (not nodes.(p).down) && Membership.is_active membership p
              then
                List.iter
                  (fun q ->
                    if q <> p && Membership.is_active membership q then begin
                      let phi = phi fd.detectors.(p) ~peer:q ~at:now in
                      if phi >= effective_threshold fd.detectors.(p) ~peer:q
                      then suspect fd ~observer:p ~peer:q ~phi
                    end)
                  (Membership.active membership)
            done);
      (* liveness backstop: once gossip stops, nothing new will suspect
         a still-down slot, so abandon any payloads queued toward the
         remaining corpses *)
      Engine.schedule_at host.engine (Sim_time.of_float (hb_horizon +. 1.))
        (fun () ->
          for p = 0 to universe fd - 1 do
            if nodes.(p).down then Replica_host.abort_peer host p
          done)

let heartbeats_sent fd = fd.heartbeats
let suspicions fd = List.rev fd.suspicions
let false_suspicions fd =
  List.length (List.filter (fun s -> not s.strue) fd.suspicions)
let refutations fd = fd.refutations
