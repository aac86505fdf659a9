type 'a handler = src:int -> at:Sim_time.t -> 'a -> unit

type faults = { drop : float; duplicate : float; corrupt : float }

let no_faults = { drop = 0.; duplicate = 0.; corrupt = 0. }

exception No_handler of { dst : int; src : int; at : Sim_time.t }

let () =
  Printexc.register_printer (function
    | No_handler { dst; src; at } ->
        Some
          (Printf.sprintf
             "Network.No_handler: delivery to process %d (from %d, at \
              t=%g) but no handler is installed"
             dst src (Sim_time.to_float at))
    | _ -> None)

module Metrics = Dsm_obs.Metrics
module Wire = Dsm_obs.Wire

(* pre-resolved instrument handles; [p_live] gates the one measurement
   whose computation itself costs something (payload sizing) *)
type probes = {
  p_live : bool;
  p_sends : Metrics.counter;
  p_delivered : Metrics.counter;
  p_drop_random : Metrics.counter;
  p_drop_partition : Metrics.counter;
  p_drop_crash : Metrics.counter;
  p_drop_stale : Metrics.counter;
  p_drop_nonmember : Metrics.counter;
  p_drop_oneway : Metrics.counter;
  p_drop_flap : Metrics.counter;
  p_delay_inflated : Metrics.counter;
  p_duplicated : Metrics.counter;
  p_corrupted : Metrics.counter;
  p_partition_cuts : Metrics.counter;
  p_payload_bytes : Metrics.counter;
  p_delivery_delay : Metrics.quantile;
}

let probes metrics =
  let c ?labels name = Metrics.counter metrics ?labels name in
  {
    p_live = Metrics.enabled metrics;
    p_sends = c "net_sends";
    p_delivered = c "net_delivered";
    p_drop_random = c "net_dropped" ~labels:[ ("cause", "random") ];
    p_drop_partition = c "net_dropped" ~labels:[ ("cause", "partition") ];
    p_drop_crash = c "net_dropped" ~labels:[ ("cause", "crash") ];
    p_drop_stale = c "net_dropped" ~labels:[ ("cause", "stale") ];
    p_drop_nonmember = c "net_dropped" ~labels:[ ("cause", "nonmember") ];
    p_drop_oneway = c "net_dropped" ~labels:[ ("cause", "oneway") ];
    p_drop_flap = c "net_dropped" ~labels:[ ("cause", "flap") ];
    p_delay_inflated = c "net_delayed" ~labels:[ ("cause", "inflation") ];
    p_duplicated = c "net_duplicated";
    p_corrupted = c "net_corrupted";
    p_partition_cuts = c "net_partition_cuts";
    p_payload_bytes = c "net_payload_bytes";
    p_delivery_delay = Metrics.quantile metrics "net_delivery_delay";
  }

(* ---- envelope arena ------------------------------------------------ *)

(* An in-flight message is a slot in a flat arena instead of a fresh
   closure: the slot's [s_fire] thunk is allocated once (capturing the
   network and the slot index) and reused for every message that passes
   through the slot, so steady-state traffic allocates nothing per
   envelope. Slots are recycled through a free-list stack; a slot is
   released — payload dummied so the GC cannot see it — before its
   handler runs, so a send from inside the handler may reuse it
   immediately. [s_dummy] is an immediate, keeping every payload write
   representation-safe. *)
type slot = {
  mutable s_src : int;
  mutable s_dst : int;
  mutable s_dst_inc : int;  (* destination incarnation stamped at send *)
  mutable s_dst_gen : int;  (* destination slot generation stamped at send *)
  mutable s_payload : Obj.t;
  mutable s_fire : unit -> unit;
}

let s_dummy = Obj.repr ()

type 'a t = {
  engine : Engine.t;
  n : int;
  latency : src:int -> dst:int -> Latency.t;
  fifo : bool;
  arena : bool;
  mutable slots : slot array;
  mutable free : int array;  (* free-list stack of slot indices *)
  mutable free_len : int;
  faults : faults;
  channel_rng : Rng.t array array;  (* [src].(dst) *)
  last_delivery : Sim_time.t array array;  (* FIFO floor per channel *)
  handlers : 'a handler option array;
  cut_link : bool array array;  (* [src].(dst): true = partitioned *)
  oneway : bool array array;
      (* [src].(dst): true = the src->dst direction alone is cut — the
         asymmetric-partition filter; the reverse direction is
         independent *)
  flap_start : float array array;  (* [src].(dst): episode arm time *)
  flap_period : float array array;
  flap_until : float array array;
      (* a link flaps while [now < flap_until]: it oscillates
         cut/healed with the given half-period, cut first.  The state
         is a pure function of the clock — no scheduled events, no RNG
         — so an unarmed link costs one float compare per send. *)
  inflate_factor : float array array;
  inflate_until : float array array;
      (* per-link tail-latency spike: while [now < inflate_until] the
         sampled delay is multiplied by [inflate_factor] (>= 1).  The
         underlying latency sample is drawn as usual, so the RNG
         stream is identical with or without the spike armed. *)
  crashed : bool array;
  incarnations : int array;
      (* per-process incarnation number; envelopes are stamped with the
         destination's incarnation at send, and a delivery addressed to
         an earlier incarnation is a counted stale drop *)
  generations : int array;
      (* per-slot occupancy generation (slot reuse): bumped when a
         retired slot is recycled to a new logical process.  Staleness
         is two-layer — an envelope must match the destination's
         (incarnation, generation) pair at delivery, so traffic
         addressed to a slot's previous occupant can never reach the
         new one *)
  mangle : 'a -> 'a;
  mutable member : int -> bool;
      (* the membership oracle: a delivery to a slot outside the current
         view is a counted drop, never a [No_handler] crash *)
  mutable epoch : int;  (* current membership view epoch (informational) *)
  probes : probes;
  wire : Wire.t;
  measure : ('a -> Wire.frame) option;
      (* [Some] only when [wire] is live: frame-shape extractor for the
         byte-cost accountant *)
  sizer : ('a -> int) option;
      (* analytic payload sizer for [net_payload_bytes]; when absent a
         live registry falls back to Marshal-encoded size *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable partition_dropped : int;
  mutable crash_dropped : int;
  mutable stale_dropped : int;
  mutable nonmember_dropped : int;
  mutable oneway_dropped : int;
  mutable flap_dropped : int;
  mutable delay_inflated : int;
}

(* ---- delivery ------------------------------------------------------ *)

(* Delivery-time checks shared by both transmission paths (fresh
   closure, arena slot). [at] is the engine clock: the engine advances
   it to the event's timestamp before running it, so reading it here is
   equivalent to capturing the delivery time at scheduling. *)
let deliver t ~src ~dst ~dst_inc ~dst_gen payload =
  let at = Engine.now t.engine in
  (* a crashed destination silently loses the message: the frame
     reached a machine that is not running.  Counted, not raised —
     crash-stop is a modelled fault, not a harness bug. *)
  if t.crashed.(dst) then begin
    t.crash_dropped <- t.crash_dropped + 1;
    Metrics.incr t.probes.p_drop_crash
  end
  else if t.incarnations.(dst) <> dst_inc || t.generations.(dst) <> dst_gen
  then begin
    (* the destination's identity changed while this envelope was in
       flight — it crashed and rejoined as a fresh incarnation, or its
       slot was retired and recycled to a new occupant (a bumped
       generation).  The old identity the envelope was addressed to no
       longer exists.  Retransmission layers re-send under the new
       stamp, so nothing is lost — but the stale copy must not reach
       the reborn (or newborn) process. *)
    t.stale_dropped <- t.stale_dropped + 1;
    Metrics.incr t.probes.p_drop_stale
  end
  else if not (t.member dst) then begin
    (* the membership view says this slot is not (or no longer) a
       member: a frame that raced a leave, or was addressed to a
       never-joined slot.  Accounted, not raised — only a missing
       handler on a live {e member} is a harness bug. *)
    t.nonmember_dropped <- t.nonmember_dropped + 1;
    Metrics.incr t.probes.p_drop_nonmember
  end
  else begin
    t.delivered <- t.delivered + 1;
    Metrics.incr t.probes.p_delivered;
    match t.handlers.(dst) with
    | Some h -> h ~src ~at (Obj.obj payload)
    | None -> raise (No_handler { dst; src; at })
  end

(* ---- arena slots --------------------------------------------------- *)

let fire_slot t i =
  let s = t.slots.(i) in
  let src = s.s_src and dst = s.s_dst in
  let dst_inc = s.s_dst_inc and dst_gen = s.s_dst_gen in
  let payload = s.s_payload in
  s.s_payload <- s_dummy;
  (* release before the handler runs: a send from inside it can reuse
     the slot without growing the arena *)
  t.free.(t.free_len) <- i;
  t.free_len <- t.free_len + 1;
  deliver t ~src ~dst ~dst_inc ~dst_gen payload

let grow_slots t =
  let old = Array.length t.slots in
  let cap = if old = 0 then 64 else old * 2 in
  let slots =
    Array.init cap (fun i ->
        if i < old then t.slots.(i)
        else
          {
            s_src = 0;
            s_dst = 0;
            s_dst_inc = 0;
            s_dst_gen = 0;
            s_payload = s_dummy;
            s_fire = ignore;
          })
  in
  let free = Array.make cap 0 in
  Array.blit t.free 0 free 0 t.free_len;
  t.slots <- slots;
  t.free <- free;
  for i = old to cap - 1 do
    slots.(i).s_fire <- (fun () -> fire_slot t i);
    free.(t.free_len) <- i;
    t.free_len <- t.free_len + 1
  done

let alloc_slot t =
  if t.free_len = 0 then grow_slots t;
  t.free_len <- t.free_len - 1;
  t.free.(t.free_len)

let fill_slot t ~src ~dst payload =
  let i = alloc_slot t in
  let s = t.slots.(i) in
  s.s_src <- src;
  s.s_dst <- dst;
  s.s_dst_inc <- t.incarnations.(dst);
  s.s_dst_gen <- t.generations.(dst);
  s.s_payload <- Obj.repr payload;
  i

let create ~engine ~rng ~n ~latency ?(fifo = false) ?(arena = true)
    ?(faults = no_faults) ?mangle ?(metrics = Metrics.null ())
    ?(wire = Wire.null ()) ?measure ?sizer () =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  let check_prob name p =
    if p < 0. || p > 1. then
      invalid_arg (Printf.sprintf "Network.create: %s must be in [0,1]" name)
  in
  check_prob "drop probability" faults.drop;
  check_prob "duplicate probability" faults.duplicate;
  check_prob "corrupt probability" faults.corrupt;
  let mangle =
    match mangle with
    | Some f -> f
    | None ->
        if faults.corrupt > 0. then
          invalid_arg
            "Network.create: corrupt > 0 needs a ~mangle function \
             (the network is payload-generic and cannot flip bits itself)";
        Fun.id
  in
  let channel_rng =
    Array.init n (fun _ -> Array.init n (fun _ -> Rng.split rng))
  in
  {
    engine;
    n;
    latency;
    fifo;
    arena;
    slots = [||];
    free = [||];
    free_len = 0;
    faults;
    channel_rng;
    last_delivery = Array.init n (fun _ -> Array.make n Sim_time.zero);
    handlers = Array.make n None;
    cut_link = Array.init n (fun _ -> Array.make n false);
    oneway = Array.init n (fun _ -> Array.make n false);
    flap_start = Array.init n (fun _ -> Array.make n 0.);
    flap_period = Array.init n (fun _ -> Array.make n 1.);
    flap_until = Array.init n (fun _ -> Array.make n neg_infinity);
    inflate_factor = Array.init n (fun _ -> Array.make n 1.);
    inflate_until = Array.init n (fun _ -> Array.make n neg_infinity);
    crashed = Array.make n false;
    incarnations = Array.make n 0;
    generations = Array.make n 0;
    mangle;
    member = (fun _ -> true);
    epoch = 0;
    probes = probes metrics;
    wire;
    measure = (if Wire.enabled wire then measure else None);
    sizer;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    partition_dropped = 0;
    crash_dropped = 0;
    stale_dropped = 0;
    nonmember_dropped = 0;
    oneway_dropped = 0;
    flap_dropped = 0;
    delay_inflated = 0;
  }

let n t = t.n

let check_proc t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Network.%s: process id out of range" name)

let set_handler t i h =
  check_proc t i "set_handler";
  t.handlers.(i) <- Some h

(* ---- partitions ---------------------------------------------------- *)

let cut t ~a ~b =
  check_proc t a "cut";
  check_proc t b "cut";
  if not t.cut_link.(a).(b) then Metrics.incr t.probes.p_partition_cuts;
  t.cut_link.(a).(b) <- true;
  t.cut_link.(b).(a) <- true

let heal t ~a ~b =
  check_proc t a "heal";
  check_proc t b "heal";
  t.cut_link.(a).(b) <- false;
  t.cut_link.(b).(a) <- false;
  (* a heal restores the link completely: pending one-way filters and
     flap episodes on the pair end with it *)
  t.oneway.(a).(b) <- false;
  t.oneway.(b).(a) <- false;
  t.flap_until.(a).(b) <- neg_infinity;
  t.flap_until.(b).(a) <- neg_infinity

let is_cut t ~a ~b =
  check_proc t a "is_cut";
  check_proc t b "is_cut";
  t.cut_link.(a).(b)

let partition t groups =
  (* cut every link between distinct groups; links inside a group are
     left as they are *)
  let group_of = Array.make t.n (-1) in
  List.iteri
    (fun g procs ->
      List.iter
        (fun p ->
          check_proc t p "partition";
          if group_of.(p) >= 0 then
            invalid_arg
              (Printf.sprintf
                 "Network.partition: process %d appears in two groups" p);
          group_of.(p) <- g)
        procs)
    groups;
  for a = 0 to t.n - 1 do
    for b = 0 to t.n - 1 do
      if a <> b && group_of.(a) >= 0 && group_of.(b) >= 0
         && group_of.(a) <> group_of.(b)
      then begin
        if a < b && not t.cut_link.(a).(b) then
          Metrics.incr t.probes.p_partition_cuts;
        t.cut_link.(a).(b) <- true
      end
    done
  done

let heal_all t =
  for a = 0 to t.n - 1 do
    for b = 0 to t.n - 1 do
      t.cut_link.(a).(b) <- false;
      t.oneway.(a).(b) <- false;
      t.flap_until.(a).(b) <- neg_infinity
    done
  done

(* ---- link-level faults (nemesis primitives) ------------------------ *)

let cut_oneway t ~src ~dst =
  check_proc t src "cut_oneway";
  check_proc t dst "cut_oneway";
  if not t.oneway.(src).(dst) then Metrics.incr t.probes.p_partition_cuts;
  t.oneway.(src).(dst) <- true

let heal_oneway t ~src ~dst =
  check_proc t src "heal_oneway";
  check_proc t dst "heal_oneway";
  t.oneway.(src).(dst) <- false

let is_cut_oneway t ~src ~dst =
  check_proc t src "is_cut_oneway";
  check_proc t dst "is_cut_oneway";
  t.oneway.(src).(dst)

let flap t ~a ~b ~period ~until_ =
  check_proc t a "flap";
  check_proc t b "flap";
  if not (period > 0. && Float.is_finite period) then
    invalid_arg "Network.flap: period must be positive and finite";
  let start = Sim_time.to_float (Engine.now t.engine) in
  t.flap_start.(a).(b) <- start;
  t.flap_start.(b).(a) <- start;
  t.flap_period.(a).(b) <- period;
  t.flap_period.(b).(a) <- period;
  t.flap_until.(a).(b) <- until_;
  t.flap_until.(b).(a) <- until_

(* Flap state is computed, never stored: the link is cut during even
   half-periods of an armed episode (cut first, so arming is
   immediately visible), healed during odd ones, healed once the
   episode expires.  Both the send path and the cursor below evaluate
   the same expression, so they can never disagree. *)
let flap_cut_now t ~src ~dst ~now =
  now < t.flap_until.(src).(dst)
  && now >= t.flap_start.(src).(dst)
  &&
  let phase =
    int_of_float ((now -. t.flap_start.(src).(dst)) /. t.flap_period.(src).(dst))
  in
  phase land 1 = 0

let is_flap_cut t ~src ~dst =
  check_proc t src "is_flap_cut";
  check_proc t dst "is_flap_cut";
  flap_cut_now t ~src ~dst ~now:(Sim_time.to_float (Engine.now t.engine))

let inflate t ~src ~dst ~factor ~until_ =
  check_proc t src "inflate";
  check_proc t dst "inflate";
  if not (factor >= 1. && Float.is_finite factor) then
    invalid_arg "Network.inflate: factor must be >= 1 and finite";
  t.inflate_factor.(src).(dst) <- factor;
  t.inflate_until.(src).(dst) <- until_

(* ---- crash-stop marks --------------------------------------------- *)

let mark_crashed t p =
  check_proc t p "mark_crashed";
  t.crashed.(p) <- true

let mark_recovered t p =
  check_proc t p "mark_recovered";
  t.crashed.(p) <- false

(* ---- incarnations and view epochs --------------------------------- *)

let bump_incarnation t p =
  check_proc t p "bump_incarnation";
  t.incarnations.(p) <- t.incarnations.(p) + 1

let bump_generation t p =
  check_proc t p "bump_generation";
  t.generations.(p) <- t.generations.(p) + 1

let set_membership t f = t.member <- f

let set_epoch t e =
  if e < t.epoch then invalid_arg "Network.set_epoch: epochs only advance";
  t.epoch <- e

(* ---- transmission -------------------------------------------------- *)

(* Every envelope is view-stamped: it captures the destination's
   incarnation at transmission time (see [fill_slot] for the arena
   path). Two scheduling paths share [deliver], each one engine event
   per envelope:

   - [~arena:false]: the seed path — a fresh closure per envelope,
     kept as the allocation reference for differential testing;
   - [~arena:true] (default): a recycled slot whose preallocated
     [s_fire] thunk is the engine event — the same schedule, zero
     steady-state allocation. *)

let schedule_closure t ~src ~dst ~at payload =
  let dst_inc = t.incarnations.(dst) in
  let dst_gen = t.generations.(dst) in
  let payload = Obj.repr payload in
  Engine.schedule_at t.engine at (fun () ->
      deliver t ~src ~dst ~dst_inc ~dst_gen payload)

let schedule_arena t ~src ~dst ~at payload =
  let i = fill_slot t ~src ~dst payload in
  Engine.schedule_at t.engine at t.slots.(i).s_fire

let schedule_delivery t ~src ~dst ~at payload =
  if t.arena then schedule_arena t ~src ~dst ~at payload
  else schedule_closure t ~src ~dst ~at payload

(* [send] with the payload's wire frame measured ([None]: accountant off) *)
let transmit t ~src ~dst ~frame payload =
  check_proc t src "send";
  check_proc t dst "send";
  if src = dst then
    invalid_arg "Network.send: self-sends are not modelled (apply locally)";
  let rng = t.channel_rng.(src).(dst) in
  t.sent <- t.sent + 1;
  Metrics.incr t.probes.p_sends;
  if t.probes.p_live then
    (* payload sizing is the one probe whose computation is not free;
       the null registry never reaches it. The analytic sizer (frame
       shape priced under the wire cost model) replaces the seed's
       Marshal round-trip when the driver installs one — same counter,
       model bytes instead of OCaml-marshalling bytes *)
    Metrics.add t.probes.p_payload_bytes
      (match t.sizer with
      | Some f -> f payload
      | None -> String.length (Marshal.to_string payload []));
  (match frame with Some f -> Wire.record t.wire ~src ~dst f | None -> ());
  if t.cut_link.(src).(dst) then begin
    (* partitioned link: the transmission silently disappears *)
    t.partition_dropped <- t.partition_dropped + 1;
    Metrics.incr t.probes.p_drop_partition
  end
  else if t.oneway.(src).(dst) then begin
    (* asymmetric cut: this direction alone is unplugged *)
    t.oneway_dropped <- t.oneway_dropped + 1;
    Metrics.incr t.probes.p_drop_oneway
  end
  else if
    flap_cut_now t ~src ~dst
      ~now:(Sim_time.to_float (Engine.now t.engine))
  then begin
    t.flap_dropped <- t.flap_dropped + 1;
    Metrics.incr t.probes.p_drop_flap
  end
  else if t.faults.drop > 0. && Rng.bernoulli rng t.faults.drop then begin
    t.dropped <- t.dropped + 1;
    Metrics.incr t.probes.p_drop_random
  end
  else begin
    let payload =
      if t.faults.corrupt > 0. && Rng.bernoulli rng t.faults.corrupt
      then begin
        t.corrupted <- t.corrupted + 1;
        Metrics.incr t.probes.p_corrupted;
        t.mangle payload
      end
      else payload
    in
    let delay = Latency.sample (t.latency ~src ~dst) rng in
    let delay =
      (* tail-latency spike: multiply the already-sampled delay, so
         arming a spike never shifts the channel's RNG stream *)
      if
        Sim_time.to_float (Engine.now t.engine) < t.inflate_until.(src).(dst)
      then begin
        t.delay_inflated <- t.delay_inflated + 1;
        Metrics.incr t.probes.p_delay_inflated;
        delay *. t.inflate_factor.(src).(dst)
      end
      else delay
    in
    let at = Sim_time.add (Engine.now t.engine) delay in
    let at =
      if t.fifo then begin
        (* never deliver before an earlier message on the same channel;
           a strictly positive epsilon keeps deliveries distinct *)
        let floor = Sim_time.add t.last_delivery.(src).(dst) 1e-9 in
        Sim_time.max at floor
      end
      else at
    in
    if t.fifo then t.last_delivery.(src).(dst) <- at;
    if t.probes.p_live then
      Metrics.observe_q t.probes.p_delivery_delay
        (Sim_time.to_float at -. Sim_time.to_float (Engine.now t.engine));
    schedule_delivery t ~src ~dst ~at payload;
    if t.faults.duplicate > 0. && Rng.bernoulli rng t.faults.duplicate
    then begin
      t.duplicated <- t.duplicated + 1;
      Metrics.incr t.probes.p_duplicated;
      let extra = Latency.sample (t.latency ~src ~dst) rng in
      let at' = Sim_time.add (Engine.now t.engine) extra in
      schedule_delivery t ~src ~dst ~at:at' payload
    end
  end

let frame t payload =
  match t.measure with Some f -> Some (f payload) | None -> None

let send t ~src ~dst payload = transmit t ~src ~dst ~frame:(frame t payload) payload

let broadcast t ~src payload =
  let frame = frame t payload in
  for dst = 0 to t.n - 1 do
    if dst <> src then transmit t ~src ~dst ~frame payload
  done

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_partition_dropped t = t.partition_dropped
let messages_crash_dropped t = t.crash_dropped
let messages_stale_dropped t = t.stale_dropped
let messages_nonmember_dropped t = t.nonmember_dropped
let messages_oneway_dropped t = t.oneway_dropped
let messages_flap_dropped t = t.flap_dropped
let messages_delay_inflated t = t.delay_inflated
let messages_corrupted t = t.corrupted

let in_flight t =
  (* duplicate copies add deliveries beyond sends; clamp at zero *)
  max 0
    (t.sent - t.dropped - t.partition_dropped - t.oneway_dropped
    - t.flap_dropped
    - (t.delivered + t.crash_dropped + t.stale_dropped
      + t.nonmember_dropped - t.duplicated))
