module type S = sig
  type 'a t

  val create : unit -> 'a t
  val schedule : 'a t -> at:Sim_time.t -> 'a -> unit
  val pop : 'a t -> (Sim_time.t * 'a) option
  val next_time_exn : 'a t -> Sim_time.t
  val pop_exn : 'a t -> 'a
  val peek_time : 'a t -> Sim_time.t option
  val size : 'a t -> int
  val is_empty : 'a t -> bool
  val clear : 'a t -> unit
  val scheduled_total : 'a t -> int
  val retained_payloads : 'a t -> int
  val capacity : 'a t -> int
end

(* ------------------------------------------------------------------ *)
(* Indexed: flat int-indexed calendar queue (Brown 1988) over          *)
(* parallel arrays.                                                    *)
(*                                                                     *)
(* Events live in a slot arena: [etime]/[eseq]/[payloads] are          *)
(* slot-indexed and written once per event, so nothing is ever moved   *)
(* or reboxed after [schedule] and the GC write barrier is crossed     *)
(* exactly once (the payload store). Buckets are intrusive sorted      *)
(* lists threaded through [enext]: bucket [floor(t/width) mod          *)
(* nbuckets] holds its events in (time, seq) order, equal timestamps   *)
(* always land in the same bucket, and the scheduling-order [seq]      *)
(* breaks ties — so the drain order is exactly the reference heap's.   *)
(* Recycled slots are threaded through [enext] too (as a free list     *)
(* headed by [free_head]), and slots past the [used] watermark have    *)
(* never been written: growing is four array blits with no tail        *)
(* initialization beyond [Array.make]'s.                               *)
(*                                                                     *)
(* [pop] walks day-by-day from the cursor: the head of the current     *)
(* bucket is the global minimum iff it falls inside the current day    *)
(* (each bucket list is sorted, and a day's events map to exactly one  *)
(* bucket). A year of empty buckets falls back to a direct min-scan    *)
(* over bucket heads and jumps the cursor. [schedule] appends at the   *)
(* bucket tail when the key is maximal there (the common case: times   *)
(* arrive roughly in order, and same-instant bursts carry increasing   *)
(* seqs), otherwise inserts by scan.                                   *)
(*                                                                     *)
(* Width policy. Both walks cost what the day width gets wrong: a day  *)
(* holding many events makes inserts scan, a day holding none makes    *)
(* the cursor step over it. The events that matter are those at the    *)
(* head of the queue, where the cursor is and where a short delay      *)
(* lands, so the width follows the spacing there (Brown 1988): three   *)
(* times the mean gap between the distinct times of the earliest       *)
(* eighth of the pending events. The span of the queue is the wrong    *)
(* guide: a heavy-tailed delay puts a few events far out, stretches    *)
(* the span and leaves hundreds of head events to a day. A rebucket    *)
(* re-derives the width and sizes the bucket count to the smallest     *)
(* power of two at or above [2 * size] (at least 512). It runs when    *)
(* [size] outgrows [2 * nbuckets], when it falls below                 *)
(* [nbuckets / 8], and when a walk has gone stale: the queue counts     *)
(* both walks itself, in windows of more inserts (or pops) than it      *)
(* holds events and buckets, and a window that averaged over           *)
(* [stale_walk] steps per operation ends in a rebucket. A rebucket is  *)
(* O(size + nbuckets), so each is paid for by the operations of its    *)
(* window or by the growth or drain that triggered it: both operations *)
(* stay O(1) amortized, with no allocation in steady state.            *)
(*                                                                     *)
(* The engine peeks before it pops, so the scan result (slot and       *)
(* cursor position) is memoized in [peeked] and consumed by the next   *)
(* [pop]; any [schedule] or [clear] invalidates it.                    *)
(*                                                                     *)
(* [dummy] is an immediate ([()]), so [Array.make cap dummy] builds a  *)
(* generic array, never a flat float array — storing [Obj.repr] of a  *)
(* boxed payload into it is always representation-safe.                *)
(* ------------------------------------------------------------------ *)

module Indexed = struct
  type 'a t = {
    (* slot arena *)
    mutable etime : float array;
    mutable eseq : int array;
    mutable enext : int array;
        (* intrusive list: bucket chain for pending slots, free chain
           for recycled ones; -1 ends both *)
    mutable payloads : Obj.t array;
    mutable free_head : int;  (* recycled-slot list through [enext] *)
    mutable used : int;  (* slots [used..cap) have never been written *)
    (* calendar *)
    mutable heads : int array;  (* bucket -> slot | -1 *)
    mutable tails : int array;
    mutable nbuckets : int;  (* power of two *)
    mutable width : float;  (* day length; > 0 *)
    mutable inv_width : float;
        (* 1/width; the day of an event is always computed as
           [int_of_float (time *. inv_width)] — one shared expression,
           so insertion and the cursor walk can never disagree about
           which day an event belongs to *)
    mutable cur : int;  (* bucket the cursor is draining *)
    mutable day : int;  (* the day [cur] currently represents *)
    mutable size : int;
    mutable next_seq : int;
    mutable peeked : int;  (* slot found by the last peek, or -1 *)
    (* the two walks, counted since creation; [*_mark] hold their
       values, and those of [next_seq] and [pops], where the current
       windows opened *)
    mutable walk : int;  (* insertion-scan steps past a bucket head *)
    mutable days : int;  (* cursor steps over empty days *)
    mutable pops : int;
    mutable walk_mark : int;
    mutable days_mark : int;
    mutable seq_mark : int;
    mutable pops_mark : int;
  }

  let dummy = Obj.repr ()

  (* Releasing a payload slot MUST go through the ordinary barriered
     store ([caml_modify]). The multicore major GC's snapshot-at-the-
     beginning invariant relies on the deletion barrier darkening the
     overwritten pointer: a raw store (e.g. through an [int array] view
     of the block) would let the marker miss the popped payload — and
     everything reachable only through it, such as the environment of a
     periodic-event closure rescheduled during the same cycle — and the
     sweeper would reclaim live objects. *)
  let[@inline] store_dummy (ps : Obj.t array) slot =
    Array.unsafe_set ps slot dummy

  (* 512 buckets from the start: a day per simulated time unit for
     typical workloads, and queues only rebucket once they hold more
     than 1024 pending events — cold-start runs (create, schedule a
     few hundred, drain) never pay a mid-run rebucket *)
  let initial_buckets = 512

  let create () =
    {
      etime = [||];
      eseq = [||];
      enext = [||];
      payloads = [||];
      free_head = -1;
      used = 0;
      heads = Array.make initial_buckets (-1);
      tails = Array.make initial_buckets (-1);
      nbuckets = initial_buckets;
      width = 1.0;
      inv_width = 1.0;
      cur = 0;
      day = 0;
      size = 0;
      next_seq = 0;
      peeked = -1;
      walk = 0;
      days = 0;
      pops = 0;
      walk_mark = 0;
      days_mark = 0;
      seq_mark = 0;
      pops_mark = 0;
    }

  (* only called with the free list empty and every slot in use, so the
     blits copy exactly the live prefix; the tail beyond [used] stays
     untouched until the watermark reaches it *)
  let grow_slots t =
    let cap = Array.length t.etime in
    (* 0 -> 64 -> 1024, then x4: one small minor-heap step for tiny
       queues, then a single jump past the major-heap allocation sizes
       the cold-start ramp would otherwise churn through *)
    let cap' = if cap = 0 then 64 else if cap = 64 then 1024 else cap * 4 in
    let etime = Array.create_float cap' in
    let eseq = Array.make cap' 0 in
    let enext = Array.make cap' (-1) in
    let payloads = Array.make cap' dummy in
    Array.blit t.etime 0 etime 0 cap;
    Array.blit t.eseq 0 eseq 0 cap;
    Array.blit t.enext 0 enext 0 cap;
    Array.blit t.payloads 0 payloads 0 cap;
    t.etime <- etime;
    t.eseq <- eseq;
    t.enext <- enext;
    t.payloads <- payloads

  (* thread [slot] into bucket [b]'s sorted list; its key is
     [(at, seq)], already written to the arena *)
  let insert_slot t slot at seq b =
    let tail = Array.unsafe_get t.tails b in
    if tail = -1 then begin
      Array.unsafe_set t.heads b slot;
      Array.unsafe_set t.tails b slot;
      Array.unsafe_set t.enext slot (-1)
    end
    else begin
      let tt = Array.unsafe_get t.etime tail in
      if at > tt || (at = tt && seq > Array.unsafe_get t.eseq tail) then begin
        (* tail append: in-order arrivals and same-instant bursts *)
        Array.unsafe_set t.enext tail slot;
        Array.unsafe_set t.tails b slot;
        Array.unsafe_set t.enext slot (-1)
      end
      else begin
        let head = Array.unsafe_get t.heads b in
        let ht = Array.unsafe_get t.etime head in
        if at < ht || (at = ht && seq < Array.unsafe_get t.eseq head)
        then begin
          Array.unsafe_set t.enext slot head;
          Array.unsafe_set t.heads b slot
        end
        else begin
          (* strictly between head and tail: sorted scan *)
          let p = ref head in
          let scanning = ref true in
          while !scanning do
            let nx = Array.unsafe_get t.enext !p in
            if nx = -1 then scanning := false
            else begin
              let nt = Array.unsafe_get t.etime nx in
              if at < nt || (at = nt && seq < Array.unsafe_get t.eseq nx)
              then scanning := false
              else begin
                p := nx;
                t.walk <- t.walk + 1
              end
            end
          done;
          let nx = Array.unsafe_get t.enext !p in
          Array.unsafe_set t.enext slot nx;
          Array.unsafe_set t.enext !p slot;
          if nx = -1 then Array.unsafe_set t.tails b slot
        end
      end
    end

  (* a walk is stale once it averages over this many steps per
     operation across a window *)
  let stale_walk = 4

  (* the day width from the spacing at the head: three times the mean
     gap between the distinct times of the earliest eighth of the
     pending events (a same-instant burst is one tail append, so it
     counts once), read off the calendar day by day from the cursor
     (every pending event is at or after the cursor's day, so a
     bucket's events of the day walked are a prefix of its list).
     [None] when that sample spans no time. *)
  let head_width t =
    let want = max 2 (t.size / 8) and mask = t.nbuckets - 1 in
    let seen = ref 0 and times = ref 0 and d = ref t.day in
    let first = ref 0. and last = ref neg_infinity in
    while !seen < want && !d - t.day < t.nbuckets do
      let s = ref (Array.unsafe_get t.heads (!d land mask)) in
      while
        !s <> -1
        && !seen < want
        && int_of_float (Array.unsafe_get t.etime !s *. t.inv_width) = !d
      do
        let x = Array.unsafe_get t.etime !s in
        if x > !last then begin
          if !times = 0 then first := x;
          incr times;
          last := x
        end;
        incr seen;
        s := Array.unsafe_get t.enext !s
      done;
      incr d
    done;
    if !times >= 2 then
      Some (3. *. (!last -. !first) /. float_of_int (!times - 1))
    else None

  (* rebuild the calendar for the pending events (never none): the
     smallest power of two of buckets at or above twice [size] (at
     least [initial_buckets]) and the head's width (failing that, when
     the head spans no time, twice the mean gap over the live span, or
     the old width); both walk windows restart *)
  let rebucket t =
    let live = Array.make t.size 0 in
    let k = ref 0 in
    for b = 0 to t.nbuckets - 1 do
      let s = ref t.heads.(b) in
      while !s <> -1 do
        live.(!k) <- !s;
        incr k;
        s := t.enext.(!s)
      done
    done;
    let tmin = ref infinity and tmax = ref neg_infinity in
    Array.iter
      (fun s ->
        let x = t.etime.(s) in
        if x < !tmin then tmin := x;
        if x > !tmax then tmax := x)
      live;
    let width =
      match head_width t with
      | Some w -> Float.max 1e-9 w
      | None ->
          let span = !tmax -. !tmin in
          if t.size <= 1 || span <= 0. then t.width
          else Float.max 1e-9 (span /. float_of_int t.size *. 2.)
    in
    let nb = ref initial_buckets in
    while !nb < 2 * t.size do
      nb := !nb * 2
    done;
    let nb = !nb in
    if nb = t.nbuckets then begin
      Array.fill t.heads 0 nb (-1);
      Array.fill t.tails 0 nb (-1)
    end
    else begin
      t.nbuckets <- nb;
      t.heads <- Array.make nb (-1);
      t.tails <- Array.make nb (-1)
    end;
    t.width <- width;
    let inv_width = 1. /. width in
    t.inv_width <- inv_width;
    t.day <- int_of_float (!tmin *. inv_width);
    t.cur <- t.day land (nb - 1);
    let mask = nb - 1 in
    (* re-threading is not an insert: its scan steps are not counted *)
    let walk = t.walk in
    Array.iter
      (fun s ->
        let at = t.etime.(s) in
        insert_slot t s at
          t.eseq.(s)
          (int_of_float (at *. inv_width) land mask))
      live;
    t.walk <- walk;
    t.walk_mark <- walk;
    t.days_mark <- t.days;
    t.seq_mark <- t.next_seq;
    t.pops_mark <- t.pops

  let schedule t ~at payload =
    let at = Sim_time.to_float at in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let slot =
      let fh = t.free_head in
      if fh >= 0 then begin
        t.free_head <- Array.unsafe_get t.enext fh;
        fh
      end
      else begin
        if t.used >= Array.length t.etime then grow_slots t;
        let s = t.used in
        t.used <- s + 1;
        s
      end
    in
    Array.unsafe_set t.etime slot at;
    Array.unsafe_set t.eseq slot seq;
    Array.unsafe_set t.payloads slot (Obj.repr payload);
    t.size <- t.size + 1;
    t.peeked <- -1;
    let d = int_of_float (at *. t.inv_width) in
    (* an event before the cursor's day would be walked past: rewind *)
    if d < t.day then begin
      t.day <- d;
      t.cur <- d land (t.nbuckets - 1)
    end;
    insert_slot t slot at seq (d land (t.nbuckets - 1));
    if t.size > 2 * t.nbuckets then rebucket t
    else begin
      (* a window of more inserts than pending events and buckets
         closes (a rebucket costs O(size + nbuckets)): rebucket if it
         walked stale, else open the next *)
      let inserts = t.next_seq - t.seq_mark in
      if inserts > t.size && inserts > t.nbuckets then
        if t.walk - t.walk_mark > stale_walk * inserts then rebucket t
        else begin
          t.seq_mark <- t.next_seq;
          t.walk_mark <- t.walk
        end
    end

  (* advance the cursor to the earliest event's slot; caller guarantees
     non-emptiness. O(1) amortized: each skipped bucket is an empty
     day, and a full empty year falls back to a direct head scan. *)
  let find_min t =
    let mask = t.nbuckets - 1 in
    let found = ref (-1) in
    let scanned = ref 0 in
    while !found = -1 do
      let h = Array.unsafe_get t.heads t.cur in
      if
        h <> -1
        && int_of_float (Array.unsafe_get t.etime h *. t.inv_width) = t.day
      then found := h
      else begin
        incr scanned;
        t.days <- t.days + 1;
        if !scanned > t.nbuckets then begin
          (* a whole year of misses: jump to the min head directly *)
          let best = ref (-1) and bt = ref infinity and bs = ref max_int in
          for b = 0 to t.nbuckets - 1 do
            let h = t.heads.(b) in
            if h <> -1 then begin
              let ht = t.etime.(h) and hs = t.eseq.(h) in
              if ht < !bt || (ht = !bt && hs < !bs) then begin
                best := h;
                bt := ht;
                bs := hs
              end
            end
          done;
          t.days <- t.days + t.nbuckets;
          t.day <- int_of_float (!bt *. t.inv_width);
          t.cur <- t.day land mask;
          found := !best
        end
        else begin
          t.cur <- (t.cur + 1) land mask;
          t.day <- t.day + 1
        end
      end
    done;
    (* the same windows over pops; the rebucket starts the cursor at
       the earliest event, whose slot heads its bucket, so [found]
       stays the slot to pop *)
    let pops = t.pops - t.pops_mark in
    if t.size < t.nbuckets / 8 && t.nbuckets > initial_buckets then
      (* a draining queue: fewer buckets, and the width of its new head *)
      rebucket t
    else if pops > t.size && pops > t.nbuckets then
      if t.days - t.days_mark > stale_walk * pops then rebucket t
      else begin
        t.pops_mark <- t.pops;
        t.days_mark <- t.days
      end;
    t.peeked <- !found;
    !found

  let[@inline] peek_slot t = if t.peeked >= 0 then t.peeked else find_min t

  let next_time_exn t =
    if t.size = 0 then invalid_arg "Event_queue.next_time_exn: empty queue";
    Sim_time.of_float t.etime.(peek_slot t)

  (* engine fast path: raw timestamp, no emptiness check, no boxing
     once inlined — callers guard with [is_empty] *)
  let[@inline] next_time_unsafe t = Array.unsafe_get t.etime (peek_slot t)

  let pop_exn (type a) (t : a t) : a =
    if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty queue";
    let slot = peek_slot t in
    t.peeked <- -1;
    (* the cursor sits on the slot's bucket after the peek *)
    let nx = Array.unsafe_get t.enext slot in
    Array.unsafe_set t.heads t.cur nx;
    if nx = -1 then Array.unsafe_set t.tails t.cur (-1);
    t.size <- t.size - 1;
    t.pops <- t.pops + 1;
    let ps = t.payloads in
    let payload = Array.unsafe_get ps slot in
    store_dummy ps slot;
    Array.unsafe_set t.enext slot t.free_head;
    t.free_head <- slot;
    (Obj.obj payload : a)

  let pop t =
    if t.size = 0 then None
    else
      let at = Sim_time.of_float t.etime.(peek_slot t) in
      Some (at, pop_exn t)

  let peek_time t =
    if t.size = 0 then None
    else Some (Sim_time.of_float t.etime.(peek_slot t))

  let size t = t.size
  let[@inline] is_empty t = t.size = 0

  let clear t =
    (* release every live payload and return its slot to the free
       list; bucket lists reset wholesale *)
    for b = 0 to t.nbuckets - 1 do
      let s = ref t.heads.(b) in
      while !s <> -1 do
        let nx = t.enext.(!s) in
        store_dummy t.payloads !s;
        t.enext.(!s) <- t.free_head;
        t.free_head <- !s;
        s := nx
      done;
      t.heads.(b) <- -1;
      t.tails.(b) <- -1
    done;
    t.size <- 0;
    t.peeked <- -1

  let scheduled_total t = t.next_seq

  let retained_payloads t =
    let n = ref 0 in
    Array.iter (fun p -> if p != dummy then incr n) t.payloads;
    !n

  let capacity t = Array.length t.etime
  let insert_walk t = t.walk
  let cursor_walk t = t.days
end

(* ------------------------------------------------------------------ *)
(* Heap: the seed implementation — persistent pairing heap of keys     *)
(* plus a payload side table — kept verbatim as the reference for      *)
(* differential testing against [Indexed].                             *)
(* ------------------------------------------------------------------ *)

module Heap = struct
  module Key = struct
    type t = { time : Sim_time.t; seq : int }

    let compare a b =
      let c = Sim_time.compare a.time b.time in
      if c <> 0 then c else Int.compare a.seq b.seq
  end

  (* The heap stores keys only; payloads live in a side table so the
     heap element type stays comparison-friendly. *)
  module H = Pairing_heap.Make (Key)

  type 'a t = {
    mutable heap : H.t;
    payloads : (int, 'a) Hashtbl.t;
    mutable next_seq : int;
  }

  let create () =
    { heap = H.empty; payloads = Hashtbl.create 256; next_seq = 0 }

  let schedule t ~at payload =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Hashtbl.replace t.payloads seq payload;
    t.heap <- H.insert { Key.time = at; seq } t.heap

  let pop t =
    match H.delete_min t.heap with
    | None -> None
    | Some (key, rest) ->
        t.heap <- rest;
        let payload = Hashtbl.find t.payloads key.Key.seq in
        Hashtbl.remove t.payloads key.Key.seq;
        Some (key.Key.time, payload)

  let next_time_exn t =
    match H.find_min t.heap with
    | Some k -> k.Key.time
    | None -> invalid_arg "Event_queue.next_time_exn: empty queue"

  let pop_exn t =
    match pop t with
    | Some (_, payload) -> payload
    | None -> invalid_arg "Event_queue.pop_exn: empty queue"

  let peek_time t = Option.map (fun k -> k.Key.time) (H.find_min t.heap)
  let size t = H.size t.heap
  let is_empty t = H.is_empty t.heap

  let clear t =
    t.heap <- H.empty;
    Hashtbl.reset t.payloads

  let scheduled_total t = t.next_seq
  let retained_payloads t = Hashtbl.length t.payloads
  let capacity t = (Hashtbl.stats t.payloads).Hashtbl.num_buckets
end

include Indexed
