type config = { n : int; m : int }

let config ~n ~m =
  if n <= 0 then invalid_arg "Protocol.config: n must be positive";
  if m <= 0 then invalid_arg "Protocol.config: m must be positive";
  { n; m }

type apply_record = {
  adot : Dsm_vclock.Dot.t;
  avar : int;
  avalue : int;
  afrom_buffer : bool;
}

type 'msg outbound = Broadcast of 'msg | Unicast of { dst : int; msg : 'msg }

type 'msg effects = {
  applied : apply_record list;
  skipped : Dsm_vclock.Dot.t list;
  to_send : 'msg outbound list;
}

let no_effects = { applied = []; skipped = []; to_send = [] }

let effects ?(applied = []) ?(skipped = []) ?(to_send = []) () =
  { applied; skipped; to_send }

let merge_effects a b =
  {
    applied = a.applied @ b.applied;
    skipped = a.skipped @ b.skipped;
    to_send = a.to_send @ b.to_send;
  }

module type S = sig
  type t
  type msg

  val name : string
  val create : config -> me:int -> t
  val me : t -> int
  val grow : t -> n:int -> unit
  val set_generation : t -> gen:int -> unit
  val generation : t -> int
  val adopt : config -> me:int -> gen:int -> sponsor:string -> t
  val write : t -> var:int -> value:int -> Dsm_vclock.Dot.t * msg effects
  val read : t -> var:int -> Dsm_memory.Operation.value * Dsm_vclock.Dot.t option
  val receive : t -> src:int -> msg -> msg effects
  val waiting_for : t -> src:int -> msg -> Dsm_vclock.Dot.t option
  val buffered : t -> int
  val buffer_high_watermark : t -> int
  val total_buffered : t -> int
  val buffer_wakeup_scans : t -> int
  val applied_vector : t -> Dsm_vclock.Vector_clock.t
  val local_clock : t -> Dsm_vclock.Vector_clock.t
  val msg_writes : msg -> (Dsm_vclock.Dot.t * int * int) list
  val msg_frame : msg -> Dsm_obs.Wire.frame
  val pp_msg : Format.formatter -> msg -> unit
  val snapshot : t -> string
  val restore : config -> me:int -> string -> t
end

module Snapshot = struct
  let encode v = Marshal.to_string v []
  let decode s = (Marshal.from_string s 0 : 'a)

  let check_identity ~proto ~cfg ~me ~cfg' ~me' =
    if cfg' <> cfg then
      invalid_arg (proto ^ ".restore: snapshot from a different config");
    if me' <> me then
      invalid_arg (proto ^ ".restore: snapshot from a different process")
end

(* Shared receive/drain skeletons over a delivery buffer.

   Every buffer operation takes the wakeup oracle as a [~status]
   closure; building that closure per operation ([status t] is a
   partial application) used to be the dominant steady-state allocation
   of a receive cascade. The skeletons instead thread ONE hoisted
   closure through the whole cascade — the closure reads the protocol
   state through its captured [t], so it stays correct as applies
   advance the counters. The status check on the incoming message
   also routes it: a message that must wait is added with the status
   just computed, which the buffer counts as its routing call, so the
   oracle-call count (one per [take_ready] candidate, one per add) and
   every pinned wakeup-scan metric are unchanged. *)
module Step (B : Dsm_sim.Delivery_buffer.S) = struct
  let drain buffer ~status ~apply =
    (* apply inside the loop: each apply can enable further buffered
       messages (chained unblocking); [note_advance] under [apply]
       re-checks exactly the messages subscribed to the advanced
       counter, so only genuinely enabled messages are re-examined *)
    let rec go acc =
      match B.take_ready buffer ~status with
      | Some (src, m) -> go (apply ~src m ~from_buffer:true :: acc)
      | None -> List.rev acc
    in
    go []

  let receive buffer ~status ~apply ~src m =
    let x = (src, m) in
    match status x with
    | Dsm_sim.Delivery_buffer.Ready ->
        let first = apply ~src m ~from_buffer:false in
        effects ~applied:(first :: drain buffer ~status ~apply) ()
    | (Wait_for _ | Stuck) as s ->
        B.add buffer s x;
        no_effects
end

type packed = Packed : (module S with type t = 't and type msg = 'm) -> packed

let pp_apply_record ppf r =
  Format.fprintf ppf "apply(%a x%d:=%d%s)" Dsm_vclock.Dot.pp r.adot
    (r.avar + 1) r.avalue
    (if r.afrom_buffer then " delayed" else "")
