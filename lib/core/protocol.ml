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
  waiting_for : Dsm_vclock.Dot.t option;
}

let no_effects = { applied = []; skipped = []; to_send = []; waiting_for = None }

let effects ?(applied = []) ?(skipped = []) ?(to_send = []) ?waiting_for () =
  { applied; skipped; to_send; waiting_for }

let merge_effects a b =
  {
    applied = a.applied @ b.applied;
    skipped = a.skipped @ b.skipped;
    to_send = a.to_send @ b.to_send;
    waiting_for = (if b.waiting_for = None then a.waiting_for else b.waiting_for);
  }

let waiting ~counter ~count =
  { no_effects with waiting_for = Some (Dsm_vclock.Dot.make ~replica:counter ~seq:count) }

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

module Buffer = Dsm_sim.Delivery_buffer
module V = Dsm_vclock.Vector_clock

(* the sender gap first, then the first component from the resume
   point on that the receiver still lacks, found by the
   [Vector_clock] kernel in one call *)
let vector_wait ~applied ~wanted ~n ~src (w : Buffer.wait) : Buffer.status =
  let a_src = V.get0 applied src and w_src = V.get0 wanted src in
  if a_src < w_src - 1 then begin
    w.counter <- src;
    w.count <- w_src - 1;
    Wait
  end
  else if a_src > w_src - 1 then Stuck
  else begin
    let upto = min n (V.size wanted) in
    let k =
      V.first_exceeding ~wanted ~applied ~skip:src ~from:w.resume ~upto
    in
    if k >= upto then begin
      w.resume <- upto;
      Ready
    end
    else begin
      w.resume <- k;
      w.counter <- k;
      w.count <- V.unsafe_get wanted k;
      Wait
    end
  end

(* the status check on the incoming message also routes it: a message
   that must wait is added with the status just computed *)
module Step (B : Dsm_sim.Delivery_buffer.S) = struct
  let receive buffer status s ~apply ~drained ~src m =
    let w = B.wait buffer in
    w.resume <- 0;
    match status s ~src m w with
    | Buffer.Ready ->
        (* apply first: each apply can enable buffered messages *)
        let first = apply s ~src m ~from_buffer:false in
        { no_effects with applied = first :: B.drain buffer status s ~apply:drained }
    | (Wait | Stuck) as status ->
        B.add buffer status ~src m;
        if status = Wait then waiting ~counter:w.counter ~count:w.count
        else no_effects
end

type packed = Packed : (module S with type t = 't and type msg = 'm) -> packed

let pp_apply_record ppf r =
  Format.fprintf ppf "apply(%a x%d:=%d%s)" Dsm_vclock.Dot.pp r.adot
    (r.avar + 1) r.avalue
    (if r.afrom_buffer then " delayed" else "")
