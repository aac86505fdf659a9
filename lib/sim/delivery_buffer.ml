type status = Delivery_index.status =
  | Ready
  | Wait_for of { counter : int; count : int }
  | Stuck

module type S = sig
  type 'a t

  val create : unit -> 'a t
  val add : 'a t -> status -> 'a -> unit
  val take_ready : 'a t -> status:('a -> status) -> 'a option
  val note_advance :
    'a t -> status:('a -> status) -> counter:int -> count:int -> unit

  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val to_list : 'a t -> 'a list
  val remove_all : 'a t -> f:('a -> bool) -> 'a list
  val high_watermark : 'a t -> int
  val total_buffered : 'a t -> int
  val oracle_calls : 'a t -> int
  val clear : 'a t -> unit
end

module Scan : S = struct
  type 'a t = 'a Mailbox.t

  let create = Mailbox.create
  let add t _ x = Mailbox.add t x

  let take_ready t ~status =
    Mailbox.take_first t ~f:(fun x ->
        match status x with Ready -> true | Wait_for _ | Stuck -> false)

  let note_advance _ ~status:_ ~counter:_ ~count:_ = ()
  let length = Mailbox.length
  let is_empty = Mailbox.is_empty
  let to_list = Mailbox.to_list
  let remove_all = Mailbox.remove_all
  let high_watermark = Mailbox.high_watermark
  let total_buffered = Mailbox.total_buffered
  let oracle_calls = Mailbox.scans
  let clear = Mailbox.clear
end

module Indexed : S = Delivery_index
