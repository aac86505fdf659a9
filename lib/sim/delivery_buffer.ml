type status = Delivery_index.status = Ready | Wait | Stuck

type wait = Delivery_index.wait = {
  mutable resume : int;
  mutable counter : int;
  mutable count : int;
}

type ('s, 'm) oracle = 's -> src:int -> 'm -> wait -> status

module type S = sig
  type 'm t

  val create : unit -> 'm t
  val wait : 'm t -> wait
  val add : 'm t -> status -> src:int -> 'm -> unit

  val drain :
    'm t -> ('s, 'm) oracle -> 's -> apply:('s -> src:int -> 'm -> 'r) -> 'r list

  val note_advance :
    'm t -> ('s, 'm) oracle -> 's -> counter:int -> count:int -> unit

  val length : 'm t -> int
  val to_list : 'm t -> (int * 'm) list
  val remove_all : 'm t -> f:(int * 'm -> bool) -> (int * 'm) list
  val high_watermark : 'm t -> int
  val total_buffered : 'm t -> int
  val oracle_calls : 'm t -> int
end

module Scan : S = struct
  type 'm t = (int * 'm) Mailbox.t

  let create = Mailbox.create

  (* a fresh record each time: the reference evaluates from 0, always *)
  let wait _ = { resume = 0; counter = 0; count = 0 }
  let add t _ ~src m = Mailbox.add t (src, m)

  let rec drain t oracle s ~apply =
    match
      Mailbox.take_first t ~f:(fun (src, m) -> oracle s ~src m (wait t) = Ready)
    with
    | Some (src, m) ->
        let r = apply s ~src m in
        r :: drain t oracle s ~apply
    | None -> []

  let note_advance _ _ _ ~counter:_ ~count:_ = ()
  let length = Mailbox.length
  let to_list = Mailbox.to_list
  let remove_all = Mailbox.remove_all
  let high_watermark = Mailbox.high_watermark
  let total_buffered = Mailbox.total_buffered
  let oracle_calls = Mailbox.scans
end

module Indexed : S = Delivery_index
