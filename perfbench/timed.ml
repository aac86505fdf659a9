(* A timed [Protocol.S] wrapper: the benchmark's view of the core layer.

   [Make (P) ()] behaves exactly like [P] — same types, same results,
   same effects in the same order — and additionally charges the host
   time of every write, read, receive, snapshot and restore (adopt
   counts as a restore: it rebuilds a state from a snapshot) to a
   counter record. Receives also record the minor words they allocate,
   whether they buffered the message and the delivery-buffer wakeup
   scans they caused. Every state the wrapper creates is kept, so its
   own counters can be read after the run. *)

module Protocol = Dsm_core.Protocol

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type counters = {
  mutable write_ns : int;
  mutable writes : int;
  mutable read_ns : int;
  mutable reads : int;
  mutable receive_ns : int;
  mutable receives : int;
  mutable receive_words : float;
  mutable receive_applies : int;
  mutable receives_buffered : int;
  mutable wakeup_scans : int;
  mutable snapshot_ns : int;
  mutable snapshots : int;
  mutable snapshot_bytes : int;
  mutable restore_ns : int;
  mutable restores : int;
}

let counters () =
  {
    write_ns = 0;
    writes = 0;
    read_ns = 0;
    reads = 0;
    receive_ns = 0;
    receives = 0;
    receive_words = 0.;
    receive_applies = 0;
    receives_buffered = 0;
    wakeup_scans = 0;
    snapshot_ns = 0;
    snapshots = 0;
    snapshot_bytes = 0;
    restore_ns = 0;
    restores = 0;
  }

(* host time spent inside the protocol step functions *)
let core_ns c = c.write_ns + c.read_ns + c.receive_ns

(* host time spent producing and consuming durable images *)
let durability_ns c = c.snapshot_ns + c.restore_ns

module type TIMED = sig
  include Protocol.S

  val counters : counters
  val states : unit -> t list
  (** Every state created, restored or adopted, oldest first. *)
end

module Make (P : Protocol.S) () :
  TIMED with type t = P.t and type msg = P.msg = struct
  include P

  let counters = counters ()
  let created = ref []
  let keep t = created := t :: !created; t
  let states () = List.rev !created
  let create cfg ~me = keep (P.create cfg ~me)

  let write t ~var ~value =
    let t0 = now_ns () in
    let r = P.write t ~var ~value in
    counters.write_ns <- counters.write_ns + (now_ns () - t0);
    counters.writes <- counters.writes + 1;
    r

  let read t ~var =
    let t0 = now_ns () in
    let r = P.read t ~var in
    counters.read_ns <- counters.read_ns + (now_ns () - t0);
    counters.reads <- counters.reads + 1;
    r

  let receive t ~src msg =
    let buffered0 = P.total_buffered t in
    let scans0 = P.buffer_wakeup_scans t in
    let words0 = Gc.minor_words () in
    let t0 = now_ns () in
    let (e : _ Protocol.effects) = P.receive t ~src msg in
    let t1 = now_ns () in
    counters.receive_ns <- counters.receive_ns + (t1 - t0);
    counters.receive_words <-
      counters.receive_words +. (Gc.minor_words () -. words0);
    counters.receives <- counters.receives + 1;
    counters.receive_applies <-
      counters.receive_applies + List.length e.applied;
    if P.total_buffered t > buffered0 then
      counters.receives_buffered <- counters.receives_buffered + 1;
    counters.wakeup_scans <-
      counters.wakeup_scans + (P.buffer_wakeup_scans t - scans0);
    e

  let snapshot t =
    let t0 = now_ns () in
    let s = P.snapshot t in
    counters.snapshot_ns <- counters.snapshot_ns + (now_ns () - t0);
    counters.snapshots <- counters.snapshots + 1;
    counters.snapshot_bytes <- counters.snapshot_bytes + String.length s;
    s

  let restored f =
    let t0 = now_ns () in
    let t = f () in
    counters.restore_ns <- counters.restore_ns + (now_ns () - t0);
    counters.restores <- counters.restores + 1;
    keep t

  let restore cfg ~me s = restored (fun () -> P.restore cfg ~me s)

  let adopt cfg ~me ~gen ~sponsor =
    restored (fun () -> P.adopt cfg ~me ~gen ~sponsor)
end
