module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Buffer = Dsm_sim.Delivery_buffer

type message = {
  var : int;
  value : int;
  dot : Dot.t;
  var_seq : int;
  know : V.t array;
}

let msg_frame (m : message) =
  {
    Dsm_obs.Wire.kind = "write";
    scalars = 3;  (* var, value, var_seq *)
    dots = 1;
    vectors = Array.to_list m.know;  (* the m×n dependency matrix *)
  }

module type IMPL = sig
  type t

  val create : Replication.t -> me:int -> t
  val me : t -> int
  val set_generation : t -> gen:int -> unit
  val generation : t -> int
  val adopt : Replication.t -> me:int -> gen:int -> sponsor:string -> t
  val replication : t -> Replication.t

  val write :
    t -> var:int -> value:int ->
    Dot.t * message * int list * Protocol.apply_record

  val read : t -> var:int -> Dsm_memory.Operation.value * Dot.t option
  val receive : t -> src:int -> message -> Protocol.apply_record list
  val deliverable : t -> src:int -> message -> bool
  val buffered : t -> int
  val buffer_high_watermark : t -> int
  val total_buffered : t -> int
  val applied_matrix : t -> V.t array
  val snapshot : t -> string
  val restore : Replication.t -> me:int -> string -> t
end

module Make (B : Buffer.S) = struct
  type t = {
    repl : Replication.t;
    me : int;
    mutable my_gen : int;  (* occupancy generation of this slot (reuse) *)
    store : Replica_store.t;  (* indexed by global var id; foreign vars unused *)
    applied : V.t array;  (* per var: applied write counts per issuer *)
    know : V.t array;  (* per var: last known write index per issuer *)
    last_write_know : V.t array array;
        (* per replicated var: the matrix of the last write applied to it *)
    buffer : message B.t;
    my_vars : int list;  (* vars_of me, cached for the hot path *)
    mutable next_global_seq : int;
  }

  let matrix n m = Array.init m (fun _ -> V.create n)

  let copy_matrix mx = Array.map V.copy mx

  let merge_matrix_into dst src =
    Array.iteri (fun i row -> V.merge_into row src.(i)) dst

  let create repl ~me =
    let n = Replication.n repl and m = Replication.m repl in
    if me < 0 || me >= n then
      invalid_arg "Opt_p_partial.create: process id out of range";
    {
      repl;
      me;
      my_gen = 0;
      store = Replica_store.create ~m;
      applied = matrix n m;
      know = matrix n m;
      last_write_know = Array.init m (fun _ -> matrix n m);
      buffer = B.create ();
      my_vars = Replication.vars_of repl ~proc:me;
      next_global_seq = 1;
    }

  let me t = t.me

  let set_generation t ~gen =
    if gen < 0 then
      invalid_arg "Opt_p_partial.set_generation: negative generation";
    t.my_gen <- gen

  let generation t = t.my_gen
  let replication t = t.repl

  (* the wakeup-counter space is the applied matrix, flattened: cell
     [Applied[y][k]] is abstract counter [y*n + k] *)
  let counter_of t ~var ~proc = (var * Replication.n t.repl) + proc

  let check_replicated t ~var name =
    if not (Replication.replicates t.repl ~proc:t.me ~var) then
      invalid_arg
        (Printf.sprintf "Opt_p_partial.%s: p%d does not replicate x%d" name
           (t.me + 1) (var + 1))

  let wait_on t (w : Buffer.wait) ~var ~proc ~count : Buffer.status =
    w.counter <- counter_of t ~var ~proc;
    w.count <- count;
    Wait

  (* the wait scan starts from the first row on every evaluation: it
     leaves [w.resume] alone *)
  let status t ~src (msg : message) (w : Buffer.wait) : Buffer.status =
    let a = V.unsafe_get t.applied.(msg.var) src in
    if msg.var_seq > a + 1 then
      wait_on t w ~var:msg.var ~proc:src ~count:(msg.var_seq - 1)
    else if msg.var_seq < a + 1 then Stuck  (* duplicate: already applied *)
    else
      (* every row of a location we replicate must be covered; the
         sender component of the written row is the gap condition
         above *)
      let n = Replication.n t.repl in
      let rec scan_row y k =
        if k >= n then Buffer.Ready
        else if
          (not (k = src && y = msg.var))
          && V.unsafe_get msg.know.(y) k > V.unsafe_get t.applied.(y) k
        then wait_on t w ~var:y ~proc:k ~count:(V.unsafe_get msg.know.(y) k)
        else scan_row y (k + 1)
      in
      let rec scan_vars = function
        | [] -> Buffer.Ready
        | y :: rest -> (
            match scan_row y 0 with
            | Buffer.Ready -> scan_vars rest
            | blocked -> blocked)
      in
      scan_vars t.my_vars

  (* every advance of the applied matrix flows through here so the
     buffer can wake exactly the subscribed messages *)
  let tick_applied t ~var ~proc =
    V.tick t.applied.(var) proc;
    B.note_advance t.buffer status t
      ~counter:(counter_of t ~var ~proc)
      ~count:(V.unsafe_get t.applied.(var) proc)

  let write t ~var ~value =
    check_replicated t ~var "write";
    V.tick t.know.(var) t.me;
    let var_seq = V.get t.know.(var) t.me in
    (* delivery conditions use per-var [var_seq] counters only; the
       global seq is pure identity, so under a fresh generation it may
       restart — the generation stamp keeps the dot unique *)
    let dot =
      Dot.make_gen ~replica:t.me ~gen:t.my_gen ~seq:t.next_global_seq
    in
    t.next_global_seq <- t.next_global_seq + 1;
    let know = copy_matrix t.know in
    let m = { var; value; dot; var_seq; know } in
    Replica_store.apply t.store ~var ~value ~dot;
    tick_applied t ~var ~proc:t.me;
    t.last_write_know.(var) <- know;
    let dests =
      List.filter (fun p -> p <> t.me) (Replication.replicas_of t.repl ~var)
    in
    let record =
      { Protocol.adot = dot; avar = var; avalue = value; afrom_buffer = false }
    in
    (dot, m, dests, record)

  let read t ~var =
    check_replicated t ~var "read";
    (* merge-on-read, one level up: absorb the last write's matrix *)
    merge_matrix_into t.know t.last_write_know.(var);
    Replica_store.read t.store ~var

  (* applicable iff the sender's chain on the written location is
     gap-free here and every row of a location we replicate is covered *)
  let deliverable t ~src (msg : message) =
    status t ~src msg (B.wait t.buffer) = Buffer.Ready

  let apply_msg t ~src (msg : message) ~from_buffer =
    Replica_store.apply t.store ~var:msg.var ~value:msg.value ~dot:msg.dot;
    tick_applied t ~var:msg.var ~proc:src;
    (* the message matrix is immutable once on the wire: alias it
       instead of copying m vectors per apply *)
    t.last_write_know.(msg.var) <- msg.know;
    {
      Protocol.adot = msg.dot;
      avar = msg.var;
      avalue = msg.value;
      afrom_buffer = from_buffer;
    }

  let drained t ~src msg = apply_msg t ~src msg ~from_buffer:true

  let receive t ~src msg =
    match status t ~src msg (B.wait t.buffer) with
    | Buffer.Ready ->
        let first = apply_msg t ~src msg ~from_buffer:false in
        first :: B.drain t.buffer status t ~apply:drained
    | (Wait | Stuck) as s ->
        B.add t.buffer s ~src msg;
        []

  let buffered t = B.length t.buffer
  let buffer_high_watermark t = B.high_watermark t.buffer
  let total_buffered t = B.total_buffered t.buffer
  let applied_matrix t = copy_matrix t.applied

  let snapshot t = Protocol.Snapshot.encode t

  let restore repl ~me s =
    let t : t = Protocol.Snapshot.decode s in
    if t.repl <> repl then
      invalid_arg "Opt_p_partial.restore: snapshot from a different map";
    if t.me <> me then
      invalid_arg "Opt_p_partial.restore: snapshot from a different process";
    t

  (* Slot reuse (see Opt_p.adopt): keep the sponsor's replica image;
     the know matrix restarts from the applied matrix, so per-variable
     write counters continue from the retired occupant's finals. *)
  let adopt repl ~me ~gen ~sponsor =
    let n = Replication.n repl in
    if me < 0 || me >= n then
      invalid_arg "Opt_p_partial.adopt: process id out of range";
    if gen < 1 then
      invalid_arg "Opt_p_partial.adopt: generation must be positive";
    let s : t = Protocol.Snapshot.decode sponsor in
    if s.repl <> repl then
      invalid_arg "Opt_p_partial.adopt: snapshot from a different map";
    {
      repl;
      me;
      my_gen = gen;
      store = s.store;
      applied = s.applied;
      know = copy_matrix s.applied;
      last_write_know = s.last_write_know;
      buffer = B.create ();
      my_vars = Replication.vars_of repl ~proc:me;
      next_global_seq = 1;
    }
end

include Make (Buffer.Indexed)
module Scan = Make (Buffer.Scan)
