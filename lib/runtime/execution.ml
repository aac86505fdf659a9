module Dot = Dsm_vclock.Dot
module Sim_time = Dsm_sim.Sim_time
module Operation = Dsm_memory.Operation

type kind =
  | Send of { dot : Dot.t; var : int; value : int }
  | Receipt of { dot : Dot.t; src : int }
  | Blocked of { dot : Dot.t; waiting_for : Dot.t }
  | Apply of { dot : Dot.t; var : int; value : int; delayed : bool }
  | Skip of { dot : Dot.t }
  | Return of {
      var : int;
      value : Operation.value;
      read_from : Dot.t option;
    }

type event = { proc : int; time : Sim_time.t; kind : kind }

(* One row per event, [row] bytes: a tag byte, then the time and six
   ints, 8 bytes each (little-endian; the time as its IEEE bits).

     tag  kind     ints 0-2            3    4      5
     0    Send     dot                 var  value
     1    Receipt  dot                 src
     2    Blocked  dot                 waiting_for (3 ints)
     3    Apply    dot                 var  value  delayed (0/1)
     4    Skip     dot
     5    Return   read_from (-1: ⊥)   var  value  ⊥ (0/1)

   A dot takes three ints: replica, generation, sequence number. A row
   is written once, into a zeroed chunk, so an int it leaves out is 0. *)
let row = 57

let send = 0
and receipt = 1
and blocked = 2
and apply = 3
and skip = 4
and return = 5

(* A column keeps its rows in byte chunks of [chunk_rows], which the GC
   never scans. A full chunk is never copied: it is larger than the
   biggest block the minor heap takes, so it is allocated in the major
   heap. Only a column's first chunk grows, doubling from [first_rows],
   so a small run does not pay for full chunks. *)
let chunk_bits = 8
let chunk_rows = 1 lsl chunk_bits
let chunk_mask = chunk_rows - 1
let first_rows = 16

type column = {
  width : int;  (** bytes per row *)
  mutable chunks : Bytes.t array;  (** row [i] is in chunk [i lsr chunk_bits] *)
  mutable rows : int;
  mutable cap : int;
}

let column width =
  {
    width;
    chunks = [| Bytes.make (first_rows * width) '\000' |];
    rows = 0;
    cap = first_rows;
  }

(* room for one more row *)
let reserve col =
  if col.rows = col.cap then
    if col.cap < chunk_rows then begin
      let c = Bytes.make (2 * col.cap * col.width) '\000' in
      Bytes.blit col.chunks.(0) 0 c 0 (col.cap * col.width);
      col.chunks.(0) <- c;
      col.cap <- 2 * col.cap
    end
    else begin
      let k = col.cap lsr chunk_bits in
      if k = Array.length col.chunks then
        col.chunks <- Array.append col.chunks (Array.make k Bytes.empty);
      col.chunks.(k) <- Bytes.make (chunk_rows * col.width) '\000';
      col.cap <- col.cap + chunk_rows
    end

(* row [i]'s chunk, and the offset of its byte [b] there *)
let chunk col i = col.chunks.(i lsr chunk_bits)
let offset col i b = ((i land chunk_mask) * col.width) + b
let get_int col i b =
  Int64.to_int (Bytes.get_int64_le (chunk col i) (offset col i b))

let set_int c o v = Bytes.set_int64_le c o (Int64.of_int v)

type t = {
  n : int;
  m : int;
  logs : column array;  (** per process, the rows of [E_i] *)
  order : column;  (** the process of each event, globally, one int a row *)
  counts : int array;  (** events per tag, counted as they are recorded *)
  delays : int array;  (** delayed applies per process *)
  mutable delay_total : int;
}

let create ~n ~m () =
  if n <= 0 then invalid_arg "Execution.create: n must be positive";
  if m <= 0 then invalid_arg "Execution.create: m must be positive";
  {
    n;
    m;
    logs = Array.init n (fun _ -> column row);
    order = column 8;
    counts = Array.make (return + 1) 0;
    delays = Array.make n 0;
    delay_total = 0;
  }

let n_processes t = t.n
let n_variables t = t.m

let check_proc t what proc =
  if proc < 0 || proc >= t.n then
    invalid_arg ("Execution." ^ what ^ ": process id out of range")

(* int [k] of the row at offset [o] *)
let int_byte o k = o + 9 + (8 * k)

let set_dot c o k (d : Dot.t) =
  set_int c (int_byte o k) d.replica;
  set_int c (int_byte o (k + 1)) d.gen;
  set_int c (int_byte o (k + 2)) d.seq

let record t ~proc ~time kind =
  check_proc t "record" proc;
  let l = t.logs.(proc) in
  reserve l;
  let c = chunk l l.rows and o = offset l l.rows 0 in
  let tag =
    match kind with
    | Send { dot; var; value } ->
        set_dot c o 0 dot;
        set_int c (int_byte o 3) var;
        set_int c (int_byte o 4) value;
        send
    | Receipt { dot; src } ->
        set_dot c o 0 dot;
        set_int c (int_byte o 3) src;
        receipt
    | Blocked { dot; waiting_for } ->
        set_dot c o 0 dot;
        set_dot c o 3 waiting_for;
        blocked
    | Apply { dot; var; value; delayed } ->
        set_dot c o 0 dot;
        set_int c (int_byte o 3) var;
        set_int c (int_byte o 4) value;
        set_int c (int_byte o 5) (Bool.to_int delayed);
        if delayed then begin
          t.delays.(proc) <- t.delays.(proc) + 1;
          t.delay_total <- t.delay_total + 1
        end;
        apply
    | Skip { dot } ->
        set_dot c o 0 dot;
        skip
    | Return { var; value; read_from } ->
        (match read_from with
        | Some d -> set_dot c o 0 d
        | None -> set_int c (int_byte o 0) (-1));
        set_int c (int_byte o 3) var;
        (match value with
        | Operation.Val v -> set_int c (int_byte o 4) v
        | Operation.Bot -> set_int c (int_byte o 5) 1);
        return
  in
  Bytes.set_uint8 c o tag;
  Bytes.set_int64_le c (o + 1) (Int64.bits_of_float (Sim_time.to_float time));
  l.rows <- l.rows + 1;
  t.counts.(tag) <- t.counts.(tag) + 1;
  let g = t.order in
  reserve g;
  set_int (chunk g g.rows) (offset g g.rows 0) proc;
  g.rows <- g.rows + 1

(* ---- reading rows -------------------------------------------------- *)

let tag_at l i = Bytes.get_uint8 (chunk l i) (offset l i 0)
let int_at l i k = get_int l i (int_byte 0 k)

let time_at l i =
  Sim_time.of_float
    (Int64.float_of_bits (Bytes.get_int64_le (chunk l i) (offset l i 1)))

let dot_at l i k =
  {
    Dot.replica = int_at l i k;
    gen = int_at l i (k + 1);
    seq = int_at l i (k + 2);
  }

let dot_is l i (d : Dot.t) =
  int_at l i 0 = d.replica && int_at l i 2 = d.seq && int_at l i 1 = d.gen

let is_delayed_apply l i = tag_at l i = apply && int_at l i 5 = 1

let return_value l i =
  if int_at l i 5 = 1 then Operation.Bot else Operation.Val (int_at l i 4)

let read_from_at l i = if int_at l i 0 < 0 then None else Some (dot_at l i 0)

let kind_at l i =
  match tag_at l i with
  | 0 -> Send { dot = dot_at l i 0; var = int_at l i 3; value = int_at l i 4 }
  | 1 -> Receipt { dot = dot_at l i 0; src = int_at l i 3 }
  | 2 -> Blocked { dot = dot_at l i 0; waiting_for = dot_at l i 3 }
  | 3 ->
      Apply
        {
          dot = dot_at l i 0;
          var = int_at l i 3;
          value = int_at l i 4;
          delayed = int_at l i 5 = 1;
        }
  | 4 -> Skip { dot = dot_at l i 0 }
  | _ ->
      Return
        {
          var = int_at l i 3;
          value = return_value l i;
          read_from = read_from_at l i;
        }

let event_at t proc i =
  let l = t.logs.(proc) in
  { proc; time = time_at l i; kind = kind_at l i }

(* [f proc log row] for every event, in global order *)
let iter_rows f t =
  let next = Array.make t.n 0 in
  let g = t.order in
  for k = 0 to g.rows - 1 do
    let p = get_int g k 0 in
    let i = next.(p) in
    next.(p) <- i + 1;
    f p t.logs.(p) i
  done

let iter f t = iter_rows (fun p _ i -> f (event_at t p i)) t

module Row = struct
  type tag = Send | Receipt | Blocked | Apply | Skip | Return
  type log = column

  let log t proc =
    check_proc t "Row.log" proc;
    t.logs.(proc)

  let length l = l.rows

  let tag l i =
    match tag_at l i with
    | 0 -> Send
    | 1 -> Receipt
    | 2 -> Blocked
    | 3 -> Apply
    | 4 -> Skip
    | _ -> Return

  let replica l i = int_at l i 0
  let gen l i = int_at l i 1
  let seq l i = int_at l i 2
  let dot l i = dot_at l i 0
  let var l i = int_at l i 3
  let value l i = int_at l i 4
  let delayed l i = int_at l i 5 = 1
  let iter = iter_rows
end

(* the rows of [proc] matching [p], in order, each mapped through [f] *)
let collect t proc p f =
  let l = t.logs.(proc) in
  let acc = ref [] in
  for i = l.rows - 1 downto 0 do
    if p l i then acc := f l i :: !acc
  done;
  !acc

let events t =
  let acc = ref [] in
  iter_rows (fun p _ i -> acc := event_at t p i :: !acc) t;
  List.rev !acc

let events_of t proc =
  check_proc t "events_of" proc;
  collect t proc (fun _ _ -> true) (fun _ i -> event_at t proc i)

let event_count t = t.order.rows

(* ---- queries ------------------------------------------------------- *)

let has_tag tag l i = tag_at l i = tag

let apply_order t proc =
  check_proc t "apply_order" proc;
  collect t proc (has_tag apply) (fun l i -> dot_at l i 0)

let first_row t what tag ~proc ~dot =
  check_proc t what proc;
  let l = t.logs.(proc) in
  let rec go i =
    if i = l.rows then None
    else if tag_at l i = tag && dot_is l i dot then Some i
    else go (i + 1)
  in
  go 0

let apply_position t ~proc ~dot = first_row t "apply_position" apply ~proc ~dot

let receipt_position t ~proc ~dot =
  first_row t "receipt_position" receipt ~proc ~dot

let time_of t ~proc = Option.map (fun i -> time_at t.logs.(proc) i)
let apply_time t ~proc ~dot = time_of t ~proc (apply_position t ~proc ~dot)

let receipt_time t ~proc ~dot =
  time_of t ~proc (receipt_position t ~proc ~dot)

let delayed_applies t =
  let acc = ref [] in
  iter_rows
    (fun p l i ->
      if is_delayed_apply l i then acc := (p, dot_at l i 0) :: !acc)
    t;
  List.rev !acc

let delay_count t = t.delay_total

let delay_count_at t proc =
  check_proc t "delay_count_at" proc;
  t.delays.(proc)

let skip_count t = t.counts.(skip)
let apply_count t = t.counts.(apply)
let blocked_count t = t.counts.(blocked)

let writes t =
  (* own-apply at the issuer is the canonical record of a write: every
     protocol applies its own writes immediately, even those that
     writing semantics later hides from other processes. Equal dots
     can only come from one issuer's log; they sort latest first. *)
  let acc = ref [] in
  for proc = 0 to t.n - 1 do
    let l = t.logs.(proc) in
    for i = 0 to l.rows - 1 do
      if tag_at l i = apply && int_at l i 0 = proc then
        acc := (dot_at l i 0, int_at l i 3, int_at l i 4) :: !acc
    done
  done;
  List.sort (fun (a, _, _) (b, _, _) -> Dot.compare a b) !acc

let to_history ?floor t =
  let base proc =
    match floor with
    | None -> 0
    | Some f -> Dsm_vclock.Vector_clock.get0 f proc
  in
  let locals =
    List.init t.n (fun proc ->
        let lh = Dsm_memory.Local_history.create ~base:(base proc) ~proc () in
        let l = t.logs.(proc) in
        for i = 0 to l.rows - 1 do
          let tag = tag_at l i in
          if tag = apply && int_at l i 0 = proc then
            (* dot passthrough keeps the occupancy generation on the
               recorded write; the builder still enforces that own
               applies arrive in sequence order from the base *)
            ignore
              (Dsm_memory.Local_history.add_write ~dot:(dot_at l i 0) lh
                 ~var:(int_at l i 3) ~value:(int_at l i 4))
          else if tag = return then
            ignore
              (Dsm_memory.Local_history.add_read lh ~var:(int_at l i 3)
                 ~value:(return_value l i) ~read_from:(read_from_at l i))
        done;
        lh)
  in
  Dsm_memory.History.of_locals locals

let pp_kind_at proc ppf kind =
  let p = proc + 1 in
  match kind with
  | Send { dot; var; value } ->
      Format.fprintf ppf "send_%d(%a:x%d:=%d)" p Dot.pp dot (var + 1) value
  | Receipt { dot; _ } -> Format.fprintf ppf "receipt_%d(%a)" p Dot.pp dot
  | Blocked { dot; waiting_for } ->
      Format.fprintf ppf "blocked_%d(%a<-%a)" p Dot.pp dot Dot.pp waiting_for
  | Apply { dot; delayed; _ } ->
      Format.fprintf ppf "apply_%d(%a)%s" p Dot.pp dot
        (if delayed then "*" else "")
  | Skip { dot } -> Format.fprintf ppf "skip_%d(%a)" p Dot.pp dot
  | Return { var; value; _ } ->
      Format.fprintf ppf "return_%d(x%d, %a)" p (var + 1)
        Operation.pp_value value

let pp_event ppf e =
  Format.fprintf ppf "[%a] %a" Sim_time.pp e.time (pp_kind_at e.proc) e.kind

let pp_process t proc ppf () =
  check_proc t "pp_process" proc;
  let l = t.logs.(proc) in
  Format.fprintf ppf "@[<hov 2>";
  for i = 0 to l.rows - 1 do
    if i > 0 then Format.fprintf ppf " <%d@ " (proc + 1);
    pp_kind_at proc ppf (kind_at l i)
  done;
  Format.fprintf ppf "@]"

let apply_latencies t =
  (* single pass per process: receipts stamp a table, applies consume it *)
  let out = ref [] in
  for proc = 0 to t.n - 1 do
    let receipt_at = Hashtbl.create 64 in
    let l = t.logs.(proc) in
    for i = 0 to l.rows - 1 do
      let tag = tag_at l i in
      if tag = receipt then
        Hashtbl.replace receipt_at (dot_at l i 0) (time_at l i)
      else if tag = apply then
        match Hashtbl.find_opt receipt_at (dot_at l i 0) with
        | Some r -> out := Sim_time.diff (time_at l i) r :: !out
        | None -> () (* own write: no receipt *)
    done
  done;
  List.rev !out
