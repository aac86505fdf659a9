type status =
  | Ready
  | Wait_for of { counter : int; count : int }
  | Stuck

type 'a entry = { id : int; payload : 'a; mutable alive : bool }

(* integer hashes for the cells and the ids, so no subscribe, wakeup or
   take calls the polymorphic [caml_hash] and [compare]; why every
   counter shares one cell table is in the interface *)
module Cells = Hashtbl.Make (struct
  type t = int * int

  let equal ((c, k) : t) ((c', k') : t) = c = c' && k = k'
  let hash ((c, k) : t) = ((c * 0x9e3779b1) + k) land max_int
end)

module Ids = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (id : int) = id
end)

type 'a t = {
  mutable next_id : int;
  live : 'a entry Ids.t;  (* id -> entry, every buffered message *)
  cells : 'a entry list Cells.t;
      (* (counter, count) -> subscribers, newest first; a cell may keep
         dead entries, which are skipped when it fires *)
  mutable ready : 'a entry list;  (* ids ascending: oldest ready first *)
  mutable high : int;
  mutable total : int;
  mutable oracle : int;  (* status-oracle evaluations (wakeup scans) *)
}

let create () =
  {
    next_id = 0;
    live = Ids.create 64;
    cells = Cells.create 64;
    ready = [];
    high = 0;
    total = 0;
    oracle = 0;
  }

let length t = Ids.length t.live
let is_empty t = Ids.length t.live = 0

(* [replace] rewrites a found cell's binding in place: a subscribe to
   an existing cell allocates only the key and the new subscriber *)
let subscribe t e ~counter ~count =
  let key = (counter, count) in
  match Cells.find t.cells key with
  | subs -> Cells.replace t.cells key (e :: subs)
  | exception Not_found -> Cells.add t.cells key [ e ]

let rec insert_ready e = function
  | [] -> [ e ]
  | e' :: _ as l when e.id < e'.id -> e :: l
  | e' :: rest -> e' :: insert_ready e rest

let add t status x =
  let e = { id = t.next_id; payload = x; alive = true } in
  t.next_id <- t.next_id + 1;
  Ids.add t.live e.id e;
  t.total <- t.total + 1;
  let len = Ids.length t.live in
  if len > t.high then t.high <- len;
  (* the caller's evaluation of [status] routes the message, and counts
     as the routing call *)
  t.oracle <- t.oracle + 1;
  match status with
  | Ready -> t.ready <- insert_ready e t.ready
  | Wait_for { counter; count } -> subscribe t e ~counter ~count
  | Stuck -> ()  (* parked: stays in [live], never re-examined *)

let rec merge_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, (y :: _ as l) when x.id < y.id -> x :: merge_sorted xs l
  | l, y :: ys -> y :: merge_sorted l ys

(* re-route a fired cell's live subscribers; returns the ready ones,
   newest first *)
let rec wake t ~status woken = function
  | [] -> woken
  | e :: rest when not e.alive -> wake t ~status woken rest
  | e :: rest -> (
      t.oracle <- t.oracle + 1;
      match status e.payload with
      | Ready -> wake t ~status (e :: woken) rest
      | Wait_for { counter; count } ->
          subscribe t e ~counter ~count;
          wake t ~status woken rest
      | Stuck -> wake t ~status woken rest)

let note_advance t ~status ~counter ~count =
  if Cells.length t.cells > 0 then
    let key = (counter, count) in
    match Cells.find t.cells key with
    | exception Not_found -> ()
    | subs -> (
        Cells.remove t.cells key;
        match wake t ~status [] subs with
        | [] -> ()
        | woken ->
            t.ready <-
              merge_sorted
                (List.sort (fun a b -> Int.compare a.id b.id) woken)
                t.ready)

let rec take_ready t ~status =
  match t.ready with
  | [] -> None
  | e :: rest -> (
      t.ready <- rest;
      if not e.alive then take_ready t ~status  (* removed while queued *)
      else begin
        (* re-validate: a duplicate can lose deliverability (go stuck)
           between wakeup and take *)
        t.oracle <- t.oracle + 1;
        match status e.payload with
        | Ready ->
            e.alive <- false;
            Ids.remove t.live e.id;
            Some e.payload
        | Wait_for { counter; count } ->
            subscribe t e ~counter ~count;
            take_ready t ~status
        | Stuck -> take_ready t ~status
      end)

let live_entries_oldest_first t =
  Ids.fold (fun _ e acc -> e :: acc) t.live []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let to_list t = List.map (fun e -> e.payload) (live_entries_oldest_first t)

let remove_all t ~f =
  let removed =
    List.filter (fun e -> f e.payload) (live_entries_oldest_first t)
  in
  List.iter
    (fun e ->
      e.alive <- false;
      Ids.remove t.live e.id)
    removed;
  List.map (fun e -> e.payload) removed

let high_watermark t = t.high
let total_buffered t = t.total
let oracle_calls t = t.oracle

let clear t =
  Ids.reset t.live;
  Cells.reset t.cells;
  t.ready <- []
