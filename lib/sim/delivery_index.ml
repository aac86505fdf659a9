type status = Ready | Wait | Stuck
type wait = { mutable resume : int; mutable counter : int; mutable count : int }
type ('s, 'm) oracle = 's -> src:int -> 'm -> wait -> status

(* A buffered message. [Nil] ends every chain, so a link allocates
   nothing. Through [link] a buffered entry is in exactly one chain: its
   cell's subscribers, the ready queue or the parked list; a taken one
   is in none. A negative [resume] marks it taken or removed. *)
type 'm entry =
  | Nil
  | E of {
      id : int;  (* insertion order *)
      src : int;
      payload : 'm;
      mutable resume : int;
      mutable count : int;  (* of its cell; in the ready queue, [id] *)
      mutable link : 'm entry;
    }

type 'm t = {
  mutable next_id : int;
  mutable length : int;
  mutable ready : 'm entry;  (* ids ascending: oldest ready first *)
  mutable parked : 'm entry;
  mutable cells : 'm entry array;
      (* per counter, its subscribers by count ascending; a cell may
         keep removed entries, which are skipped when it fires *)
  w : wait;
  mutable high : int;
  mutable total : int;
  mutable oracle : int;  (* status-oracle evaluations (wakeup scans) *)
}

let create () =
  {
    next_id = 0;
    length = 0;
    ready = Nil;
    parked = Nil;
    cells = [||];
    w = { resume = 0; counter = 0; count = 0 };
    high = 0;
    total = 0;
    oracle = 0;
  }

let wait t = t.w
let length t = t.length
let is_empty t = t.length = 0

(* A cell's chain is sorted by [count], the ready queue by [count] set
   to [id]; these are top-level functions, as a local one would
   allocate its closure on every call. *)
let rec insert_after prev entry ~key =
  match (prev, entry) with
  | E p, E e -> (
      match p.link with
      | E q when q.count < key -> insert_after p.link entry ~key
      | next ->
          e.link <- next;
          p.link <- entry)
  | _ -> ()

(* [entry] linked into the sorted chain [first]; the new first entry *)
let insert first entry =
  match (first, entry) with
  | E f, E e when f.count < e.count ->
      insert_after first entry ~key:e.count;
      first
  | _, E e ->
      e.link <- first;
      entry
  | _, Nil -> first

let route t status entry =
  match (status, entry) with
  | Ready, E e ->
      e.count <- e.id;
      t.ready <- insert t.ready entry
  | Wait, E e ->
      let len = Array.length t.cells and counter = t.w.counter in
      if counter >= len then
        t.cells <- Array.append t.cells (Array.make (max (counter + 1 - len) len) Nil);
      e.count <- t.w.count;
      t.cells.(counter) <- insert t.cells.(counter) entry
  | Stuck, E e ->
      (* parked: buffered, never re-examined *)
      e.link <- t.parked;
      t.parked <- entry
  | _, Nil -> ()

(* one oracle call on a buffered entry, resumed where its last stopped *)
let evaluate t oracle s = function
  | Nil -> Stuck
  | E e ->
      t.oracle <- t.oracle + 1;
      t.w.resume <- e.resume;
      let status = oracle s ~src:e.src e.payload t.w in
      e.resume <- t.w.resume;
      status

let add t status ~src payload =
  let entry =
    E { id = t.next_id; src; payload; resume = t.w.resume; count = 0; link = Nil }
  in
  t.next_id <- t.next_id + 1;
  t.length <- t.length + 1;
  t.total <- t.total + 1;
  if t.length > t.high then t.high <- t.length;
  (* the caller's evaluation routes the message: the routing call *)
  t.oracle <- t.oracle + 1;
  route t status entry

let rec wake t oracle s = function
  | Nil -> ()
  | E e as entry ->
      let next = e.link in
      if e.resume >= 0 then route t (evaluate t oracle s entry) entry;
      wake t oracle s next

(* the chain after [prev]'s run of counts up to [count], cut off: so an
   unreported advance would delay no later cell *)
let rec cut prev ~count =
  match prev with
  | E p -> (
      match p.link with
      | E q when q.count <= count -> cut p.link ~count
      | rest ->
          p.link <- Nil;
          rest)
  | Nil -> Nil

let note_advance t oracle s ~counter ~count =
  if counter < Array.length t.cells then
    match t.cells.(counter) with
    | E f as subscribers when f.count <= count ->
        t.cells.(counter) <- cut subscribers ~count;
        wake t oracle s subscribers
    | _ -> ()

(* the oldest ready entry, re-validated (a duplicate can go stuck between
   wakeup and take); [Nil] when none is ready *)
let rec take t oracle s =
  match t.ready with
  | Nil -> Nil
  | E e as entry -> (
      t.ready <- e.link;
      e.link <- Nil;
      if e.resume < 0 then take t oracle s (* removed while queued *)
      else
        match evaluate t oracle s entry with
        | Ready ->
            e.resume <- -1;
            t.length <- t.length - 1;
            entry
        | (Wait | Stuck) as status ->
            route t status entry;
            take t oracle s)

let rec drain t oracle s ~apply =
  match take t oracle s with
  | Nil -> []
  | E e ->
      let r = apply s ~src:e.src e.payload in
      r :: drain t oracle s ~apply

(* the buffered entries of a chain *)
let rec gather acc = function
  | Nil -> acc
  | E e as entry -> gather (if e.resume >= 0 then entry :: acc else acc) e.link

(* every buffered entry, oldest first: each is in one chain (removed
   ones leave theirs lazily) *)
let buffered t =
  Array.fold_left gather (gather (gather [] t.ready) t.parked) t.cells
  |> List.sort (fun a b ->
         match (a, b) with E a, E b -> Int.compare a.id b.id | _ -> 0)

let message = function E e -> (e.src, e.payload) | Nil -> assert false
let to_list t = List.map message (buffered t)

let remove_all t ~f =
  let removed = List.filter (fun e -> f (message e)) (buffered t) in
  List.iter (function E e -> e.resume <- -1 | Nil -> ()) removed;
  t.length <- t.length - List.length removed;
  List.map message removed

let high_watermark t = t.high
let total_buffered t = t.total
let oracle_calls t = t.oracle

let clear t =
  t.length <- 0;
  t.ready <- Nil;
  t.parked <- Nil;
  t.cells <- [||]
