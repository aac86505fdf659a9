(* Representation: a record holding the component array, so the vector
   can grow in place (membership joins) while every alias observes the
   new size. Components beyond a vector's physical size are implicitly
   zero: a clock taken in an n-process epoch compares correctly against
   one from a later, wider epoch, because a process that had not joined
   yet had produced no events.

   Generations: slot reuse (PR 9) extends each entry from a plain
   counter to a [(generation, counter)] pair so a write by the second
   occupant of a slot can never be confused with one by the first. The
   generation lane is a side array materialized only when some entry's
   generation is nonzero — [gens = None] means "all generations are 0"
   and every operation below takes the exact pre-generation dense path,
   so static-membership workloads pay nothing. Entries compare
   lexicographically: [(g, c) < (g', c')] iff [g < g'] or
   [g = g' && c < c'] (generation dominance). A lane shorter than
   [data] reads as zero beyond its physical size, mirroring the
   implicit-zero convention for counters. *)
type t = { mutable data : int array; mutable gens : int array option }

let create n =
  if n <= 0 then invalid_arg "Vector_clock.create: size must be positive";
  { data = Array.make n 0; gens = None }

let of_array a =
  if Array.length a = 0 then invalid_arg "Vector_clock.of_array: empty";
  Array.iter
    (fun x ->
      if x < 0 then invalid_arg "Vector_clock.of_array: negative component")
    a;
  { data = Array.copy a; gens = None }

let of_list l = of_array (Array.of_list l)

let copy v = { data = Array.copy v.data; gens = Option.map Array.copy v.gens }

let size v = Array.length v.data

let grow v n =
  let old = Array.length v.data in
  if n < old then invalid_arg "Vector_clock.grow: cannot shrink";
  if n > old then begin
    let data = Array.make n 0 in
    Array.blit v.data 0 data 0 old;
    v.data <- data
    (* the gen lane stays at its old length: entries beyond it read 0 *)
  end

let get v i =
  if i < 0 || i >= Array.length v.data then
    invalid_arg "Vector_clock.get: index out of bounds";
  v.data.(i)

let get0 v i =
  if i < 0 then invalid_arg "Vector_clock.get0: negative index";
  if i >= Array.length v.data then 0 else v.data.(i)

let unsafe_get v i = Array.unsafe_get v.data i

let unsafe_tick v i =
  Array.unsafe_set v.data i (Array.unsafe_get v.data i + 1)

(* The causal-wait kernel: one out-of-line call per evaluation, the
   per-component loop over the raw arrays. *)
let first_exceeding ~wanted ~applied ~skip ~from ~upto =
  let w = wanted.data and a = applied.data in
  let k = ref from in
  while
    !k < upto
    && (!k = skip || Array.unsafe_get w !k <= Array.unsafe_get a !k)
  do
    incr k
  done;
  !k

let sync_into v base =
  let d = v.data in
  if Array.length base < Array.length d then
    invalid_arg "Vector_clock.sync_into: base shorter than the vector";
  let changed = ref 0 in
  for i = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d i in
    if x <> Array.unsafe_get base i then begin
      incr changed;
      Array.unsafe_set base i x
    end
  done;
  !changed

let to_array v = Array.copy v.data
let to_list v = Array.to_list v.data
let sum v = Array.fold_left ( + ) 0 v.data

(* Generation accessors. [gen] tolerates any non-negative index (like
   [get0]) because staleness checks routinely probe entries of vectors
   captured in narrower epochs. *)

let gen v i =
  if i < 0 then invalid_arg "Vector_clock.gen: negative index";
  match v.gens with
  | None -> 0
  | Some g -> if i < Array.length g then g.(i) else 0

let set_gen v i k =
  if i < 0 || i >= Array.length v.data then
    invalid_arg "Vector_clock.set_gen: index out of bounds";
  if k < 0 then invalid_arg "Vector_clock.set_gen: negative generation";
  match v.gens with
  | None -> if k <> 0 then begin
      let g = Array.make (Array.length v.data) 0 in
      g.(i) <- k;
      v.gens <- Some g
    end
  | Some g ->
      if i < Array.length g then g.(i) <- k
      else if k <> 0 then begin
        let g' = Array.make (Array.length v.data) 0 in
        Array.blit g 0 g' 0 (Array.length g);
        g'.(i) <- k;
        v.gens <- Some g'
      end

let has_generations v =
  match v.gens with
  | None -> false
  | Some g -> Array.exists (fun x -> x <> 0) g

let generations v =
  let n = Array.length v.data in
  match v.gens with
  | None -> Array.make n 0
  | Some g ->
      let out = Array.make n 0 in
      Array.blit g 0 out 0 (min n (Array.length g));
      out

let set v i k =
  if i < 0 || i >= Array.length v.data then
    invalid_arg "Vector_clock.set: index out of bounds";
  if k < 0 then invalid_arg "Vector_clock.set: negative value";
  v.data.(i) <- k

let tick v i =
  if i < 0 || i >= Array.length v.data then
    invalid_arg "Vector_clock.tick: index out of bounds";
  v.data.(i) <- v.data.(i) + 1

(* Binary operations tolerate mixed sizes under the implicit-zero
   convention. The common (static-membership, generation-free) case of
   equal sizes stays a single dense loop; vectors carrying a gen lane
   take the generic lexicographic path. *)

let merge_into dst src =
  if Array.length src.data > Array.length dst.data then
    grow dst (Array.length src.data);
  match (dst.gens, src.gens) with
  | None, None ->
      let d = dst.data and s = src.data in
      for i = 0 to Array.length s - 1 do
        if s.(i) > d.(i) then d.(i) <- s.(i)
      done
  | _ ->
      let d = dst.data and s = src.data in
      for i = 0 to Array.length s - 1 do
        let gs = gen src i and gd = gen dst i in
        if gs > gd || (gs = gd && s.(i) > d.(i)) then begin
          d.(i) <- s.(i);
          if gs <> gd then set_gen dst i gs
        end
      done

let copy_into ~src dst =
  let s = src.data in
  let ls = Array.length s and ld = Array.length dst.data in
  if ld < ls then dst.data <- Array.copy s
  else begin
    Array.blit s 0 dst.data 0 ls;
    (* wider scratch: the extra components must read as zero so the
       result is [equal] to [src] under the implicit-zero convention *)
    Array.fill dst.data ls (ld - ls) 0
  end;
  match src.gens with
  | None -> (
      match dst.gens with
      | None -> ()
      | Some g -> Array.fill g 0 (Array.length g) 0)
  | Some g -> (
      let lg = Array.length g in
      match dst.gens with
      | Some d when Array.length d >= lg ->
          Array.blit g 0 d 0 lg;
          Array.fill d lg (Array.length d - lg) 0
      | _ -> dst.gens <- Some (Array.copy g))

let merge a b =
  let r = copy a in
  merge_into r b;
  r

let equal a b =
  match (a.gens, b.gens) with
  | None, None ->
      let a = a.data and b = b.data in
      let la = Array.length a and lb = Array.length b in
      let n = if la < lb then la else lb in
      let rec same i = i = n || (a.(i) = b.(i) && same (i + 1)) in
      let rec zero v i l = i = l || (v.(i) = 0 && zero v (i + 1) l) in
      same 0 && zero a n la && zero b n lb
  | _ ->
      let la = Array.length a.data and lb = Array.length b.data in
      let n = if la > lb then la else lb in
      let rec go i =
        i = n
        || (get0 a i = get0 b i && gen a i = gen b i && go (i + 1))
      in
      go 0

let leq a b =
  match (a.gens, b.gens) with
  | None, None ->
      let a = a.data and b = b.data in
      let la = Array.length a and lb = Array.length b in
      let n = if la < lb then la else lb in
      let rec go i = i = n || (a.(i) <= b.(i) && go (i + 1)) in
      (* components of [a] beyond [b]'s size must be zero (≤ implicit 0) *)
      let rec zero i = i = la || (a.(i) = 0 && zero (i + 1)) in
      go 0 && zero n
  | _ ->
      let la = Array.length a.data and lb = Array.length b.data in
      let n = if la > lb then la else lb in
      let rec go i =
        i = n
        ||
        let ga = gen a i and gb = gen b i in
        (ga < gb || (ga = gb && get0 a i <= get0 b i)) && go (i + 1)
      in
      go 0

let lt a b = leq a b && not (equal a b)
let concurrent a b = (not (lt a b)) && not (lt b a) && not (equal a b)

type order = Equal | Before | After | Concurrent

(* Single pass: track whether some component of [a] is below [b] and
   vice versa. Missing components read as zero; entries with a gen lane
   compare lexicographically. *)
let compare_partial a b =
  let plain = a.gens = None && b.gens = None in
  let da = a.data and db = b.data in
  let la = Array.length da and lb = Array.length db in
  let n = if la > lb then la else lb in
  let a_below = ref false and b_below = ref false in
  for i = 0 to n - 1 do
    let x = if i < la then da.(i) else 0
    and y = if i < lb then db.(i) else 0 in
    let c =
      if plain then Int.compare x y
      else
        let g = Int.compare (gen a i) (gen b i) in
        if g <> 0 then g else Int.compare x y
    in
    if c < 0 then a_below := true else if c > 0 then b_below := true
  done;
  match (!a_below, !b_below) with
  | false, false -> Equal
  | true, false -> Before
  | false, true -> After
  | true, true -> Concurrent

let compare_total a b =
  let plain = a.gens = None && b.gens = None in
  let da = a.data and db = b.data in
  let la = Array.length da and lb = Array.length db in
  let n = if la > lb then la else lb in
  let rec go i =
    if i = n then 0
    else
      let x = if i < la then da.(i) else 0
      and y = if i < lb then db.(i) else 0 in
      let c =
        if plain then Int.compare x y
        else
          let g = Int.compare (gen a i) (gen b i) in
          if g <> 0 then g else Int.compare x y
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let pp ppf v =
  if not (has_generations v) then
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         Format.pp_print_int)
      (Array.to_list v.data)
  else begin
    Format.pp_print_string ppf "[";
    Array.iteri
      (fun i c ->
        if i > 0 then Format.pp_print_string ppf "; ";
        let g = gen v i in
        if g = 0 then Format.pp_print_int ppf c
        else Format.fprintf ppf "%d@g%d" c g)
      v.data;
    Format.pp_print_string ppf "]"
  end

let to_string v = Format.asprintf "%a" pp v
