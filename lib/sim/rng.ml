(* The SplitMix64 state lives unboxed in 8 bytes, read and written by
   the unchecked 64-bit primitives: an [int64] kept in a mutable field
   is boxed afresh on every draw. The draws below are [@inline], so a
   composite one (a Box–Muller normal, a lognormal latency) keeps its
   intermediate [int64]s and [float]s unboxed and allocates only the
   float it returns. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_int64 state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create seed = of_int64 (Int64.of_int seed)

let[@inline] next_int64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t =
  let s = next_int64 t in
  (* mix with a distinct finalizer so the child stream is decorrelated
     from the parent's subsequent outputs *)
  of_int64 (mix64 (Int64.logxor s 0xC2B2AE3D27D4EB4FL))

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int (bound - 1)))
  else begin
    (* rejection sampling over 62 uniform bits to avoid modulo bias *)
    let b = Int64.of_int bound in
    let range = Int64.shift_left 1L 62 in
    let threshold = Int64.sub range (Int64.rem range b) in
    let rec go () =
      let r = Int64.shift_right_logical (next_int64 t) 2 in
      if r < threshold then Int64.to_int (Int64.rem r b) else go ()
    in
    go ()
  end

let[@inline] float t =
  (* 53 uniform bits into [0,1) *)
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r *. 0x1p-53

let uniform t lo hi =
  if hi < lo then invalid_arg "Rng.uniform: hi < lo";
  lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p =
  let p = Float.max 0. (Float.min 1. p) in
  float t < p

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. float t in
  -.mean *. log u

let[@inline] gaussian t =
  (* Box–Muller, discarding the second variate to keep the generator
     stateless beyond its seed word *)
  let u1 = 1. -. float t and u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))

let pareto t ~scale ~shape =
  if scale <= 0. then invalid_arg "Rng.pareto: scale must be positive";
  if shape <= 0. then invalid_arg "Rng.pareto: shape must be positive";
  let u = 1. -. float t in
  scale /. (u ** (1. /. shape))

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
