module Operation = Dsm_memory.Operation
module Dot = Dsm_vclock.Dot

(* unboxed, so an apply allocates nothing; an unwritten location (⊥)
   has a writer with sequence number 0, which no write has *)
type t = { values : int array; writers : Dot.t array; mutable applies : int }

let unwritten = { Dot.replica = 0; gen = 0; seq = 0 }

let create ~m =
  if m <= 0 then invalid_arg "Replica_store.create: m must be positive";
  { values = Array.make m 0; writers = Array.make m unwritten; applies = 0 }

let m t = Array.length t.values

let check t var name =
  if var < 0 || var >= Array.length t.values then
    invalid_arg (Printf.sprintf "Replica_store.%s: variable out of range" name)

let apply t ~var ~value ~dot =
  check t var "apply";
  t.values.(var) <- value;
  t.writers.(var) <- dot;
  t.applies <- t.applies + 1

let slot t var =
  let w = t.writers.(var) in
  if Dot.seq w = 0 then (Operation.Bot, None)
  else (Operation.Val t.values.(var), Some w)

let read t ~var = check t var "read"; slot t var
let last_writer t ~var = check t var "last_writer"; snd (slot t var)

let apply_count t = t.applies
let snapshot t = Array.init (m t) (slot t)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i (value, writer) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "x%d = %a%a" (i + 1) Operation.pp_value value
        (fun ppf -> function
          | None -> ()
          | Some d -> Format.fprintf ppf " (by %a)" Dot.pp d)
        writer)
    (snapshot t);
  Format.fprintf ppf "@]"
