(* Social timeline: why causal consistency matters, and what OptP does
   about it.

   The classic anomaly (the very scenario causal memory was invented
   for): Alice first restricts her ACL so her boss cannot read her
   posts, and only then posts a complaint. The two writes are related
   by process order, so ACL ↦co POST. If a replica applies the post
   without the ACL update, the boss's replica shows the complaint while
   still showing the old, permissive ACL.

   This example runs the same message schedule — the post's message
   overtakes the ACL's on the way to the boss's replica — under:

   - a deliberately broken "Eager" protocol, defined right here against
     the public [Protocol.S] interface, which applies every write the
     moment it arrives, and
   - OptP, which delays the post until the ACL update has been applied
     (a necessary delay, per the paper's Definition 5).

   The independent checker convicts the eager run (safety violation and
   an illegal stale read at the boss's replica) and certifies the OptP
   run clean.

   Run with:  dune exec examples/social_timeline.exe *)

module Protocol = Dsm_core.Protocol
module Scripted_run = Dsm_runtime.Scripted_run
module Checker = Dsm_runtime.Checker
module Execution = Dsm_runtime.Execution
module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

(* A protocol that ignores causality: applies on receipt. It is live
   and wait-free but NOT safe w.r.t. ↦co — the checker will prove it. *)
module Eager : Protocol.S = struct
  type message = { var : int; value : int; dot : Dot.t }
  type msg = message

  type t = {
    cfg : Protocol.config;
    me : int;
    store : Dsm_core.Replica_store.t;
    applied : V.t;
    mutable next_seq : int;
  }

  let name = "Eager (broken)"

  let create cfg ~me =
    {
      cfg;
      me;
      store = Dsm_core.Replica_store.create ~m:cfg.Protocol.m;
      applied = V.create cfg.Protocol.n;
      next_seq = 1;
    }

  let me t = t.me

  let grow _t ~n:_ = invalid_arg "Eager.grow: static test protocol"

  let set_generation _t ~gen =
    if gen <> 0 then
      invalid_arg "Eager.set_generation: static test protocol"

  let generation _t = 0
  let adopt _cfg ~me:_ ~gen:_ ~sponsor:_ =
    invalid_arg "Eager.adopt: static test protocol"

  let write t ~var ~value =
    let dot = Dot.make ~replica:t.me ~seq:t.next_seq in
    t.next_seq <- t.next_seq + 1;
    Dsm_core.Replica_store.apply t.store ~var ~value ~dot;
    V.tick t.applied t.me;
    let open Protocol in
    ( dot,
      effects
        ~applied:
          [ { adot = dot; avar = var; avalue = value; afrom_buffer = false } ]
        ~to_send:[ Broadcast { var; value; dot } ]
        () )

  let read t ~var = Dsm_core.Replica_store.read t.store ~var

  let receive t ~src:_ (m : msg) =
    Dsm_core.Replica_store.apply t.store ~var:m.var ~value:m.value ~dot:m.dot;
    (* count per-issuer applies on a high-water basis: Eager has no
       ordering, so seqs can arrive out of order *)
    if Dot.seq m.dot > V.get t.applied (Dot.replica m.dot) then
      V.set t.applied (Dot.replica m.dot) (Dot.seq m.dot);
    let open Protocol in
    effects
      ~applied:
        [
          {
            adot = m.dot;
            avar = m.var;
            avalue = m.value;
            afrom_buffer = false;
          };
        ]
      ()

  let buffered _ = 0
  let buffer_wakeup_scans _ = 0
  let buffer_high_watermark _ = 0
  let total_buffered _ = 0
  let applied_vector t = V.copy t.applied
  let local_clock t = V.copy t.applied
  let msg_writes (m : msg) = [ (m.dot, m.var, m.value) ]

  (* var + value on the wire; the dot is the only causal metadata *)
  let msg_frame (_ : msg) =
    { Dsm_obs.Wire.kind = "write"; scalars = 2; dots = 1; vectors = [] }

  let pp_msg ppf (m : msg) =
    Format.fprintf ppf "m(x%d := %d)" (m.var + 1) m.value

  let snapshot t = Protocol.Snapshot.encode t

  let restore cfg ~me s =
    let t : t = Protocol.Snapshot.decode s in
    Protocol.Snapshot.check_identity ~proto:"Eager" ~cfg ~me ~cfg':t.cfg
      ~me':t.me;
    t
end

(* the scenario: Alice = p1, a friend = p2, the boss = p3 *)
let acl = 0 (* x1: 0 = ⊥/public, 1 = restricted *)
let post = 1 (* x2: 9 = the complaint *)

let ops =
  [
    (0.0, Scripted_run.Write { proc = 0; var = acl; value = 1 });
    (1.0, Scripted_run.Write { proc = 0; var = post; value = 9 });
    (* the boss's replica reads the timeline, then the ACL *)
    (20.0, Scripted_run.Read { proc = 2; var = post });
    (21.0, Scripted_run.Read { proc = 2; var = acl });
  ]

(* the post's message overtakes the ACL's on the way to p3 *)
let delay ~src:_ ~dst ~dot =
  let is_acl = Dot.seq dot = 1 in
  match (dst, is_acl) with
  | 2, true -> 30. (* ACL update reaches the boss late *)
  | 2, false -> 5. (* the post gets there early *)
  | _, _ -> 2.

let describe label (module P : Protocol.S) =
  Printf.printf "---- %s ----\n" P.name;
  ignore label;
  let outcome = Scripted_run.run (module P) ~n:3 ~m:2 ~ops ~delay () in
  Format.printf "boss's replica (p3): %a@."
    (Execution.pp_process outcome.execution 2)
    ();
  let report = Checker.check outcome.execution in
  Format.printf "checker: %a@.@." Checker.pp_report report;
  report

let () =
  print_endline "== The ACL anomaly, eager vs causal ==\n";
  let eager_report = describe "eager" (module Eager) in
  let optp_report = describe "optp" (module Dsm_core.Opt_p) in
  assert (not (Checker.is_clean eager_report));
  assert (Checker.is_clean optp_report);
  assert (optp_report.Checker.unnecessary_delays = 0);
  print_endline
    "Eager applied the post before the ACL at the boss's replica and \
     produced an illegal stale read;\n\
     OptP delayed the post exactly until the ACL arrived — a necessary \
     delay, and the anomaly is gone."
