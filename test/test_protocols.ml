(* Direct unit tests of the protocol state machines: Replica_store,
   Protocol helpers, OptP, ANBKH, WS-recv, OptP-WS, WS-token.

   These drive the per-process machines by hand (no simulator), checking
   the exact wire contents, deliverability decisions and buffering
   behaviour prescribed by the paper's Figures 4-5 and section 3.6. *)

module Protocol = Dsm_core.Protocol
module Replica_store = Dsm_core.Replica_store
module Opt_p = Dsm_core.Opt_p
module Anbkh = Dsm_core.Anbkh
module Ws_receiver = Dsm_core.Ws_receiver
module Opt_p_ws = Dsm_core.Opt_p_ws
module Ws_token = Dsm_core.Ws_token
module Operation = Dsm_memory.Operation
module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cfg3 = Protocol.config ~n:3 ~m:2

let dot r s = Dot.make ~replica:r ~seq:s

let broadcast_of (eff : _ Protocol.effects) =
  match eff.to_send with
  | [ Protocol.Broadcast m ] -> m
  | _ -> Alcotest.fail "expected exactly one broadcast"

let applied_dots (eff : _ Protocol.effects) =
  List.map (fun (a : Protocol.apply_record) -> Dot.to_string a.adot)
    eff.applied

(* ------------------------------------------------------------------ *)
(* Replica_store                                                       *)
(* ------------------------------------------------------------------ *)

let test_store_initial_bot () =
  let s = Replica_store.create ~m:3 in
  check_int "m" 3 (Replica_store.m s);
  for v = 0 to 2 do
    check_bool "bot and no writer" true
      (Replica_store.read s ~var:v = (Operation.Bot, None))
  done;
  check_int "no applies yet" 0 (Replica_store.apply_count s)

let test_store_apply_read () =
  let s = Replica_store.create ~m:2 in
  Replica_store.apply s ~var:0 ~value:42 ~dot:(dot 1 1);
  check_bool "value and writer" true
    (Replica_store.read s ~var:0 = (Operation.Val 42, Some (dot 1 1)));
  check_bool "other var untouched" true
    (Replica_store.read s ~var:1 = (Operation.Bot, None));
  Replica_store.apply s ~var:0 ~value:7 ~dot:(dot 2 1);
  check_bool "overwritten" true
    (Replica_store.last_writer s ~var:0 = Some (dot 2 1));
  check_int "two applies" 2 (Replica_store.apply_count s)

let test_store_bounds () =
  let s = Replica_store.create ~m:1 in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Replica_store.read: variable out of range")
    (fun () -> ignore (Replica_store.read s ~var:1));
  Alcotest.check_raises "create invalid"
    (Invalid_argument "Replica_store.create: m must be positive")
    (fun () -> ignore (Replica_store.create ~m:0))

(* ------------------------------------------------------------------ *)
(* Protocol helpers                                                    *)
(* ------------------------------------------------------------------ *)

let test_effects_merge () =
  let open Protocol in
  let a =
    effects
      ~applied:[ { adot = dot 0 1; avar = 0; avalue = 1; afrom_buffer = false } ]
      ()
  in
  let b = effects ~skipped:[ dot 1 1 ] () in
  let m = merge_effects a b in
  check_int "applied" 1 (List.length m.applied);
  check_int "skipped" 1 (List.length m.skipped);
  check_int "no sends" 0 (List.length m.to_send)

let test_config_validation () =
  Alcotest.check_raises "n"
    (Invalid_argument "Protocol.config: n must be positive") (fun () ->
      ignore (Protocol.config ~n:0 ~m:1));
  Alcotest.check_raises "m"
    (Invalid_argument "Protocol.config: m must be positive") (fun () ->
      ignore (Protocol.config ~n:1 ~m:0))

(* ------------------------------------------------------------------ *)
(* OptP - the write procedure (Figure 4)                               *)
(* ------------------------------------------------------------------ *)

let test_optp_write_local_effects () =
  let p = Opt_p.create cfg3 ~me:0 in
  let d, eff = Opt_p.write p ~var:0 ~value:7 in
  check_bool "dot" true (Dot.equal d (dot 0 1));
  Alcotest.(check (list string)) "applied locally" [ "w1#1" ]
    (applied_dots eff);
  let m = broadcast_of eff in
  check_int "message var" 0 m.Opt_p.var;
  check_int "message value" 7 m.Opt_p.value;
  Alcotest.(check (list int)) "Write_co on the wire" [ 1; 0; 0 ]
    (V.to_list m.Opt_p.wco);
  Alcotest.(check (list int)) "Apply" [ 1; 0; 0 ]
    (V.to_list (Opt_p.applied_vector p));
  Alcotest.(check (list int)) "LastWriteOn[x1]" [ 1; 0; 0 ]
    (V.to_list (Opt_p.last_write_on p ~var:0));
  check_bool "own value readable" true
    (Opt_p.read p ~var:0 = (Operation.Val 7, Some d))

let test_optp_read_merges_only_on_read () =
  (* the OptP signature move: applying does NOT grow Write_co; reading
     does *)
  let p = Opt_p.create cfg3 ~me:1 in
  let sender = Opt_p.create cfg3 ~me:0 in
  let _, eff = Opt_p.write sender ~var:0 ~value:1 in
  let m = broadcast_of eff in
  ignore (Opt_p.receive p ~src:0 m);
  Alcotest.(check (list int)) "clock unchanged by apply" [ 0; 0; 0 ]
    (V.to_list (Opt_p.local_clock p));
  ignore (Opt_p.read p ~var:0);
  Alcotest.(check (list int)) "clock grown by read" [ 1; 0; 0 ]
    (V.to_list (Opt_p.local_clock p));
  let _, eff2 = Opt_p.write p ~var:1 ~value:2 in
  Alcotest.(check (list int)) "wco carries the dependency" [ 1; 1; 0 ]
    (V.to_list (broadcast_of eff2).Opt_p.wco)

let test_optp_no_read_no_dependency () =
  (* apply without read: the next write stays concurrent - the heart of
     Figure 6 *)
  let p = Opt_p.create cfg3 ~me:1 in
  let sender = Opt_p.create cfg3 ~me:0 in
  let _, e1 = Opt_p.write sender ~var:0 ~value:1 in
  ignore (Opt_p.receive p ~src:0 (broadcast_of e1));
  let _, eff = Opt_p.write p ~var:1 ~value:2 in
  Alcotest.(check (list int)) "no dependency recorded" [ 0; 1; 0 ]
    (V.to_list (broadcast_of eff).Opt_p.wco)

let test_optp_deliverability_gap () =
  let receiver = Opt_p.create cfg3 ~me:2 in
  let sender = Opt_p.create cfg3 ~me:0 in
  let _, e1 = Opt_p.write sender ~var:0 ~value:1 in
  let _, e2 = Opt_p.write sender ~var:0 ~value:2 in
  let m1 = broadcast_of e1 and m2 = broadcast_of e2 in
  check_bool "m2 not deliverable first" false
    (Opt_p.deliverable receiver ~src:0 m2);
  let eff = Opt_p.receive receiver ~src:0 m2 in
  check_int "buffered" 1 (Opt_p.buffered receiver);
  check_int "nothing applied" 0 (List.length eff.Protocol.applied);
  let eff = Opt_p.receive receiver ~src:0 m1 in
  Alcotest.(check (list string)) "chain applied" [ "w1#1"; "w1#2" ]
    (applied_dots eff);
  (match eff.Protocol.applied with
  | [ first; second ] ->
      check_bool "first immediate" false first.Protocol.afrom_buffer;
      check_bool "second delayed" true second.Protocol.afrom_buffer
  | _ -> Alcotest.fail "expected two applies");
  check_int "buffer drained" 0 (Opt_p.buffered receiver);
  check_int "high watermark" 1 (Opt_p.buffer_high_watermark receiver);
  check_int "total buffered" 1 (Opt_p.total_buffered receiver)

let test_optp_cross_process_dependency () =
  (* b (from p2, depending on a) must wait for a at p3 *)
  let p1 = Opt_p.create cfg3 ~me:0 in
  let p2 = Opt_p.create cfg3 ~me:1 in
  let p3 = Opt_p.create cfg3 ~me:2 in
  let _, ea = Opt_p.write p1 ~var:0 ~value:0 in
  let ma = broadcast_of ea in
  ignore (Opt_p.receive p2 ~src:0 ma);
  ignore (Opt_p.read p2 ~var:0);
  let _, eb = Opt_p.write p2 ~var:1 ~value:1 in
  let mb = broadcast_of eb in
  let eff = Opt_p.receive p3 ~src:1 mb in
  check_int "b buffered at p3" 1 (Opt_p.buffered p3);
  check_int "no apply yet" 0 (List.length eff.Protocol.applied);
  let eff = Opt_p.receive p3 ~src:0 ma in
  Alcotest.(check (list string)) "a then b" [ "w1#1"; "w2#1" ]
    (applied_dots eff)

let test_optp_concurrent_writes_apply_any_order () =
  let p3 = Opt_p.create cfg3 ~me:2 in
  let p1 = Opt_p.create cfg3 ~me:0 in
  let p2 = Opt_p.create cfg3 ~me:1 in
  let _, e1 = Opt_p.write p1 ~var:0 ~value:1 in
  let _, e2 = Opt_p.write p2 ~var:0 ~value:2 in
  let eff2 = Opt_p.receive p3 ~src:1 (broadcast_of e2) in
  let eff1 = Opt_p.receive p3 ~src:0 (broadcast_of e1) in
  check_int "both immediate" 2
    (List.length eff1.Protocol.applied + List.length eff2.Protocol.applied);
  check_int "never buffered" 0 (Opt_p.total_buffered p3)

let test_optp_rejects_bad_me () =
  Alcotest.check_raises "me out of range"
    (Invalid_argument "Opt_p.create: process id out of range") (fun () ->
      ignore (Opt_p.create cfg3 ~me:3))

(* ------------------------------------------------------------------ *)
(* ANBKH                                                               *)
(* ------------------------------------------------------------------ *)

let test_anbkh_merges_on_apply () =
  let p = Anbkh.create cfg3 ~me:1 in
  let sender = Anbkh.create cfg3 ~me:0 in
  let _, e1 = Anbkh.write sender ~var:0 ~value:1 in
  ignore (Anbkh.receive p ~src:0 (broadcast_of e1));
  Alcotest.(check (list int)) "clock grew on apply" [ 1; 0; 0 ]
    (V.to_list (Anbkh.local_clock p));
  let _, e2 = Anbkh.write p ~var:1 ~value:2 in
  Alcotest.(check (list int)) "vt carries the false dependency"
    [ 1; 1; 0 ]
    (V.to_list (broadcast_of e2).Anbkh.vt)

let test_anbkh_false_causality_blocks () =
  (* p2 applies both writes of p1 (reading nothing), then writes; its
     message is blocked at p3 until BOTH of p1's writes arrive *)
  let p1 = Anbkh.create cfg3 ~me:0 in
  let p2 = Anbkh.create cfg3 ~me:1 in
  let p3 = Anbkh.create cfg3 ~me:2 in
  let _, ea = Anbkh.write p1 ~var:0 ~value:0 in
  let _, ec = Anbkh.write p1 ~var:0 ~value:2 in
  let ma = broadcast_of ea and mc = broadcast_of ec in
  ignore (Anbkh.receive p2 ~src:0 ma);
  ignore (Anbkh.receive p2 ~src:0 mc);
  let _, eb = Anbkh.write p2 ~var:1 ~value:1 in
  let mb = broadcast_of eb in
  ignore (Anbkh.receive p3 ~src:1 mb);
  ignore (Anbkh.receive p3 ~src:0 ma);
  check_int "b still blocked after a" 1 (Anbkh.buffered p3);
  let eff = Anbkh.receive p3 ~src:0 mc in
  Alcotest.(check (list string)) "c unblocks b" [ "w1#2"; "w2#1" ]
    (applied_dots eff)

let test_optp_would_not_block_same_pattern () =
  let p1 = Opt_p.create cfg3 ~me:0 in
  let p2 = Opt_p.create cfg3 ~me:1 in
  let p3 = Opt_p.create cfg3 ~me:2 in
  let _, ea = Opt_p.write p1 ~var:0 ~value:0 in
  let _, ec = Opt_p.write p1 ~var:0 ~value:2 in
  let ma = broadcast_of ea and mc = broadcast_of ec in
  ignore (Opt_p.receive p2 ~src:0 ma);
  (* p2 reads a (so b will depend on it), then applies c WITHOUT
     reading it - exactly the H1 situation *)
  ignore (Opt_p.read p2 ~var:0);
  ignore (Opt_p.receive p2 ~src:0 mc);
  let _, eb = Opt_p.write p2 ~var:1 ~value:1 in
  let mb = broadcast_of eb in
  ignore (Opt_p.receive p3 ~src:1 mb);
  check_int "b waits for a" 1 (Opt_p.buffered p3);
  let eff = Opt_p.receive p3 ~src:0 ma in
  Alcotest.(check (list string)) "b right after a, no c needed"
    [ "w1#1"; "w2#1" ] (applied_dots eff)

(* ------------------------------------------------------------------ *)
(* Ws_receiver                                                         *)
(* ------------------------------------------------------------------ *)

let ws_two_writes () =
  let p1 = Ws_receiver.create cfg3 ~me:0 in
  let _, e1 = Ws_receiver.write p1 ~var:0 ~value:1 in
  let _, e2 = Ws_receiver.write p1 ~var:0 ~value:2 in
  (broadcast_of e1, broadcast_of e2)

let test_ws_metadata () =
  let m1, m2 = ws_two_writes () in
  check_bool "first has no prev" true (m1.Ws_receiver.prev = None);
  check_bool "second names first" true
    (m2.Ws_receiver.prev = Some (dot 0 1));
  check_bool "no interposition -> can_skip" true m2.Ws_receiver.can_skip

let test_ws_skip_on_incoming () =
  (* m2 arrives without m1: skip m1 and apply m2 immediately *)
  let p2 = Ws_receiver.create cfg3 ~me:1 in
  let m1, m2 = ws_two_writes () in
  let eff = Ws_receiver.receive p2 ~src:0 m2 in
  Alcotest.(check (list string)) "m2 applied" [ "w1#2" ] (applied_dots eff);
  Alcotest.(check (list string)) "m1 skipped"
    [ Dot.to_string (dot 0 1) ]
    (List.map Dot.to_string eff.Protocol.skipped);
  check_bool "not flagged delayed" false
    (List.exists (fun (a : Protocol.apply_record) -> a.afrom_buffer)
       eff.Protocol.applied);
  check_int "one skip" 1 (Ws_receiver.skipped_total p2);
  let eff = Ws_receiver.receive p2 ~src:0 m1 in
  check_int "late m1 discarded" 0 (List.length eff.Protocol.applied);
  check_bool "store shows the newer value" true
    (Ws_receiver.read p2 ~var:0 = (Operation.Val 2, Some (dot 0 2)))

let test_ws_no_skip_with_interposition () =
  (* p1: w(x)=1, w(y)=5, w(x)=2 - the second x write cannot overwrite
     the first because the y write is causally interposed *)
  let p1 = Ws_receiver.create cfg3 ~me:0 in
  let _, _e1 = Ws_receiver.write p1 ~var:0 ~value:1 in
  let _, _ey = Ws_receiver.write p1 ~var:1 ~value:5 in
  let _, e2 = Ws_receiver.write p1 ~var:0 ~value:2 in
  let m2 = broadcast_of e2 in
  check_bool "prev recorded" true (m2.Ws_receiver.prev = Some (dot 0 1));
  check_bool "interposition forbids skipping" false m2.Ws_receiver.can_skip;
  let p2 = Ws_receiver.create cfg3 ~me:1 in
  let eff = Ws_receiver.receive p2 ~src:0 m2 in
  check_int "buffered" 1 (Ws_receiver.buffered p2);
  check_int "nothing applied" 0 (List.length eff.Protocol.applied)

let test_ws_in_order_no_skip () =
  let p2 = Ws_receiver.create cfg3 ~me:1 in
  let m1, m2 = ws_two_writes () in
  ignore (Ws_receiver.receive p2 ~src:0 m1);
  ignore (Ws_receiver.receive p2 ~src:0 m2);
  check_int "no skips" 0 (Ws_receiver.skipped_total p2);
  check_bool "final value" true
    (Ws_receiver.read p2 ~var:0 = (Operation.Val 2, Some (dot 0 2)))

(* ------------------------------------------------------------------ *)
(* Opt_p_ws                                                            *)
(* ------------------------------------------------------------------ *)

let test_optp_ws_skip () =
  let p1 = Opt_p_ws.create cfg3 ~me:0 in
  let _, e1 = Opt_p_ws.write p1 ~var:0 ~value:1 in
  let _, e2 = Opt_p_ws.write p1 ~var:0 ~value:2 in
  let _m1 = broadcast_of e1 and m2 = broadcast_of e2 in
  check_bool "can skip" true m2.Opt_p_ws.can_skip;
  let p2 = Opt_p_ws.create cfg3 ~me:1 in
  let eff = Opt_p_ws.receive p2 ~src:0 m2 in
  Alcotest.(check (list string)) "applied overwriter" [ "w1#2" ]
    (applied_dots eff);
  check_int "skip counted" 1 (Opt_p_ws.skipped_total p2)

let test_optp_ws_keeps_read_semantics () =
  let p2 = Opt_p_ws.create cfg3 ~me:1 in
  let p1 = Opt_p_ws.create cfg3 ~me:0 in
  let _, e1 = Opt_p_ws.write p1 ~var:0 ~value:1 in
  ignore (Opt_p_ws.receive p2 ~src:0 (broadcast_of e1));
  Alcotest.(check (list int)) "no growth on apply" [ 0; 0; 0 ]
    (V.to_list (Opt_p_ws.local_clock p2));
  ignore (Opt_p_ws.read p2 ~var:0);
  Alcotest.(check (list int)) "growth on read" [ 1; 0; 0 ]
    (V.to_list (Opt_p_ws.local_clock p2))

(* ------------------------------------------------------------------ *)
(* Ws_token                                                            *)
(* ------------------------------------------------------------------ *)

let unicasts_of (eff : _ Protocol.effects) =
  List.filter_map
    (function Protocol.Unicast { dst; msg } -> Some (dst, msg) | _ -> None)
    eff.to_send

let broadcasts_of (eff : _ Protocol.effects) =
  List.filter_map
    (function Protocol.Broadcast m -> Some m | _ -> None)
    eff.to_send

let test_token_initial_state () =
  let p0 = Ws_token.create cfg3 ~me:0 in
  let p1 = Ws_token.create cfg3 ~me:1 in
  check_bool "p0 holds the parked token" true
    (Ws_token.has_token p0 && Ws_token.is_parked p0);
  check_bool "p1 does not" false (Ws_token.has_token p1)

let test_token_holder_flushes_on_write () =
  let p0 = Ws_token.create cfg3 ~me:0 in
  let _, eff = Ws_token.write p0 ~var:0 ~value:7 in
  (match broadcasts_of eff with
  | [ Ws_token.Batch { round = 0; items = [ item ] } ] ->
      check_int "item var" 0 item.Ws_token.var;
      check_int "item value" 7 item.Ws_token.value
  | _ -> Alcotest.fail "expected one batch broadcast");
  (match unicasts_of eff with
  | [ (1, Ws_token.Token { next_round = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "expected the token to go to p1");
  check_bool "token released" false (Ws_token.has_token p0)

let test_token_non_holder_buffers_and_nudges () =
  let p1 = Ws_token.create cfg3 ~me:1 in
  let _, eff = Ws_token.write p1 ~var:0 ~value:3 in
  check_int "pending" 1 (Ws_token.pending_count p1);
  (match unicasts_of eff with
  | [ (0, Ws_token.Nudge) ] -> ()
  | _ -> Alcotest.fail "expected a nudge to p0");
  check_int "no batch yet" 0 (List.length (broadcasts_of eff))

let test_token_sender_side_overwrite () =
  let p1 = Ws_token.create cfg3 ~me:1 in
  let _, _ = Ws_token.write p1 ~var:0 ~value:1 in
  let _, eff2 = Ws_token.write p1 ~var:0 ~value:2 in
  check_int "still one pending item" 1 (Ws_token.pending_count p1);
  check_int "overwrite counted" 1 (Ws_token.skipped_total p1);
  check_int "no skip effect at the sender" 0
    (List.length eff2.Protocol.skipped);
  let eff =
    Ws_token.receive p1 ~src:0
      (Ws_token.Token { next_round = 0; idle_hops = 0 })
  in
  match broadcasts_of eff with
  | [ Ws_token.Batch { items = [ item ]; _ } ] ->
      check_int "last value" 2 item.Ws_token.value;
      Alcotest.(check (list string)) "covers the first write"
        [ Dot.to_string (dot 1 1) ]
        (List.map Dot.to_string item.Ws_token.covered)
  | _ -> Alcotest.fail "expected one batch with one item"

let test_token_receiver_applies_in_round_order () =
  let p2 = Ws_token.create cfg3 ~me:2 in
  let batch0 =
    Ws_token.Batch
      {
        round = 0;
        items =
          [ { Ws_token.var = 0; value = 1; dot = dot 0 1; covered = [] } ];
      }
  in
  let batch1 =
    Ws_token.Batch
      {
        round = 1;
        items =
          [ { Ws_token.var = 0; value = 2; dot = dot 1 1; covered = [] } ];
      }
  in
  let eff = Ws_token.receive p2 ~src:1 batch1 in
  check_int "buffered" 1 (Ws_token.buffered p2);
  check_int "no applies" 0 (List.length eff.Protocol.applied);
  let eff = Ws_token.receive p2 ~src:0 batch0 in
  Alcotest.(check (list string)) "both applied in order"
    [ "w1#1"; "w2#1" ] (applied_dots eff);
  check_bool "second one counted as delayed" true
    (match eff.Protocol.applied with
    | [ a; b ] -> (not a.Protocol.afrom_buffer) && b.Protocol.afrom_buffer
    | _ -> false)

let test_token_covered_reported_as_skips () =
  let p2 = Ws_token.create cfg3 ~me:2 in
  let batch =
    Ws_token.Batch
      {
        round = 0;
        items =
          [
            {
              Ws_token.var = 0;
              value = 2;
              dot = dot 0 2;
              covered = [ dot 0 1 ];
            };
          ];
      }
  in
  let eff = Ws_token.receive p2 ~src:0 batch in
  Alcotest.(check (list string)) "covered write skipped here"
    [ Dot.to_string (dot 0 1) ]
    (List.map Dot.to_string eff.Protocol.skipped);
  Alcotest.(check (list string)) "overwriter applied" [ "w1#2" ]
    (applied_dots eff)

let test_token_idle_parking () =
  let p1 = Ws_token.create cfg3 ~me:1 in
  let eff =
    Ws_token.receive p1 ~src:0
      (Ws_token.Token { next_round = 0; idle_hops = 2 })
  in
  check_bool "parked" true (Ws_token.is_parked p1);
  match broadcasts_of eff with
  | [ Ws_token.Parked { holder = 1 } ] -> ()
  | _ -> Alcotest.fail "expected a parked announcement"

let test_token_parked_handler_resumes_on_nudge () =
  let p1 = Ws_token.create cfg3 ~me:1 in
  ignore
    (Ws_token.receive p1 ~src:0
       (Ws_token.Token { next_round = 0; idle_hops = 2 }));
  let eff = Ws_token.receive p1 ~src:2 Ws_token.Nudge in
  check_bool "no longer holder" false (Ws_token.has_token p1);
  match unicasts_of eff with
  | [ (2, Ws_token.Token { next_round = 0; idle_hops = 0 }) ] -> ()
  | _ -> Alcotest.fail "expected the token to move on"

let test_token_parked_notice_triggers_nudge () =
  let p2 = Ws_token.create cfg3 ~me:2 in
  let _, _ = Ws_token.write p2 ~var:1 ~value:4 in
  let eff = Ws_token.receive p2 ~src:1 (Ws_token.Parked { holder = 1 }) in
  match unicasts_of eff with
  | [ (1, Ws_token.Nudge) ] -> ()
  | _ -> Alcotest.fail "expected a nudge to the new holder"


(* ------------------------------------------------------------------ *)
(* Opt_p_direct                                                        *)
(* ------------------------------------------------------------------ *)

module Opt_p_direct = Dsm_core.Opt_p_direct

let test_direct_deps_first_write () =
  let p = Opt_p_direct.create cfg3 ~me:0 in
  let _, eff = Opt_p_direct.write p ~var:0 ~value:1 in
  let m = broadcast_of eff in
  Alcotest.(check (list string)) "first write has no deps" []
    (List.map Dot.to_string m.Opt_p_direct.deps)

let test_direct_deps_own_chain () =
  let p = Opt_p_direct.create cfg3 ~me:0 in
  let _, _ = Opt_p_direct.write p ~var:0 ~value:1 in
  let _, eff = Opt_p_direct.write p ~var:0 ~value:2 in
  Alcotest.(check (list string)) "second write depends on first"
    [ "w1#1" ]
    (List.map Dot.to_string (broadcast_of eff).Opt_p_direct.deps)

let test_direct_deps_cover_only () =
  (* the H1 pattern: p2 reads a then writes b; b's only immediate
     predecessor is a (not c, which p2 applied but never read) *)
  let p1 = Opt_p_direct.create cfg3 ~me:0 in
  let p2 = Opt_p_direct.create cfg3 ~me:1 in
  let _, ea = Opt_p_direct.write p1 ~var:0 ~value:0 in
  let _, ec = Opt_p_direct.write p1 ~var:0 ~value:2 in
  ignore (Opt_p_direct.receive p2 ~src:0 (broadcast_of ea));
  ignore (Opt_p_direct.read p2 ~var:0);
  ignore (Opt_p_direct.receive p2 ~src:0 (broadcast_of ec));
  let _, eb = Opt_p_direct.write p2 ~var:1 ~value:1 in
  Alcotest.(check (list string)) "b depends only on a" [ "w1#1" ]
    (List.map Dot.to_string (broadcast_of eb).Opt_p_direct.deps)

let test_direct_deps_dominated_removed () =
  (* p2 reads a then writes b; a is in b's past. If p2 then reads its
     own b and writes again, the new write's deps must be {b} only —
     a is dominated by b *)
  let p1 = Opt_p_direct.create cfg3 ~me:0 in
  let p2 = Opt_p_direct.create cfg3 ~me:1 in
  let _, ea = Opt_p_direct.write p1 ~var:0 ~value:0 in
  ignore (Opt_p_direct.receive p2 ~src:0 (broadcast_of ea));
  ignore (Opt_p_direct.read p2 ~var:0);
  let _, _ = Opt_p_direct.write p2 ~var:1 ~value:1 in
  let _, eff = Opt_p_direct.write p2 ~var:1 ~value:2 in
  Alcotest.(check (list string)) "a dominated by own write" [ "w2#1" ]
    (List.map Dot.to_string (broadcast_of eff).Opt_p_direct.deps)

let test_direct_blocks_like_optp () =
  (* b (depending on a) buffered at p3 until a arrives *)
  let p1 = Opt_p_direct.create cfg3 ~me:0 in
  let p2 = Opt_p_direct.create cfg3 ~me:1 in
  let p3 = Opt_p_direct.create cfg3 ~me:2 in
  let _, ea = Opt_p_direct.write p1 ~var:0 ~value:0 in
  let ma = broadcast_of ea in
  ignore (Opt_p_direct.receive p2 ~src:0 ma);
  ignore (Opt_p_direct.read p2 ~var:0);
  let _, eb = Opt_p_direct.write p2 ~var:1 ~value:1 in
  let eff = Opt_p_direct.receive p3 ~src:1 (broadcast_of eb) in
  check_int "buffered" 1 (Opt_p_direct.buffered p3);
  check_int "no apply" 0 (List.length eff.Protocol.applied);
  let eff = Opt_p_direct.receive p3 ~src:0 ma in
  Alcotest.(check (list string)) "a then b" [ "w1#1"; "w2#1" ]
    (applied_dots eff)

let test_direct_reconstructs_wco () =
  (* after applying, reads must merge the reconstructed vector: a
     subsequent write carries the right dependency structure *)
  let p1 = Opt_p_direct.create cfg3 ~me:0 in
  let p2 = Opt_p_direct.create cfg3 ~me:1 in
  let p3 = Opt_p_direct.create cfg3 ~me:2 in
  let _, ea = Opt_p_direct.write p1 ~var:0 ~value:0 in
  let ma = broadcast_of ea in
  ignore (Opt_p_direct.receive p2 ~src:0 ma);
  ignore (Opt_p_direct.read p2 ~var:0);
  let _, eb = Opt_p_direct.write p2 ~var:1 ~value:1 in
  let mb = broadcast_of eb in
  ignore (Opt_p_direct.receive p3 ~src:0 ma);
  ignore (Opt_p_direct.receive p3 ~src:1 mb);
  ignore (Opt_p_direct.read p3 ~var:1);
  let _, ed = Opt_p_direct.write p3 ~var:1 ~value:3 in
  (* d's immediate predecessor is b alone (a is dominated through b) *)
  Alcotest.(check (list string)) "d depends on b" [ "w2#1" ]
    (List.map Dot.to_string (broadcast_of ed).Opt_p_direct.deps);
  check_int "p2 sent one dep entry" 1 (Opt_p_direct.total_dep_entries p2);
  check_int "p3 sent one dep entry" 1 (Opt_p_direct.total_dep_entries p3)

(* ------------------------------------------------------------------ *)
(* Slot reuse                                                          *)
(* ------------------------------------------------------------------ *)

(* An adopter continues its slot's write counter: after a gen-1
   occupant of p2 wrote x, y, y, a gen-2 adopter built from its image
   must issue seq 4 even after a read merges x's gen-1 metadata into
   its clock. A stale generation on the own Apply entry let that merge
   lower the counter, re-issuing a predecessor's sequence number. *)
let test_adopt_continues_counter (module P : Protocol.S) () =
  let old = P.create cfg3 ~me:1 in
  P.set_generation old ~gen:1;
  List.iter (fun var -> ignore (P.write old ~var ~value:(10 + var))) [ 0; 1; 1 ];
  let t = P.adopt cfg3 ~me:1 ~gen:2 ~sponsor:(P.snapshot old) in
  ignore (P.read t ~var:0);
  let dot, _ = P.write t ~var:0 ~value:99 in
  check_int (P.name ^ ": seq continues") 4 (Dot.seq dot);
  check_int (P.name ^ ": adopter's generation") 2 (Dot.gen dot)

let adopting_protocols : (module Protocol.S) list =
  [
    (module Opt_p);
    (module Dsm_core.Opt_p_direct);
    (module Opt_p_ws);
    (module Ws_receiver);
    (module Anbkh);
    (module Dsm_core.Canary);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "protocols"
    [
      ( "replica_store",
        [
          Alcotest.test_case "initial bot" `Quick test_store_initial_bot;
          Alcotest.test_case "apply/read" `Quick test_store_apply_read;
          Alcotest.test_case "bounds" `Quick test_store_bounds;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "effects merge" `Quick test_effects_merge;
          Alcotest.test_case "config validation" `Quick
            test_config_validation;
        ] );
      ( "optp",
        [
          Alcotest.test_case "write procedure (Fig. 4)" `Quick
            test_optp_write_local_effects;
          Alcotest.test_case "merge on read only" `Quick
            test_optp_read_merges_only_on_read;
          Alcotest.test_case "apply without read adds no dependency"
            `Quick test_optp_no_read_no_dependency;
          Alcotest.test_case "per-sender gap blocks" `Quick
            test_optp_deliverability_gap;
          Alcotest.test_case "cross-process dependency blocks" `Quick
            test_optp_cross_process_dependency;
          Alcotest.test_case "concurrent writes never buffer" `Quick
            test_optp_concurrent_writes_apply_any_order;
          Alcotest.test_case "bad process id" `Quick
            test_optp_rejects_bad_me;
        ] );
      ( "anbkh",
        [
          Alcotest.test_case "merges on apply" `Quick
            test_anbkh_merges_on_apply;
          Alcotest.test_case "false causality blocks b behind c" `Quick
            test_anbkh_false_causality_blocks;
          Alcotest.test_case "OptP immune on the same pattern" `Quick
            test_optp_would_not_block_same_pattern;
        ] );
      ( "ws_receiver",
        [
          Alcotest.test_case "overwrite metadata" `Quick test_ws_metadata;
          Alcotest.test_case "skip on incoming" `Quick
            test_ws_skip_on_incoming;
          Alcotest.test_case "interposition forbids skip" `Quick
            test_ws_no_skip_with_interposition;
          Alcotest.test_case "in-order delivery never skips" `Quick
            test_ws_in_order_no_skip;
        ] );
      ( "optp_ws",
        [
          Alcotest.test_case "skip over OptP" `Quick test_optp_ws_skip;
          Alcotest.test_case "read-merge semantics kept" `Quick
            test_optp_ws_keeps_read_semantics;
        ] );
      ( "optp_direct",
        [
          Alcotest.test_case "first write: no deps" `Quick
            test_direct_deps_first_write;
          Alcotest.test_case "own chain dep" `Quick
            test_direct_deps_own_chain;
          Alcotest.test_case "covering set only (H1)" `Quick
            test_direct_deps_cover_only;
          Alcotest.test_case "dominated deps removed" `Quick
            test_direct_deps_dominated_removed;
          Alcotest.test_case "blocks like OptP" `Quick
            test_direct_blocks_like_optp;
          Alcotest.test_case "vector reconstruction" `Quick
            test_direct_reconstructs_wco;
        ] );
      ( "slot reuse",
        List.map
          (fun (module P : Protocol.S) ->
            Alcotest.test_case
              (P.name ^ " adopter continues the counter")
              `Quick
              (test_adopt_continues_counter (module P)))
          adopting_protocols );
      ( "ws_token",
        [
          Alcotest.test_case "initial state" `Quick test_token_initial_state;
          Alcotest.test_case "parked holder flushes on write" `Quick
            test_token_holder_flushes_on_write;
          Alcotest.test_case "non-holder buffers and nudges" `Quick
            test_token_non_holder_buffers_and_nudges;
          Alcotest.test_case "sender-side overwrite" `Quick
            test_token_sender_side_overwrite;
          Alcotest.test_case "round-ordered application" `Quick
            test_token_receiver_applies_in_round_order;
          Alcotest.test_case "covered writes become skips" `Quick
            test_token_covered_reported_as_skips;
          Alcotest.test_case "idle parking" `Quick test_token_idle_parking;
          Alcotest.test_case "nudge resumes circulation" `Quick
            test_token_parked_handler_resumes_on_nudge;
          Alcotest.test_case "parked notice triggers nudge" `Quick
            test_token_parked_notice_triggers_nudge;
        ] );
    ]
