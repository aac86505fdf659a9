(* Unit and property tests for the discrete-event simulator substrate:
   Rng, Sim_time, Pairing_heap, Event_queue, Engine, Latency, Mailbox,
   Network. *)

module Rng = Dsm_sim.Rng
module Sim_time = Dsm_sim.Sim_time
module Pairing_heap = Dsm_sim.Pairing_heap
module Event_queue = Dsm_sim.Event_queue
module Engine = Dsm_sim.Engine
module Latency = Dsm_sim.Latency
module Mailbox = Dsm_sim.Mailbox
module Network = Dsm_sim.Network

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check_int "different seeds, different streams" 0 !same

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let c = Rng.next_int64 child and p = Rng.next_int64 parent in
  check_bool "split decorrelates" true (c <> p)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check_bool "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_covers_range () =
  let rng = Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  check_bool "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_unit () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_mean_roughly_half () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_exponential_positive_and_mean () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential rng 10. in
    assert (x >= 0.);
    acc := !acc +. x
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean near 10" true (abs_float (mean -. 10.) < 0.5)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli rng 0.);
    check_bool "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_rng_pareto_support () =
  let rng = Rng.create 23 in
  for _ = 1 to 1000 do
    check_bool "at least scale" true
      (Rng.pareto rng ~scale:2. ~shape:1.5 >= 2.)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 10 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int))
    "still a permutation"
    (Array.init 10 Fun.id) sorted

let test_rng_choice () =
  let rng = Rng.create 31 in
  let a = [| "x" |] in
  Alcotest.(check string) "singleton" "x" (Rng.choice rng a);
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice rng [||]))

(* ------------------------------------------------------------------ *)
(* Sim_time                                                            *)
(* ------------------------------------------------------------------ *)

let test_time_basics () =
  let t = Sim_time.of_float 5. in
  check_bool "roundtrip" true (Sim_time.to_float t = 5.);
  let t2 = Sim_time.add t 2.5 in
  check_bool "add" true (Sim_time.to_float t2 = 7.5);
  check_bool "diff" true (Sim_time.diff t2 t = 2.5);
  check_bool "compare" true Sim_time.(t < t2);
  check_bool "max" true (Sim_time.equal (Sim_time.max t t2) t2)

let test_time_validation () =
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Sim_time.of_float: time must be finite and non-negative")
    (fun () -> ignore (Sim_time.of_float (-1.)));
  Alcotest.check_raises "nan"
    (Invalid_argument
       "Sim_time.of_float: time must be finite and non-negative")
    (fun () -> ignore (Sim_time.of_float Float.nan));
  Alcotest.check_raises "negative duration"
    (Invalid_argument
       "Sim_time.add: duration must be finite and non-negative")
    (fun () -> ignore (Sim_time.add Sim_time.zero (-0.1)))

(* ------------------------------------------------------------------ *)
(* Pairing_heap                                                        *)
(* ------------------------------------------------------------------ *)

module Int_heap = Pairing_heap.Make (Int)

let test_heap_basics () =
  let h = Int_heap.of_list [ 5; 3; 8; 1; 9; 1 ] in
  check_int "size" 6 (Int_heap.size h);
  check_bool "min" true (Int_heap.find_min h = Some 1);
  Alcotest.(check (list int))
    "sorted drain" [ 1; 1; 3; 5; 8; 9 ]
    (Int_heap.to_sorted_list h);
  check_int "persistent" 6 (Int_heap.size h)

let test_heap_empty () =
  check_bool "empty min" true (Int_heap.find_min Int_heap.empty = None);
  check_bool "empty delete" true
    (Int_heap.delete_min Int_heap.empty = None);
  check_bool "is_empty" true (Int_heap.is_empty Int_heap.empty)

let test_heap_merge () =
  let a = Int_heap.of_list [ 4; 2 ] and b = Int_heap.of_list [ 3; 1 ] in
  let m = Int_heap.merge a b in
  Alcotest.(check (list int))
    "merged" [ 1; 2; 3; 4 ] (Int_heap.to_sorted_list m)

let test_heap_fold_unordered () =
  let h = Int_heap.of_list [ 1; 2; 3 ] in
  check_int "sum via fold" 6 (Int_heap.fold_unordered ( + ) 0 h)

let prop_heap_sorts =
  qcheck_case "heap drains sorted"
    QCheck2.Gen.(list_size (int_range 0 200) (int_bound 1000))
    (fun l ->
      Int_heap.to_sorted_list (Int_heap.of_list l)
      = List.sort Int.compare l)

let prop_heap_merge_is_union =
  qcheck_case "merge drains the multiset union"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 50) (int_bound 100))
        (list_size (int_range 0 50) (int_bound 100)))
    (fun (a, b) ->
      Int_heap.to_sorted_list
        (Int_heap.merge (Int_heap.of_list a) (Int_heap.of_list b))
      = List.sort Int.compare (a @ b))

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:(Sim_time.of_float 3.) "c";
  Event_queue.schedule q ~at:(Sim_time.of_float 1.) "a";
  Event_queue.schedule q ~at:(Sim_time.of_float 2.) "b";
  let pop () = Option.map snd (Event_queue.pop q) in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list (option string)))
    "time order"
    [ Some "a"; Some "b"; Some "c"; None ]
    [ p1; p2; p3; p4 ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  let t = Sim_time.of_float 1. in
  List.iter (fun s -> Event_queue.schedule q ~at:t s) [ "1"; "2"; "3" ];
  let pop () = Option.get (Event_queue.pop q) |> snd in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string))
    "schedule order on equal times" [ "1"; "2"; "3" ] [ p1; p2; p3 ]

let test_queue_counters () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:Sim_time.zero ();
  Event_queue.schedule q ~at:Sim_time.zero ();
  check_int "size" 2 (Event_queue.size q);
  Event_queue.clear q;
  check_bool "cleared" true (Event_queue.is_empty q);
  check_int "lifetime counter survives clear" 2
    (Event_queue.scheduled_total q)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Sim_time.of_float 2.) (fun () -> log := 2 :: !log);
  Engine.schedule_at e (Sim_time.of_float 1.) (fun () -> log := 1 :: !log);
  check_bool "drained" true (Engine.run e = Engine.Drained);
  Alcotest.(check (list int)) "execution order" [ 1; 2 ] (List.rev !log);
  check_int "steps" 2 (Engine.steps_executed e)

let test_engine_clock_advances () =
  let e = Engine.create () in
  Engine.schedule_at e (Sim_time.of_float 5.) (fun () ->
      check_bool "now = event time" true
        (Sim_time.equal (Engine.now e) (Sim_time.of_float 5.)));
  ignore (Engine.run e)

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  let rec chain n () =
    incr hits;
    if n > 0 then Engine.schedule_after e 1. (chain (n - 1))
  in
  Engine.schedule_now e (chain 9);
  ignore (Engine.run e);
  check_int "10 chained events" 10 !hits

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule_at e (Sim_time.of_float 10.) (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument
           "Engine.schedule_at: cannot schedule in the virtual past")
        (fun () -> Engine.schedule_at e (Sim_time.of_float 1.) ignore));
  ignore (Engine.run e)

let test_engine_step_limit () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule_after e 1. forever in
  Engine.schedule_now e forever;
  check_bool "hits limit" true
    (Engine.run ~max_steps:50 e = Engine.Hit_step_limit);
  check_int "stopped at limit" 50 (Engine.steps_executed e)

let test_engine_time_limit () =
  let e = Engine.create () in
  for i = 1 to 10 do
    Engine.schedule_at e (Sim_time.of_float (float_of_int i)) ignore
  done;
  check_bool "hits horizon" true
    (Engine.run ~until:(Sim_time.of_float 5.) e = Engine.Hit_time_limit);
  check_int "executed only up to horizon" 5 (Engine.steps_executed e);
  check_int "rest still pending" 5 (Engine.pending e)

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

let test_latency_validation () =
  check_bool "good" true (Latency.validate (Latency.Constant 1.) = Ok ());
  check_bool "bad constant" true
    (Result.is_error (Latency.validate (Latency.Constant (-1.))));
  check_bool "bad uniform" true
    (Result.is_error
       (Latency.validate (Latency.Uniform { lo = 2.; hi = 1. })));
  check_bool "bad bimodal p" true
    (Result.is_error
       (Latency.validate
          (Latency.Bimodal
             {
               fast = Latency.Constant 1.;
               slow = Latency.Constant 2.;
               p_slow = 1.5;
             })));
  check_bool "nested validation" true
    (Result.is_error
       (Latency.validate
          (Latency.Shifted { base = 1.; jitter = Latency.Constant (-1.) })))

let test_latency_samples_nonnegative () =
  let rng = Rng.create 37 in
  let dists =
    [
      Latency.Constant 3.;
      Latency.Uniform { lo = 1.; hi = 2. };
      Latency.Exponential { mean = 5. };
      Latency.Lognormal { mu = 0.; sigma = 1. };
      Latency.Pareto { scale = 1.; shape = 2. };
      Latency.Shifted
        { base = 10.; jitter = Latency.Exponential { mean = 1. } };
      Latency.Bimodal
        {
          fast = Latency.Constant 1.;
          slow = Latency.Constant 100.;
          p_slow = 0.1;
        };
    ]
  in
  List.iter
    (fun d ->
      for _ = 1 to 200 do
        let x = Latency.sample d rng in
        check_bool "non-negative finite" true (x >= 0. && Float.is_finite x)
      done)
    dists

let test_latency_means () =
  check_bool "uniform mean" true
    (Latency.mean (Latency.Uniform { lo = 0.; hi = 2. }) = 1.);
  check_bool "shifted mean" true
    (Latency.mean
       (Latency.Shifted { base = 5.; jitter = Latency.Constant 1. })
    = 6.);
  check_bool "pareto heavy tail" true
    (Latency.mean (Latency.Pareto { scale = 1.; shape = 0.9 }) = infinity)

let test_latency_empirical_mean () =
  let rng = Rng.create 41 in
  let d = Latency.Lognormal { mu = log 10. -. 0.5; sigma = 1.0 } in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Latency.sample d rng
  done;
  let empirical = !acc /. float_of_int n in
  check_bool "lognormal mean ~ analytic" true
    (abs_float (empirical -. Latency.mean d) /. Latency.mean d < 0.1)

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)
(* ------------------------------------------------------------------ *)

let test_mailbox_order () =
  let mb = Mailbox.create () in
  List.iter (Mailbox.add mb) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Mailbox.to_list mb)

let test_mailbox_take_first () =
  let mb = Mailbox.create () in
  List.iter (Mailbox.add mb) [ 1; 2; 3; 4 ];
  check_bool "takes oldest match" true
    (Mailbox.take_first mb ~f:(fun x -> x mod 2 = 0) = Some 2);
  Alcotest.(check (list int)) "order kept" [ 1; 3; 4 ] (Mailbox.to_list mb);
  check_bool "no match" true
    (Mailbox.take_first mb ~f:(fun x -> x > 9) = None)

let test_mailbox_remove_all () =
  let mb = Mailbox.create () in
  List.iter (Mailbox.add mb) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "removed evens" [ 2; 4 ]
    (Mailbox.remove_all mb ~f:(fun x -> x mod 2 = 0));
  Alcotest.(check (list int)) "left odds" [ 1; 3; 5 ] (Mailbox.to_list mb)

let test_mailbox_drain_fixpoint_effectful () =
  (* the predicate mutates state that enables further elements — the
     exact usage pattern of protocol buffers *)
  let mb = Mailbox.create () in
  List.iter (Mailbox.add mb) [ 3; 2; 1 ];
  let next = ref 1 in
  let taken =
    Mailbox.drain_fixpoint mb ~f:(fun x ->
        if x = !next then begin
          incr next;
          true
        end
        else false)
  in
  Alcotest.(check (list int)) "chain drained in order" [ 1; 2; 3 ] taken;
  check_bool "empty after" true (Mailbox.is_empty mb)

let test_mailbox_stats () =
  let mb = Mailbox.create () in
  List.iter (Mailbox.add mb) [ 1; 2; 3 ];
  ignore (Mailbox.take_first mb ~f:(fun _ -> true));
  Mailbox.add mb 4;
  check_int "high watermark" 3 (Mailbox.high_watermark mb);
  check_int "total" 4 (Mailbox.total_buffered mb);
  Mailbox.clear mb;
  check_bool "cleared" true (Mailbox.is_empty mb);
  check_int "total survives clear" 4 (Mailbox.total_buffered mb)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let make_net ?(fifo = false) ?(latency = Latency.Constant 1.) n =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  let net =
    Network.create ~engine ~rng ~n
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~fifo ()
  in
  (engine, net)

let test_network_delivers () =
  let engine, net = make_net 2 in
  let got = ref [] in
  Network.set_handler net 1 (fun ~src ~at:_ msg -> got := (src, msg) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  ignore (Engine.run engine);
  Alcotest.(check (list (pair int string)))
    "one delivery" [ (0, "hello") ] !got;
  check_int "sent" 1 (Network.messages_sent net);
  check_int "delivered" 1 (Network.messages_delivered net);
  check_int "in flight" 0 (Network.in_flight net)

let test_network_broadcast () =
  let engine, net = make_net 4 in
  let hits = Array.make 4 0 in
  for i = 0 to 3 do
    Network.set_handler net i (fun ~src:_ ~at:_ () ->
        hits.(i) <- hits.(i) + 1)
  done;
  Network.broadcast net ~src:2 ();
  ignore (Engine.run engine);
  Alcotest.(check (array int))
    "everyone but the source" [| 1; 1; 0; 1 |] hits

let test_network_rejects_self_send () =
  let _, net = make_net 2 in
  Alcotest.check_raises "self send"
    (Invalid_argument
       "Network.send: self-sends are not modelled (apply locally)")
    (fun () -> Network.send net ~src:0 ~dst:0 ())

let test_network_reordering_without_fifo () =
  let engine, net =
    make_net ~latency:(Latency.Uniform { lo = 0.; hi = 100. }) 2
  in
  let arrivals = ref [] in
  Network.set_handler net 1 (fun ~src:_ ~at:_ k -> arrivals := k :: !arrivals);
  for k = 1 to 50 do
    Network.send net ~src:0 ~dst:1 k
  done;
  ignore (Engine.run engine);
  let order = List.rev !arrivals in
  check_bool "some reordering happened" true
    (order <> List.init 50 (fun i -> i + 1));
  check_int "all delivered" 50 (List.length order)

let test_network_fifo_orders_channel () =
  let engine, net =
    make_net ~fifo:true ~latency:(Latency.Uniform { lo = 0.; hi = 100. }) 2
  in
  let arrivals = ref [] in
  Network.set_handler net 1 (fun ~src:_ ~at:_ k -> arrivals := k :: !arrivals);
  for k = 1 to 50 do
    Network.send net ~src:0 ~dst:1 k
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int))
    "fifo preserves send order"
    (List.init 50 (fun i -> i + 1))
    (List.rev !arrivals)

(* Same-instant deliveries under constant latency: two waves of sends,
   each a burst on edge 0->1 interleaved with sends on edge 2->1 at one
   instant, and a handler at 1 that sends on 0->1 again from inside a
   first-wave delivery (under the arena, into the slot just released).
   Every envelope is one engine event, so the deliveries arrive in send
   order, one step each, and the fresh-closure path replays the arena's
   log exactly. *)
let same_instant_log ~arena =
  let engine = Engine.create () in
  let net =
    Network.create ~engine ~rng:(Rng.create 1) ~n:3
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 5.)
      ~arena ()
  in
  let sent = ref [] and delivered = ref [] and next = ref 0 in
  let send ~src ~dst =
    incr next;
    sent := (src, dst, !next) :: !sent;
    Network.send net ~src ~dst !next
  in
  Network.set_handler net 1 (fun ~src ~at k ->
      delivered := (src, 1, k, Sim_time.to_float at) :: !delivered;
      if src = 0 && k land 1 = 1 && Sim_time.to_float at = 5. then
        send ~src:0 ~dst:1);
  let wave () =
    for k = 1 to 8 do
      send ~src:0 ~dst:1;
      if k land 1 = 0 then send ~src:2 ~dst:1
    done
  in
  Engine.schedule_at engine (Sim_time.of_float 0.) wave;
  Engine.schedule_at engine (Sim_time.of_float 5.) wave;
  ignore (Engine.run engine);
  (List.rev !sent, List.rev !delivered, Engine.steps_executed engine)

let test_network_same_instant_order () =
  let sent, delivered, steps = same_instant_log ~arena:true in
  Alcotest.(check (list (triple int int int)))
    "deliveries in send order" sent
    (List.map (fun (src, dst, k, _) -> (src, dst, k)) delivered);
  Alcotest.(check (list (float 0.)))
    "two delivery instants"
    (List.init 12 (fun _ -> 5.) @ List.init 16 (fun _ -> 10.))
    (List.map (fun (_, _, _, at) -> at) delivered);
  check_int "one engine step per delivery" (2 + List.length delivered) steps;
  let sent', delivered', steps' = same_instant_log ~arena:false in
  check_bool "fresh closures replay the arena" true
    (sent = sent' && delivered = delivered' && steps = steps')

let test_network_no_handler_fails () =
  let engine, net = make_net 2 in
  Network.send net ~src:0 ~dst:1 ();
  match Engine.run engine with
  | exception Network.No_handler { dst = 1; src = 0; at = _ } -> ()
  | exception e ->
      Alcotest.failf "expected No_handler, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "missing handler must fail loudly"


(* ------------------------------------------------------------------ *)
(* Faulty network + reliable channel                                   *)
(* ------------------------------------------------------------------ *)

let test_network_faults_validation () =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad drop prob"
    (Invalid_argument "Network.create: drop probability must be in [0,1]")
    (fun () ->
      ignore
        (Network.create ~engine ~rng ~n:2
           ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 1.)
           ~faults:{ Network.drop = 1.5; duplicate = 0.; corrupt = 0. }
           ()
          : unit Network.t))

let test_network_drops_messages () =
  let engine = Engine.create () in
  let rng = Rng.create 7 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 1.)
      ~faults:{ Network.drop = 0.5; duplicate = 0.; corrupt = 0. }
      ()
  in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~at:_ () -> incr got);
  for _ = 1 to 200 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  ignore (Engine.run engine);
  check_int "conservation" 200
    (Network.messages_delivered net + Network.messages_dropped net);
  check_bool "plenty dropped" true (Network.messages_dropped net > 50);
  check_bool "plenty delivered" true (!got > 50);
  check_int "handler saw each delivery" (Network.messages_delivered net) !got

let test_network_duplicates_messages () =
  let engine = Engine.create () in
  let rng = Rng.create 11 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 1.)
      ~faults:{ Network.drop = 0.; duplicate = 0.5; corrupt = 0. }
      ()
  in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~at:_ () -> incr got);
  for _ = 1 to 200 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  ignore (Engine.run engine);
  check_bool "duplicates happened" true (Network.messages_duplicated net > 50);
  check_int "deliveries = sends + duplicates"
    (200 + Network.messages_duplicated net)
    !got

let test_reliable_channel_exactly_once_lossless () =
  let engine = Engine.create () in
  let rng = Rng.create 3 in
  let net =
    Network.create ~engine ~rng ~n:3
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 1.)
      ()
  in
  let ch = Dsm_sim.Reliable_channel.create ~engine ~network:net () in
  let got = Array.make 3 [] in
  for i = 0 to 2 do
    Dsm_sim.Reliable_channel.set_handler ch i (fun ~src:_ ~at:_ k ->
        got.(i) <- k :: got.(i))
  done;
  for k = 1 to 5 do
    Dsm_sim.Reliable_channel.broadcast ch ~src:0 k
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "p1 got each exactly once" [ 1; 2; 3; 4; 5 ]
    (List.sort compare got.(1));
  Alcotest.(check (list int)) "p2 got each exactly once" [ 1; 2; 3; 4; 5 ]
    (List.sort compare got.(2));
  check_int "nothing left unacked" 0 (Dsm_sim.Reliable_channel.unacked ch)

let test_reliable_channel_exactly_once_under_faults () =
  let engine = Engine.create () in
  let rng = Rng.create 13 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Exponential { mean = 5. })
      ~faults:{ Network.drop = 0.4; duplicate = 0.3; corrupt = 0. }
      ()
  in
  let ch =
    Dsm_sim.Reliable_channel.create ~engine ~network:net
      ~retransmit_after:25. ()
  in
  let got = ref [] in
  Dsm_sim.Reliable_channel.set_handler ch 1 (fun ~src:_ ~at:_ k ->
      got := k :: !got);
  Dsm_sim.Reliable_channel.set_handler ch 0 (fun ~src:_ ~at:_ _ -> ());
  let n_msgs = 100 in
  for k = 1 to n_msgs do
    Dsm_sim.Reliable_channel.send ch ~src:0 ~dst:1 k
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int))
    "every payload delivered exactly once despite 40% drop / 30% dup"
    (List.init n_msgs (fun i -> i + 1))
    (List.sort compare !got);
  check_bool "recovery actually happened" true
    (Dsm_sim.Reliable_channel.retransmissions ch > 0);
  check_bool "dedup actually happened" true
    (Dsm_sim.Reliable_channel.duplicates_discarded ch > 0);
  check_int "all acked" 0 (Dsm_sim.Reliable_channel.unacked ch)

let test_reliable_channel_validation () =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  let net =
    Network.create ~engine ~rng ~n:2
      ~latency:(fun ~src:_ ~dst:_ -> Latency.Constant 1.)
      ()
  in
  Alcotest.check_raises "timeout"
    (Invalid_argument
       "Reliable_channel.create: retransmit_after must be positive")
    (fun () ->
      ignore
        (Dsm_sim.Reliable_channel.create ~engine ~network:net
           ~retransmit_after:0. ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick
            test_rng_int_covers_range;
          Alcotest.test_case "float unit interval" `Quick
            test_rng_float_unit;
          Alcotest.test_case "float mean" `Slow test_rng_mean_roughly_half;
          Alcotest.test_case "exponential" `Slow
            test_rng_exponential_positive_and_mean;
          Alcotest.test_case "bernoulli extremes" `Quick
            test_rng_bernoulli_extremes;
          Alcotest.test_case "pareto support" `Quick test_rng_pareto_support;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "choice" `Quick test_rng_choice;
        ] );
      ( "sim_time",
        [
          Alcotest.test_case "basics" `Quick test_time_basics;
          Alcotest.test_case "validation" `Quick test_time_validation;
        ] );
      ( "pairing_heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "merge" `Quick test_heap_merge;
          Alcotest.test_case "fold_unordered" `Quick
            test_heap_fold_unordered;
          prop_heap_sorts;
          prop_heap_merge_is_union;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "FIFO tie-break" `Quick test_queue_fifo_ties;
          Alcotest.test_case "counters" `Quick test_queue_counters;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick
            test_engine_runs_in_order;
          Alcotest.test_case "clock advances" `Quick
            test_engine_clock_advances;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading;
          Alcotest.test_case "rejects past scheduling" `Quick
            test_engine_rejects_past;
          Alcotest.test_case "step limit" `Quick test_engine_step_limit;
          Alcotest.test_case "time limit" `Quick test_engine_time_limit;
        ] );
      ( "latency",
        [
          Alcotest.test_case "validation" `Quick test_latency_validation;
          Alcotest.test_case "samples non-negative" `Quick
            test_latency_samples_nonnegative;
          Alcotest.test_case "analytic means" `Quick test_latency_means;
          Alcotest.test_case "empirical vs analytic" `Slow
            test_latency_empirical_mean;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "insertion order" `Quick test_mailbox_order;
          Alcotest.test_case "take_first" `Quick test_mailbox_take_first;
          Alcotest.test_case "remove_all" `Quick test_mailbox_remove_all;
          Alcotest.test_case "drain_fixpoint with effectful predicate"
            `Quick test_mailbox_drain_fixpoint_effectful;
          Alcotest.test_case "statistics" `Quick test_mailbox_stats;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivers" `Quick test_network_delivers;
          Alcotest.test_case "broadcast" `Quick test_network_broadcast;
          Alcotest.test_case "rejects self-send" `Quick
            test_network_rejects_self_send;
          Alcotest.test_case "reorders without FIFO" `Quick
            test_network_reordering_without_fifo;
          Alcotest.test_case "FIFO orders each channel" `Quick
            test_network_fifo_orders_channel;
          Alcotest.test_case "missing handler fails loudly" `Quick
            test_network_no_handler_fails;
          Alcotest.test_case "same-instant sends in send order" `Quick
            test_network_same_instant_order;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault validation" `Quick
            test_network_faults_validation;
          Alcotest.test_case "drops" `Quick test_network_drops_messages;
          Alcotest.test_case "duplicates" `Quick
            test_network_duplicates_messages;
          Alcotest.test_case "reliable channel, lossless" `Quick
            test_reliable_channel_exactly_once_lossless;
          Alcotest.test_case "reliable channel, heavy faults" `Quick
            test_reliable_channel_exactly_once_under_faults;
          Alcotest.test_case "reliable channel validation" `Quick
            test_reliable_channel_validation;
        ] );
    ]
