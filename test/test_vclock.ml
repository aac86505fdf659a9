(* Unit and property tests for the vector-clock substrate:
   Vector_clock, Dot, Clock_order. *)

module V = Dsm_vclock.Vector_clock
module Dot = Dsm_vclock.Dot
module Clock_order = Dsm_vclock.Clock_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Vector_clock: construction                                          *)
(* ------------------------------------------------------------------ *)

let test_create_zeroes () =
  let v = V.create 4 in
  check_int "size" 4 (V.size v);
  for i = 0 to 3 do
    check_int "component" 0 (V.get v i)
  done;
  check_int "sum" 0 (V.sum v)

let test_create_invalid () =
  Alcotest.check_raises "zero size"
    (Invalid_argument "Vector_clock.create: size must be positive")
    (fun () -> ignore (V.create 0));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Vector_clock.create: size must be positive")
    (fun () -> ignore (V.create (-3)))

let test_of_array_copies () =
  let a = [| 1; 2; 3 |] in
  let v = V.of_array a in
  a.(0) <- 99;
  check_int "of_array copies its input" 1 (V.get v 0)

let test_of_array_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Vector_clock.of_array: empty") (fun () ->
      ignore (V.of_array [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Vector_clock.of_array: negative component")
    (fun () -> ignore (V.of_array [| 1; -1 |]))

let test_of_list_roundtrip () =
  let v = V.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "roundtrip" [ 3; 1; 4; 1; 5 ] (V.to_list v)

let test_copy_independent () =
  let v = V.of_list [ 1; 2 ] in
  let w = V.copy v in
  V.tick w 0;
  check_int "original unchanged" 1 (V.get v 0);
  check_int "copy changed" 2 (V.get w 0)

let test_to_array_snapshot () =
  let v = V.of_list [ 7; 8 ] in
  let a = V.to_array v in
  a.(0) <- 0;
  check_int "snapshot is detached" 7 (V.get v 0)

(* ------------------------------------------------------------------ *)
(* Vector_clock: mutation                                              *)
(* ------------------------------------------------------------------ *)

let test_tick () =
  let v = V.create 3 in
  V.tick v 1;
  V.tick v 1;
  V.tick v 2;
  Alcotest.(check (list int)) "ticks" [ 0; 2; 1 ] (V.to_list v)

let test_tick_bounds () =
  let v = V.create 2 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Vector_clock.tick: index out of bounds") (fun () ->
      V.tick v 2)

let test_set_get () =
  let v = V.create 3 in
  V.set v 0 5;
  check_int "set/get" 5 (V.get v 0);
  Alcotest.check_raises "negative value"
    (Invalid_argument "Vector_clock.set: negative value") (fun () ->
      V.set v 0 (-1))

let test_merge_into () =
  let a = V.of_list [ 1; 5; 0 ] and b = V.of_list [ 3; 2; 0 ] in
  V.merge_into a b;
  Alcotest.(check (list int)) "pointwise max" [ 3; 5; 0 ] (V.to_list a);
  Alcotest.(check (list int)) "src untouched" [ 3; 2; 0 ] (V.to_list b)

let test_merge_size_mismatch () =
  (* Mixed sizes follow the implicit-zero convention: merging a wider
     source grows the destination in place. *)
  let dst = V.of_list [ 4; 1 ] in
  V.merge_into dst (V.of_list [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "dst grown" [ 4; 2; 3 ] (V.to_list dst);
  let dst = V.of_list [ 4; 1; 9 ] in
  V.merge_into dst (V.of_list [ 5 ]);
  Alcotest.(check (list int)) "narrow src" [ 5; 1; 9 ] (V.to_list dst)

let test_merge_pure () =
  let a = V.of_list [ 1; 5 ] and b = V.of_list [ 3; 2 ] in
  let c = V.merge a b in
  Alcotest.(check (list int)) "merge" [ 3; 5 ] (V.to_list c);
  Alcotest.(check (list int)) "a untouched" [ 1; 5 ] (V.to_list a)

(* ------------------------------------------------------------------ *)
(* Vector_clock: order                                                 *)
(* ------------------------------------------------------------------ *)

let test_order_classification () =
  let v l = V.of_list l in
  check_bool "equal" true (V.equal (v [ 1; 2 ]) (v [ 1; 2 ]));
  check_bool "leq reflexive" true (V.leq (v [ 1; 2 ]) (v [ 1; 2 ]));
  check_bool "lt irreflexive" false (V.lt (v [ 1; 2 ]) (v [ 1; 2 ]));
  check_bool "lt" true (V.lt (v [ 1; 2 ]) (v [ 1; 3 ]));
  check_bool "not lt" false (V.lt (v [ 1; 3 ]) (v [ 1; 2 ]));
  check_bool "concurrent" true (V.concurrent (v [ 1; 0 ]) (v [ 0; 1 ]));
  check_bool "equal not concurrent" false
    (V.concurrent (v [ 1; 1 ]) (v [ 1; 1 ]))

let test_compare_partial () =
  let v l = V.of_list l in
  let check_order name expected a b =
    check_bool name true (V.compare_partial a b = expected)
  in
  check_order "Equal" V.Equal (v [ 2; 2 ]) (v [ 2; 2 ]);
  check_order "Before" V.Before (v [ 1; 2 ]) (v [ 2; 2 ]);
  check_order "After" V.After (v [ 3; 2 ]) (v [ 2; 2 ]);
  check_order "Concurrent" V.Concurrent (v [ 3; 0 ]) (v [ 0; 3 ])

let test_compare_total_extends () =
  let a = V.of_list [ 1; 2; 3 ] and b = V.of_list [ 1; 2; 4 ] in
  check_bool "total respects lt" true (V.compare_total a b < 0);
  check_int "total reflexive" 0 (V.compare_total a a)

(* ------------------------------------------------------------------ *)
(* Vector_clock: qcheck properties                                     *)
(* ------------------------------------------------------------------ *)

let vec_gen n = QCheck2.Gen.(array_size (return n) (int_bound 20))

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let prop_merge_commutative =
  qcheck_case "merge commutative"
    QCheck2.Gen.(pair (vec_gen 5) (vec_gen 5))
    (fun (a, b) ->
      let va = V.of_array a and vb = V.of_array b in
      V.equal (V.merge va vb) (V.merge vb va))

let prop_merge_associative =
  qcheck_case "merge associative"
    QCheck2.Gen.(triple (vec_gen 5) (vec_gen 5) (vec_gen 5))
    (fun (a, b, c) ->
      let v = V.of_array in
      V.equal
        (V.merge (V.merge (v a) (v b)) (v c))
        (V.merge (v a) (V.merge (v b) (v c))))

let prop_merge_idempotent =
  qcheck_case "merge idempotent" (vec_gen 5) (fun a ->
      let va = V.of_array a in
      V.equal (V.merge va va) va)

let prop_merge_upper_bound =
  qcheck_case "merge is an upper bound"
    QCheck2.Gen.(pair (vec_gen 6) (vec_gen 6))
    (fun (a, b) ->
      let va = V.of_array a and vb = V.of_array b in
      let m = V.merge va vb in
      V.leq va m && V.leq vb m)

let prop_leq_antisymmetric =
  qcheck_case "leq antisymmetric"
    QCheck2.Gen.(pair (vec_gen 4) (vec_gen 4))
    (fun (a, b) ->
      let va = V.of_array a and vb = V.of_array b in
      (not (V.leq va vb && V.leq vb va)) || V.equal va vb)

let prop_classification_exhaustive =
  qcheck_case "exactly one of =, <, >, || holds"
    QCheck2.Gen.(pair (vec_gen 4) (vec_gen 4))
    (fun (a, b) ->
      let va = V.of_array a and vb = V.of_array b in
      let cases =
        [ V.equal va vb; V.lt va vb; V.lt vb va; V.concurrent va vb ]
      in
      List.length (List.filter Fun.id cases) = 1)

let prop_compare_partial_agrees =
  qcheck_case "compare_partial agrees with predicates"
    QCheck2.Gen.(pair (vec_gen 4) (vec_gen 4))
    (fun (a, b) ->
      let va = V.of_array a and vb = V.of_array b in
      match V.compare_partial va vb with
      | V.Equal -> V.equal va vb
      | V.Before -> V.lt va vb
      | V.After -> V.lt vb va
      | V.Concurrent -> V.concurrent va vb)

(* ------------------------------------------------------------------ *)
(* Vector_clock: generation-lane properties                            *)
(* ------------------------------------------------------------------ *)

(* Counter and generation arrays of width [n]; gens skewed so the
   lane-less (all-zero) case keeps coming up. *)
let gvec_gen n =
  QCheck2.Gen.(
    pair (array_size (return n) (int_bound 20))
      (array_size (return n) (int_bound 2)))

let mk_gvec (cs, gs) =
  let v = V.of_array cs in
  Array.iteri (fun i g -> if g > 0 then V.set_gen v i g) gs;
  v

(* The specification: entries are [(gen, counter)] pairs ordered
   lexicographically (generation dominance). *)
let lex_leq (g, c) (g', c') = g < g' || (g = g' && c <= c')

let prop_gen_leq_is_lex =
  qcheck_case "leq = pointwise lexicographic (gen, counter) order"
    QCheck2.Gen.(pair (gvec_gen 5) (gvec_gen 5))
    (fun (a, b) ->
      let va = mk_gvec a and vb = mk_gvec b in
      let spec = ref true in
      for i = 0 to 4 do
        spec :=
          !spec
          && lex_leq (V.gen va i, V.get va i) (V.gen vb i, V.get vb i)
      done;
      V.leq va vb = !spec)

let prop_gen_merge_is_lex_max =
  qcheck_case "merge = pointwise lexicographic max"
    QCheck2.Gen.(pair (gvec_gen 5) (gvec_gen 5))
    (fun (a, b) ->
      let va = mk_gvec a and vb = mk_gvec b in
      let m = V.merge va vb in
      let ok = ref true in
      for i = 0 to 4 do
        let ea = (V.gen va i, V.get va i) and eb = (V.gen vb i, V.get vb i) in
        let expect = if lex_leq ea eb then eb else ea in
        ok := !ok && (V.gen m i, V.get m i) = expect
      done;
      !ok)

let prop_gen_merge_laws =
  qcheck_case "merge with gen lanes: commutative, idempotent, upper bound"
    QCheck2.Gen.(pair (gvec_gen 4) (gvec_gen 4))
    (fun (a, b) ->
      let va = mk_gvec a and vb = mk_gvec b in
      let m = V.merge va vb in
      V.equal m (V.merge vb va)
      && V.equal (V.merge va va) va
      && V.leq va m && V.leq vb m)

let prop_gen_dense_equivalence =
  qcheck_case "all-zero gen lane behaves exactly like no lane"
    QCheck2.Gen.(pair (vec_gen 5) (vec_gen 5))
    (fun (a, b) ->
      (* force lane materialization, then zero it back out: the vector
         must stay indistinguishable from its dense twin *)
      let laned cs =
        let v = V.of_array cs in
        V.set_gen v 0 1;
        V.set_gen v 0 0;
        v
      in
      let va = V.of_array a and vb = V.of_array b in
      let la = laned a and lb = laned b in
      (not (V.has_generations la))
      && V.equal la va
      && V.leq la vb = V.leq va vb
      && V.leq lb la = V.leq vb va
      && V.compare_total la lb = V.compare_total va vb
      && V.equal (V.merge la lb) (V.merge va vb))

let prop_gen_grow_preserves =
  qcheck_case "grow keeps entries and reads gen 0 beyond the old width"
    (gvec_gen 4)
    (fun g ->
      let v = mk_gvec g in
      let before = (V.to_array v, V.generations v) in
      let w = V.copy v in
      V.grow w 7;
      let ok = ref (V.size w = 7) in
      for i = 0 to 3 do
        ok :=
          !ok
          && V.get w i = (fst before).(i)
          && V.gen w i = (snd before).(i)
      done;
      for i = 4 to 6 do
        ok := !ok && V.get w i = 0 && V.gen w i = 0
      done;
      !ok && V.leq v w && V.leq w v)

let test_gen_dominance () =
  (* a single bumped generation dominates any counter from the
     predecessor: (gen 1, seq 0) > (gen 0, seq 5) *)
  let old_occ = V.of_list [ 5; 2 ] in
  let new_occ = V.of_list [ 0; 2 ] in
  V.set_gen new_occ 0 1;
  check_bool "old < new despite larger counter" true (V.lt old_occ new_occ);
  check_bool "new not leq old" false (V.leq new_occ old_occ);
  check_bool "concurrent? no" false (V.concurrent old_occ new_occ)

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dot_make () =
  let d = Dot.make ~replica:2 ~seq:5 in
  check_int "replica" 2 (Dot.replica d);
  check_int "seq" 5 (Dot.seq d);
  Alcotest.(check string) "pp" "w3#5" (Dot.to_string d)

let test_dot_invalid () =
  Alcotest.check_raises "seq 0"
    (Invalid_argument "Dot.make: sequence numbers start at 1") (fun () ->
      ignore (Dot.make ~replica:0 ~seq:0));
  Alcotest.check_raises "negative replica"
    (Invalid_argument "Dot.make: negative replica") (fun () ->
      ignore (Dot.make ~replica:(-1) ~seq:1))

let test_dot_compare_order () =
  let d1 = Dot.make ~replica:0 ~seq:2
  and d2 = Dot.make ~replica:0 ~seq:3
  and d3 = Dot.make ~replica:1 ~seq:1 in
  check_bool "same replica by seq" true (Dot.compare d1 d2 < 0);
  check_bool "replica major" true (Dot.compare d2 d3 < 0);
  check_bool "equal" true (Dot.equal d1 (Dot.make ~replica:0 ~seq:2))

let test_dot_of_clock () =
  let v = V.of_list [ 4; 7; 1 ] in
  let d = Dot.of_clock v 1 in
  check_int "replica" 1 (Dot.replica d);
  check_int "seq from component" 7 (Dot.seq d)

let test_dot_set_map () =
  let open Dot in
  let s =
    Set.of_list
      [
        make ~replica:0 ~seq:1;
        make ~replica:0 ~seq:1;
        make ~replica:1 ~seq:1;
      ]
  in
  check_int "set dedups" 2 (Set.cardinal s);
  let m = Map.add (make ~replica:0 ~seq:1) "x" Map.empty in
  check_bool "map lookup" true
    (Map.find_opt (make ~replica:0 ~seq:1) m = Some "x")

(* ------------------------------------------------------------------ *)
(* Clock_order                                                         *)
(* ------------------------------------------------------------------ *)

(* a small poset: d below everything; a < b, a < c; b ∥ c *)
let poset () =
  let d = V.of_list [ 1; 0; 0 ] in
  let a = V.of_list [ 1; 1; 0 ] in
  let b = V.of_list [ 2; 1; 0 ] in
  let c = V.of_list [ 1; 1; 1 ] in
  (d, a, b, c)

let test_minimal_maximal () =
  let d, a, b, c = poset () in
  let l = [ a; b; c; d ] in
  check_int "one minimal" 1 (List.length (Clock_order.minimal l));
  check_bool "d is minimal" true
    (V.equal (List.hd (Clock_order.minimal l)) d);
  check_int "two maximal" 2 (List.length (Clock_order.maximal l))

let test_antichain () =
  let _, _, b, c = poset () in
  check_bool "b,c antichain" true (Clock_order.is_antichain [ b; c ]);
  let d, a, _, _ = poset () in
  check_bool "d,a not antichain" false (Clock_order.is_antichain [ d; a ]);
  check_bool "empty antichain" true (Clock_order.is_antichain []);
  check_bool "singleton antichain" true (Clock_order.is_antichain [ b ])

let test_topo_sort_is_linear_extension () =
  let d, a, b, c = poset () in
  let sorted = Clock_order.topo_sort [ c; b; a; d ] in
  check_bool "linear extension" true
    (Clock_order.is_linear_extension sorted);
  check_int "same length" 4 (List.length sorted)

let test_is_linear_extension_detects_violation () =
  let d, a, _, _ = poset () in
  check_bool "a before d violates" false
    (Clock_order.is_linear_extension [ a; d ])

let test_covers () =
  let d, a, b, c = poset () in
  let cov = Clock_order.covers [ a; b; c; d ] in
  (* d—a, a—b, a—c: exactly three covering pairs; d—b and d—c are
     transitive, not covers *)
  check_int "three covers" 3 (List.length cov);
  check_bool "d covers a" true
    (List.exists (fun (x, y) -> V.equal x d && V.equal y a) cov);
  check_bool "d to b is not a cover" false
    (List.exists (fun (x, y) -> V.equal x d && V.equal y b) cov)

let test_down_set () =
  let d, a, b, _ = poset () in
  let below_b = Clock_order.down_set [ a; b; d ] b in
  check_int "two below b" 2 (List.length below_b)

let test_width () =
  let d, a, b, c = poset () in
  check_int "width 2 (b,c)" 2 (Clock_order.width_lower_bound [ a; b; c; d ])

let prop_topo_sort_always_linear =
  qcheck_case "topo_sort output is a linear extension"
    QCheck2.Gen.(list_size (int_range 0 8) (vec_gen 3))
    (fun arrays ->
      let clocks = List.map V.of_array arrays in
      Clock_order.is_linear_extension (Clock_order.topo_sort clocks))

let prop_covers_subset_of_lt =
  qcheck_case "covering pairs are lt pairs"
    QCheck2.Gen.(list_size (int_range 0 6) (vec_gen 3))
    (fun arrays ->
      let clocks = List.map V.of_array arrays in
      List.for_all (fun (a, b) -> V.lt a b) (Clock_order.covers clocks))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vclock"
    [
      ( "construction",
        [
          Alcotest.test_case "create zeroes" `Quick test_create_zeroes;
          Alcotest.test_case "create rejects bad sizes" `Quick
            test_create_invalid;
          Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
          Alcotest.test_case "of_array validates" `Quick
            test_of_array_invalid;
          Alcotest.test_case "of_list roundtrip" `Quick
            test_of_list_roundtrip;
          Alcotest.test_case "copy is independent" `Quick
            test_copy_independent;
          Alcotest.test_case "to_array snapshots" `Quick
            test_to_array_snapshot;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "tick" `Quick test_tick;
          Alcotest.test_case "tick bounds" `Quick test_tick_bounds;
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "merge_into" `Quick test_merge_into;
          Alcotest.test_case "merge grows across sizes" `Quick
            test_merge_size_mismatch;
          Alcotest.test_case "pure merge" `Quick test_merge_pure;
        ] );
      ( "order",
        [
          Alcotest.test_case "classification" `Quick
            test_order_classification;
          Alcotest.test_case "compare_partial" `Quick test_compare_partial;
          Alcotest.test_case "compare_total extends lt" `Quick
            test_compare_total_extends;
          prop_merge_commutative;
          prop_merge_associative;
          prop_merge_idempotent;
          prop_merge_upper_bound;
          prop_leq_antisymmetric;
          prop_classification_exhaustive;
          prop_compare_partial_agrees;
        ] );
      ( "generations",
        [
          Alcotest.test_case "generation dominance" `Quick test_gen_dominance;
          prop_gen_leq_is_lex;
          prop_gen_merge_is_lex_max;
          prop_gen_merge_laws;
          prop_gen_dense_equivalence;
          prop_gen_grow_preserves;
        ] );
      ( "dot",
        [
          Alcotest.test_case "make/accessors/pp" `Quick test_dot_make;
          Alcotest.test_case "validation" `Quick test_dot_invalid;
          Alcotest.test_case "compare order" `Quick test_dot_compare_order;
          Alcotest.test_case "of_clock" `Quick test_dot_of_clock;
          Alcotest.test_case "Set and Map" `Quick test_dot_set_map;
        ] );
      ( "clock_order",
        [
          Alcotest.test_case "minimal/maximal" `Quick test_minimal_maximal;
          Alcotest.test_case "antichain" `Quick test_antichain;
          Alcotest.test_case "topo_sort" `Quick
            test_topo_sort_is_linear_extension;
          Alcotest.test_case "linear-extension violation" `Quick
            test_is_linear_extension_detects_violation;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "down_set" `Quick test_down_set;
          Alcotest.test_case "width" `Quick test_width;
          prop_topo_sort_always_linear;
          prop_covers_subset_of_lt;
        ] );
    ]
