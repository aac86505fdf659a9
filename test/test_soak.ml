(* End-to-end tests of the endurance soak driver (Soak): the fixed-seed
   reuse arc — leave, reclamation, adoption under a bumped generation,
   with the departed occupant's late retransmissions quarantined — and
   replay determinism via the outcome digest. *)

module Soak = Dsm_runtime.Soak
module Json = Dsm_stats.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Seed 1 over 200 epochs exercises every leg of the arc: graceful
   leaves whose slots are freed once the floor passes their finals,
   adoptions at bumped generations, crash-rejoins, and stale channel
   quarantines. The run is shared across cases (it is deterministic). *)
let arc_cfg = { Soak.default with Soak.epochs = 200; window = 10; seed = 1 }
let arc = lazy (Soak.run (module Dsm_core.Opt_p) arc_cfg)

let test_reuse_arc () =
  let o = Lazy.force arc in
  check_bool "clean verdict" true o.Soak.clean;
  check_bool "slots were reused" true (o.Soak.adoptions > 0);
  check_bool "retired slots were reclaimed" true (o.Soak.frees > 0);
  check_bool "generations advanced past the first reuse" true
    (o.Soak.max_generation > 1);
  check_bool "departed occupants' retransmits quarantined" true
    (o.Soak.chan_stale_quarantined > 0);
  check_int "zero ghost dots" 0 o.Soak.ghost_dots;
  check_int "zero forged values" 0 o.Soak.forged_values;
  check_int "zero unnecessary delays (Theorem 4)" 0 o.Soak.unnecessary_delays;
  check_int "zero causal violations" 0 o.Soak.violations

let test_bounded_by_membership () =
  let o = Lazy.force arc in
  (* the endurance claim: metadata is bounded by the slot universe, not
     by the number of occupant lifetimes the run went through *)
  check_int "wire vector width = universe" arc_cfg.Soak.universe
    o.Soak.vec_width;
  check_int "one lifetime per slot plus one per adoption"
    (arc_cfg.Soak.universe + o.Soak.adoptions)
    o.Soak.occupants;
  check_bool "many more lifetimes than slots" true
    (o.Soak.occupants > 2 * arc_cfg.Soak.universe);
  check_bool "log entries were reclaimed" true (o.Soak.log_reclaimed > 0);
  check_bool "dedup entries were reclaimed" true (o.Soak.dedup_reclaimed > 0)

let test_replay_byte_identical () =
  let o1 = Lazy.force arc in
  let o2 = Soak.run (module Dsm_core.Opt_p) arc_cfg in
  check_bool "equal digests" true (o1.Soak.digest = o2.Soak.digest);
  check_int "equal writes" o1.Soak.total_writes o2.Soak.total_writes;
  check_int "equal applies" o1.Soak.total_applies o2.Soak.total_applies;
  check_int "equal wire bytes" o1.Soak.wire_bytes_total
    o2.Soak.wire_bytes_total;
  check_int "equal engine steps" o1.Soak.engine_steps o2.Soak.engine_steps

let test_seed_changes_digest () =
  let o1 = Lazy.force arc in
  let o2 = Soak.run (module Dsm_core.Opt_p) { arc_cfg with Soak.seed = 2 } in
  check_bool "different seed, different digest" true
    (o1.Soak.digest <> o2.Soak.digest)

let test_conservative_baseline () =
  (* ANBKH holds safety through the same churn; Theorem 4 is not its
     claim, so unnecessary delays are not counted against it *)
  let cfg = { arc_cfg with Soak.epochs = 100; strict_delays = false } in
  let o = Soak.run (module Dsm_core.Anbkh) cfg in
  check_bool "clean verdict" true o.Soak.clean;
  check_int "zero violations" 0 o.Soak.violations;
  check_int "zero ghost dots" 0 o.Soak.ghost_dots

(* Seed 4 adopts a slot whose new occupant reads a variable its
   predecessor wrote before issuing: the adopter must continue the
   slot's write counter, not re-issue one of its predecessor's
   sequence numbers (which no durable log can re-supply) *)
let test_adopter_keeps_counter (module P : Dsm_core.Protocol.S) () =
  let o =
    Soak.run (module P) { Soak.default with Soak.epochs = 2000; seed = 4 }
  in
  check_bool "clean verdict" true o.Soak.clean;
  check_bool "slots were reused" true (o.Soak.adoptions > 0)

let test_json_artifact () =
  let o = Lazy.force arc in
  let doc = Soak.to_json o in
  let str k = Option.bind (Json.member k doc) Json.to_str in
  check_bool "schema" true (str "schema" = Some "causal-dsm-bench/v1");
  check_bool "section" true (str "section" = Some "soak");
  (* the digest must survive the JSON round-trip exactly, which a
     double cannot guarantee for 63-bit ints — it travels as a string *)
  check_bool "digest as string" true
    (str "digest" = Some (string_of_int o.Soak.digest));
  let table = Soak.high_water_table o in
  check_bool "high-water rows" true
    (List.mem_assoc "wire vector width" table
    && List.mem_assoc "live words high-water" table)

(* Golden soak outcomes. A canonical rendering of every outcome and
   window field (floats in hex, so exact) is pinned as an MD5 per run;
   the live-words fields are left out because they depend on the host's
   allocator. The digest alone is not enough: at one seed OptP, ANBKH
   and OptP-direct reach the same barrier vectors, and so the same
   digest, while their wire and delay counts differ. *)
let config_text (c : Soak.config) =
  Format.asprintf
    "config u=%d m=%d epochs=%d window=%d ops=%d wr=%h churn=%h fault=%h \
     min_live=%d drop=%h dup=%h corrupt=%h latency=%a len=%h rto=%h \
     sync=%d poll=%h seed=%d steps=%d pump=%d strict=%b"
    c.Soak.universe c.vars c.epochs c.window c.ops_per_epoch c.write_ratio
    c.churn_prob c.fault_prob c.min_live c.drop c.duplicate c.corrupt
    Dsm_sim.Latency.pp c.latency c.epoch_len c.retransmit_after c.sync_rounds
    c.flush_poll c.seed c.max_steps c.max_pump_rounds c.strict_delays

let window_text (w : Soak.window_report) =
  Printf.sprintf
    "window %d end=%d t=%h writes=%d applies=%d delays=%d unnecessary=%d \
     violations=%d lost=%d ghosts=%d forged=%d xdups=%d doubles=%d pump=%d \
     live=%d floor=%d reclaimed=%d log=%d dedup=%d wire=%d"
    w.Soak.w_index w.w_end_epoch w.w_time w.w_writes w.w_applies w.w_delays
    w.w_unnecessary w.w_violations w.w_lost w.w_ghost_dots w.w_forged_values
    w.w_cross_window_dups w.w_double_applies w.w_pump_rounds w.w_live
    w.w_floor_total w.w_reclaimed_slots w.w_log_entries w.w_dedup_entries
    w.w_wire_bytes

let outcome_text (o : Soak.outcome) =
  let ints l = String.concat " " (List.map string_of_int l) in
  String.concat "\n"
    ([ o.Soak.protocol_name; config_text o.config ]
    @ List.map window_text o.windows
    @ [
        ints
          [
            o.occupants; o.adoptions; o.rejoins; o.leaves; o.crashes; o.frees;
            o.max_generation; o.total_writes; o.total_applies; o.total_delays;
            o.unnecessary_delays; o.violations; o.lost; o.ghost_dots;
            o.forged_values; o.cross_window_dups; o.double_applies;
            o.ops_skipped_inactive; o.replayed_writes;
            o.stale_deliveries_dropped; o.chan_stale_quarantined;
            o.net_stale_dropped; o.net_nonmember_dropped; o.corrupt_dropped;
            o.retransmissions; o.duplicates_discarded; o.aborted_payloads;
            o.payloads_sent; o.frames_sent; o.wire_bytes_total;
            o.max_log_entries; o.max_dedup_entries; o.dedup_reclaimed;
            o.log_reclaimed; o.vec_width; o.digest; o.engine_steps;
          ];
        Printf.sprintf "end=%h clean=%b" o.end_time o.clean;
      ])

(* Counts the protocol constructors a run calls: beyond the universe's
   first occupants, a [create] is a restore of a slot that crashed
   before its first commit, an [adopt] a recycled slot's new occupant *)
let creates = ref 0
let adopts = ref 0

module Counting (P : Dsm_core.Protocol.S) = struct
  include P

  let create cfg ~me =
    incr creates;
    P.create cfg ~me

  let adopt cfg ~me ~gen ~sponsor =
    incr adopts;
    P.adopt cfg ~me ~gen ~sponsor
end

module Counting_optp = Counting (Dsm_core.Opt_p)
module Counting_anbkh = Counting (Dsm_core.Anbkh)
module Counting_direct = Counting (Dsm_core.Opt_p_direct)

let golden_cfg = { Soak.default with Soak.epochs = 200 }

let golden_soaks =
  [
    ( "OptP",
      (module Counting_optp : Dsm_core.Protocol.S),
      true,
      [
        (1, "12959fc2997dfa4b8d52e98832d24519");
        (2, "ef79d3b837c0904362341db37557f5d1");
        (3, "eba857e5f09cb29ac9116f0ace2a4435");
      ] );
    ( "ANBKH",
      (module Counting_anbkh : Dsm_core.Protocol.S),
      false,
      [
        (1, "1da4f0c70b2ac55809792e604827f7b0");
        (2, "591a2a456b87cc19febf748a22a4163e");
        (3, "57b9a384b24cda71a9898a3b7dbf4829");
      ] );
    ( "OptP-direct",
      (module Counting_direct : Dsm_core.Protocol.S),
      true,
      [
        (1, "cb898ac8e59eb5e1165060bcc8830655");
        (2, "eb2e4c07e1a7592155e3028e0c20a3f7");
        (3, "96bab01e3c8fae369ff8657e4190c66a");
      ] );
  ]

let test_golden_soaks () =
  creates := 0;
  adopts := 0;
  let runs = ref 0 in
  List.iter
    (fun (name, (module P : Dsm_core.Protocol.S), strict, seeds) ->
      List.iter
        (fun (seed, want) ->
          let cfg = { golden_cfg with Soak.seed; strict_delays = strict } in
          let o = Soak.run (module P) cfg in
          incr runs;
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: golden outcome" name seed)
            want
            (Digest.to_hex (Digest.string (outcome_text o))))
        seeds)
    golden_soaks;
  (* the branches the shared runtime moved: adoption of a recycled slot,
     and a rejoin restoring a slot that never committed *)
  check_bool "a recycled slot was adopted" true (!adopts > 0);
  check_bool "a slot rejoined with no commit to restore" true
    (!creates > !runs * golden_cfg.Soak.universe)

let () =
  Alcotest.run "soak"
    [
      ( "endurance",
        [
          Alcotest.test_case "reuse arc is clean" `Quick test_reuse_arc;
          Alcotest.test_case "bounded by live membership" `Quick
            test_bounded_by_membership;
          Alcotest.test_case "replay determinism" `Quick
            test_replay_byte_identical;
          Alcotest.test_case "seed sensitivity" `Quick
            test_seed_changes_digest;
          Alcotest.test_case "conservative baseline" `Quick
            test_conservative_baseline;
          Alcotest.test_case "json artifact" `Quick test_json_artifact;
          Alcotest.test_case "adopter keeps the counter, OptP, seed 4" `Quick
            (test_adopter_keeps_counter (module Dsm_core.Opt_p));
          Alcotest.test_case "adopter keeps the counter, OptP-direct, seed 4"
            `Quick
            (test_adopter_keeps_counter (module Dsm_core.Opt_p_direct));
          Alcotest.test_case "golden outcomes" `Quick test_golden_soaks;
        ] );
    ]
