(* intersect-lint: fixture source snippets per rule (violating and
   conforming), allowlist parsing and matching, golden --json output
   under the fixed finding ordering, determinism of the report, and the
   gate that the repository itself lints clean.

   Fixtures are OCaml sources held in strings and linted via
   Driver.lint_source with a chosen virtual path, so each rule's
   structural scoping (lib/prng exempt from R1, lib/obsv from R2, ...)
   is exercised without touching the filesystem. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let rules_of findings = List.map (fun (f : Lint.Finding.t) -> f.rule) findings

let lint ?registry ~path source = Lint.Driver.lint_source ?registry ~path source

let count_rule rule findings = List.length (List.filter (( = ) rule) (rules_of findings))

(* --- R1: determinism ------------------------------------------------- *)

let r1_violating =
  {|
let draw () = Random.int 10
let now () = Unix.gettimeofday ()
let tick () = Monotonic_clock.now ()
let cpu () = Sys.time ()
let h x = Hashtbl.hash x
let t () = Hashtbl.create ~random:true 8
|}

let test_r1_flags_ambient_randomness () =
  let findings = lint ~path:"lib/core/fixture.ml" r1_violating in
  check "six R1 findings" 6 (count_rule "R1" findings);
  check "nothing else fires" 6 (List.length findings)

let test_r1_open_random () =
  let findings = lint ~path:"lib/core/fixture.ml" "open Random\nlet draw () = int 10\n" in
  check "open Random is one finding" 1 (count_rule "R1" findings)

let test_r1_stdlib_qualifier_is_stripped () =
  let findings = lint ~path:"lib/core/fixture.ml" "let d () = Stdlib.Random.bits ()\n" in
  check "Stdlib.Random caught" 1 (count_rule "R1" findings)

let test_r1_exempt_in_prng () =
  check "lib/prng is the sanctioned home" 0
    (List.length (lint ~path:"lib/prng/fixture.ml" r1_violating));
  check "seed_stream is exempt" 0
    (List.length (lint ~path:"lib/engine/seed_stream.ml" "let d () = Random.bits ()\n"))

let test_r1_conforming () =
  let src = "let draw rng = Prng.Rng.bits rng\nlet t () = Hashtbl.create ~random:false 8\n" in
  check "seeded draws pass" 0 (List.length (lint ~path:"lib/core/fixture.ml" src))

(* --- R2: ambient state ----------------------------------------------- *)

let test_r2_flags_toplevel_mutable () =
  let src =
    {|
let count = ref 0
let table = Hashtbl.create 16
let slot = Atomic.make None
let lazy_q = lazy (Queue.create ())
module Inner = struct
  let buf = Buffer.create 80
end
|}
  in
  let findings = lint ~path:"lib/core/fixture.ml" src in
  check "five R2 findings (incl. lazy and nested module)" 5 (count_rule "R2" findings)

let test_r2_function_local_state_passes () =
  let src = "let f () =\n  let count = ref 0 in\n  incr count;\n  !count\n" in
  check "local refs are fine" 0 (List.length (lint ~path:"lib/core/fixture.ml" src))

let test_r2_exempt_in_obsv () =
  check "lib/obsv owns ambient state" 0
    (List.length (lint ~path:"lib/obsv/fixture.ml" "let registry = Hashtbl.create 16\n"))

(* --- R3: phase registry ---------------------------------------------- *)

let test_r3_flags_unregistered_span_literal () =
  let src = {|let f () = Obsv.Trace.span "bogus/phase" (fun () -> ())|} in
  let findings = lint ~path:"lib/core/fixture.ml" src in
  check "typo'd phase caught" 1 (count_rule "R3" findings)

let test_r3_registered_literal_passes () =
  let src = {|let f () = Obsv.Trace.span "bucket/assign" (fun () -> ())|} in
  check "registered name passes" 0 (List.length (lint ~path:"lib/core/fixture.ml" src))

let test_r3_constant_passes () =
  let src = "let f () = Obsv.Trace.span Obsv.Phases.bucket_eq (fun () -> ())\n" in
  check "Phases constant passes" 0 (List.length (lint ~path:"lib/core/fixture.ml" src))

let test_r3_custom_registry () =
  let src = {|let f () = Trace.span "custom/phase" ignore|} in
  check "custom registry accepts" 0
    (List.length (lint ~registry:(( = ) "custom/phase") ~path:"lib/core/fixture.ml" src));
  check "custom registry rejects" 1
    (count_rule "R3" (lint ~registry:(fun _ -> false) ~path:"lib/core/fixture.ml" src))

(* --- R4: domain hygiene ---------------------------------------------- *)

let test_r4_flags_domain_outside_engine () =
  let src = "let d f = Domain.spawn f\nlet k () = Domain.DLS.new_key (fun () -> 0)\n" in
  let findings = lint ~path:"lib/core/fixture.ml" src in
  check "spawn and DLS caught" 2 (count_rule "R4" findings)

let test_r4_exempt_in_engine_and_obsv () =
  let src = "let d f = Domain.spawn f\n" in
  check "lib/engine may spawn" 0 (List.length (lint ~path:"lib/engine/pool.ml" src));
  check "lib/obsv may use DLS" 0
    (List.length (lint ~path:"lib/obsv/trace.ml" "let k = Domain.DLS.new_key (fun () -> [])\n"))

let test_r4_join_alone_passes () =
  (* Only spawn/DLS are restricted; e.g. Domain.cpu_relax or
     Domain.recommended_domain_count are harmless reads. *)
  let src = "let n () = Domain.recommended_domain_count ()\n" in
  check "other Domain reads pass" 0 (List.length (lint ~path:"lib/core/fixture.ml" src))

(* --- R6: flight recorder write restriction --------------------------- *)

let test_r6_flags_event_outside_session () =
  let src = {|let f () = Obsv.Recorder.event ~kind:"oops" "narrating from the wrong layer"|} in
  check "recorder write caught" 1 (count_rule "R6" (lint ~path:"lib/workload/fixture.ml" src));
  check "short path caught too" 1
    (count_rule "R6" (lint ~path:"bin/fixture.ml" {|let f () = Recorder.event ~kind:"k" "d"|}))

let test_r6_exempt_in_session_and_obsv () =
  let src = {|let f () = Obsv.Recorder.event ~kind:"ladder" "degrading"|} in
  check "lib/session narrates" 0 (List.length (lint ~path:"lib/session/machine.ml" src));
  check "lib/obsv owns the recorder" 0 (List.length (lint ~path:"lib/obsv/recorder.ml" src))

let test_r6_reads_pass () =
  let src =
    "let dump r = Obsv.Recorder.post_mortem_json r\nlet n r = Obsv.Recorder.recorded r\n"
  in
  check "reading a recorder is open to all" 0
    (List.length (lint ~path:"lib/workload/fixture.ml" src))

(* --- R5: interface coverage ------------------------------------------ *)

let test_r5_missing_mli () =
  let files = [ "lib/core/a.ml"; "lib/core/a.mli"; "lib/core/b.ml"; "bin/cli.ml" ] in
  let findings = Lint.Rules.check_mli_coverage ~files in
  check "one missing interface" 1 (List.length findings);
  check_str "names the .ml" "lib/core/b.ml" (List.hd findings).Lint.Finding.file;
  check_str "rule id" "R5" (List.hd findings).Lint.Finding.rule

(* --- syntax ----------------------------------------------------------- *)

let test_syntax_error_is_a_finding () =
  let findings = lint ~path:"lib/core/fixture.ml" "let = broken (" in
  check "one syntax finding" 1 (count_rule "syntax" findings);
  let findings = lint ~path:"lib/core/fixture.mli" "val : t" in
  check "interfaces are parsed too" 1 (count_rule "syntax" findings)

(* --- allowlist -------------------------------------------------------- *)

let test_allow_parse_and_match () =
  let known = Lint.Rules.rule_ids in
  match Lint.Allow.parse ~known "# header\nR1 bench/ # wall clock\n\nR3 test/\n" with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      check "two entries" 2 (List.length entries);
      check_bool "R1 under bench/ allowed" true
        (Lint.Allow.allows entries ~rule:"R1" ~file:"bench/micro.ml");
      check_bool "R1 elsewhere still fires" false
        (Lint.Allow.allows entries ~rule:"R1" ~file:"lib/core/foo.ml");
      check_bool "R2 under bench/ still fires" false
        (Lint.Allow.allows entries ~rule:"R2" ~file:"bench/micro.ml")

let test_allow_rejects_unknown_rule () =
  check_bool "unknown rule id fails parse" true
    (match Lint.Allow.parse ~known:Lint.Rules.rule_ids "R99 lib/\n" with
    | Error _ -> true
    | Ok _ -> false)

let test_allow_knows_typed_rules () =
  (* R7..R10 are valid allowlist targets now that the typed pass exists. *)
  match Lint.Allow.parse ~known:Lint.Rules.rule_ids "R7 lib/\nR8 lib/\nR9 lib/\nR10 lib/\n" with
  | Error e -> Alcotest.fail e
  | Ok entries -> check "four typed-rule entries" 4 (List.length entries)

(* --- golden JSON ------------------------------------------------------ *)

let test_golden_json_report () =
  let findings =
    lint ~path:"lib/core/fixture.ml"
      "let now () = Unix.gettimeofday ()\nlet count = ref 0\n"
  in
  let golden =
    {|{"tool":"intersect-lint","files":1,"typed_modules":0,"count":2,"findings":[{"rule":"R1","file":"lib/core/fixture.ml","line":1,"col":13,"message":"Unix.gettimeofday: clock reads are nondeterministic; use the trace's event clock, or time bench loops through Obsv.Window"},{"rule":"R2","file":"lib/core/fixture.ml","line":2,"col":0,"message":"top-level ref is ambient mutable state; keep it behind Obsv's Domain-local wrappers or pass it explicitly"}]}|}
  in
  check_str "golden report" golden
    (Stats.Json.to_string (Lint.Finding.report_json ~files:1 ~typed_modules:0 findings))

let test_golden_sarif_report () =
  let findings =
    [
      Lint.Finding.v ~rule:"R7" ~file:"lib/workload/launder.ml" ~line:1 ~col:14
        "sink reachable from party code";
    ]
  in
  let golden =
    {|{"version":"2.1.0","$schema":"https://json.schemastore.org/sarif-2.1.0.json","runs":[{"tool":{"driver":{"name":"intersect-lint","rules":[{"id":"R7","shortDescription":{"text":"determinism taint"}}]}},"properties":{"files":2,"typed_modules":2},"results":[{"ruleId":"R7","level":"error","message":{"text":"sink reachable from party code"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"lib/workload/launder.ml"},"region":{"startLine":1,"startColumn":15}}}]}]}]}|}
  in
  check_str "golden sarif" golden
    (Stats.Json.to_string
       (Lint.Finding.sarif_json
          ~rules:[ ("R7", "determinism taint") ]
          ~files:2 ~typed_modules:2 findings))

(* --- typed pass: R7..R10 over in-process fixtures --------------------- *)

(* Fixture units are typed against the stdlib in order (each unit's
   signature visible to the later ones), then pushed through the same
   Typed.analyze the repo gate runs — only the scope config differs,
   because fixture modules are not called Commsim or Obsv.  Most fixtures
   have no executable, so every lib/ binding in them is unreachable: R11
   findings are kept only where a test asks for them. *)
let analyze_units ?config ?(r11 = false) units =
  let types = Lint.Cmt_load.create_types () in
  match Lint.Cmt_load.For_testing.of_sources ~types units with
  | Error e -> Alcotest.fail e
  | Ok modus ->
      Lint.Typed.analyze ?config ~types modus
      |> List.filter (fun (f : Lint.Finding.t) -> r11 || f.rule <> "R11")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let find_rule rule findings =
  match List.filter (fun (f : Lint.Finding.t) -> f.rule = rule) findings with
  | [ f ] -> f
  | l -> Alcotest.failf "expected exactly one %s finding, got %d" rule (List.length l)

(* R7: a helper module outside the party layer laundering ambient
   randomness is caught the moment party code can reach it, with the
   call chain in the message. *)

let test_r7_flags_laundered_randomness () =
  let findings =
    analyze_units
      [
        ("Launder", "lib/workload/launder.ml", "let fresh n = Stdlib.Random.int n\n");
        ("Party", "lib/core/party.ml", "let run () = Launder.fresh 10\n");
      ]
  in
  let f = find_rule "R7" findings in
  check_str "sink is in the helper file" "lib/workload/launder.ml" f.Lint.Finding.file;
  check_bool "chain names the party entry" true
    (contains ~sub:"Party.run -> Launder.fresh" f.Lint.Finding.message);
  check "nothing else fires" 1 (List.length findings)

let test_r7_transitive_chain () =
  (* Two hops: party -> util -> launder still resolves, and the reported
     chain is the shortest path. *)
  let findings =
    analyze_units
      [
        ("Launder", "lib/workload/launder.ml", "let fresh n = Stdlib.Random.int n\n");
        ("Util", "lib/workload/util.ml", "let pick n = Launder.fresh n\n");
        ("Party", "lib/core/party.ml", "let run () = Util.pick 10\n");
      ]
  in
  (* Only the binding that touches the sink is reported; the clean
     intermediary is just a hop in its chain. *)
  let launder = find_rule "R7" findings in
  check_str "reported at the sink" "lib/workload/launder.ml" launder.Lint.Finding.file;
  check_bool "full chain reported" true
    (contains ~sub:"Party.run -> Util.pick -> Launder.fresh" launder.Lint.Finding.message)

let test_r7_flags_monotonic_clock () =
  (* The bench clock is a sink too: a stopwatch helper party code can
     reach is flagged, whatever clock it reads.  The stand-in unit plays
     bechamel's Monotonic_clock. *)
  let findings =
    analyze_units
      [
        ("Monotonic_clock", "vendor/monotonic_clock.ml", "let now () = 0L\n");
        ("Stopwatch", "lib/workload/stopwatch.ml", "let lap () = Monotonic_clock.now ()\n");
        ("Party", "lib/core/party.ml", "let run () = Stopwatch.lap ()\n");
      ]
  in
  let f = find_rule "R7" findings in
  check_str "sink is in the helper file" "lib/workload/stopwatch.ml" f.Lint.Finding.file;
  check_bool "names the clock" true (contains ~sub:"Monotonic_clock.now" f.Lint.Finding.message);
  check_bool "chain names the party entry" true
    (contains ~sub:"Party.run -> Stopwatch.lap" f.Lint.Finding.message);
  check "nothing else fires" 1 (List.length findings)

let test_r7_sanctioned_prng_passes () =
  (* The same laundering helper under lib/prng is the sanctioned route. *)
  check "lib/prng is the stop set" 0
    (List.length
       (analyze_units
          [
            ("Seeds", "lib/prng/seeds.ml", "let fresh n = Stdlib.Random.int n\n");
            ("Party", "lib/core/party.ml", "let run () = Seeds.fresh 10\n");
          ]))

(* Both module-alias forms resolve to their target, so an alias cannot
   hide the chain from party code to a sink. *)
let test_r7_through_module_alias () =
  let findings =
    analyze_units
      [
        ("Launder", "lib/workload/launder.ml", "let fresh n = Stdlib.Random.int n\n");
        ("Party", "lib/core/party.ml", "module L = Launder\nlet run () = L.fresh 10\n");
      ]
  in
  let f = find_rule "R7" findings in
  check_bool "chain through the alias" true
    (contains ~sub:"Party.run -> Launder.fresh" f.Lint.Finding.message)

let test_r7_through_let_module () =
  let findings =
    analyze_units
      [
        ("Launder", "lib/workload/launder.ml", "let fresh n = Stdlib.Random.int n\n");
        ("Party", "lib/core/party.ml", "let run () =\n  let module L = Launder in\n  L.fresh 10\n");
      ]
  in
  let f = find_rule "R7" findings in
  check_bool "chain through the local alias" true
    (contains ~sub:"Party.run -> Launder.fresh" f.Lint.Finding.message)

let test_r7_leaves_direct_use_to_r1 () =
  (* A sink used directly in a party file is syntactic R1's report, not a
     second R7 one. *)
  check "no double report" 0
    (List.length
       (analyze_units [ ("Party", "lib/core/party.ml", "let run () = Stdlib.Random.int 3\n") ]))

let test_r7_unreachable_helper_passes () =
  check "unreachable helper is not tainted" 0
    (List.length
       (analyze_units
          [
            ("Launder", "lib/workload/launder.ml", "let fresh n = Stdlib.Random.int n\n");
            ("Party", "lib/core/party.ml", "let run () = 10\n");
          ]))

(* R8: transport ops must sit under a span-opening binding on every
   in-scope path. Fixture transport/span modules stand in for
   Commsim.Transport and Obsv.Trace via the config. *)

let typed_cfg =
  {
    Lint.Typed.default_config with
    Lint.Typed.span_fns = [ "Obs.span" ];
    transport_fns = [ "Net.send"; "Net.recv" ];
    transport_types = [ "Net.t" ];
  }

let obs_unit = ("Obs", "lib/obsv/obs.ml", "let span name f = ignore name; f ()\n")

let net_unit =
  ( "Net",
    "lib/commsim/net.ml",
    "type t = { send : string -> unit; recv : unit -> string }\n\
     let send t x = t.send x\n\
     let recv t = t.recv ()\n" )

let test_r8_flags_unattributed_send () =
  let findings =
    analyze_units ~config:typed_cfg
      [
        obs_unit;
        net_unit;
        ("Proto", "lib/session/proto.ml", "let push ch = Net.send ch \"x\"\n");
      ]
  in
  let f = find_rule "R8" findings in
  check_str "at the op site" "lib/session/proto.ml" f.Lint.Finding.file;
  check_bool "names the entry path" true (contains ~sub:"Proto.push" f.Lint.Finding.message)

let test_r8_flags_field_projection () =
  (* chan.send through the record type counts as a transport op even
     with no call to the Net functions. *)
  let findings =
    analyze_units ~config:typed_cfg
      [
        obs_unit;
        net_unit;
        ("Proto", "lib/session/proto.ml", "let push (c : Net.t) = c.send \"y\"\n");
      ]
  in
  check "field-projection op caught" 1 (count_rule "R8" findings)

let test_r8_span_in_binding_passes () =
  check "spanned send passes" 0
    (List.length
       (analyze_units ~config:typed_cfg
          [
            obs_unit;
            net_unit;
            ( "Proto",
              "lib/session/proto.ml",
              "let push ch = Obs.span \"p\" (fun () -> Net.send ch \"x\")\n" );
          ]))

let test_r8_span_in_caller_passes () =
  (* The op binding itself opens no span, but its only in-scope caller
     does: every path is attributed, so nothing fires. *)
  check "caller-attributed send passes" 0
    (List.length
       (analyze_units ~config:typed_cfg
          [
            obs_unit;
            net_unit;
            ( "Proto",
              "lib/session/proto.ml",
              "let raw ch = Net.send ch \"x\"\n\
               let push ch = Obs.span \"p\" (fun () -> raw ch)\n" );
          ]))

let test_r8_exempt_plumbing_passes () =
  (* lib/commsim itself (Net's home) is outside the metering scope. *)
  check "transport plumbing exempt" 0
    (List.length (analyze_units ~config:typed_cfg [ obs_unit; net_unit ]))

(* R9: mutable state at module scope or captured by Domain.spawn. The
   first fixture reconstructs the Splitmix64 shared-scratch race: a
   module-global mutable record every domain would write concurrently —
   invisible to syntactic R2 (no recognised constructor), caught by
   type. *)

let r9_splitmix =
  {|
type t = { mutable hi : int; mutable lo : int }
let scratch = { hi = 0x9e3779b9; lo = 0 }
let mix z =
  scratch.hi <- scratch.hi + z;
  scratch.hi lxor scratch.lo
|}

let test_r9_flags_splitmix_scratch_record () =
  let findings = analyze_units [ ("Splitmix", "lib/prng/splitmix.ml", r9_splitmix) ] in
  let f = find_rule "R9" findings in
  check_str "at the global binding" "lib/prng/splitmix.ml" f.Lint.Finding.file;
  check_bool "names the scratch record" true
    (contains ~sub:"Splitmix.scratch" f.Lint.Finding.message);
  (* ...and syntactic R2 really cannot see it: a record literal is not
     one of its recognised state constructors. *)
  check "R2 misses the same source" 0
    (count_rule "R2" (lint ~path:"lib/prng/splitmix.ml" r9_splitmix))

let test_r9_per_call_allocation_passes () =
  let fixed =
    "type t = { mutable hi : int; mutable lo : int }\n\
     let mix z =\n\
    \  let s = { hi = z; lo = 1 } in\n\
    \  s.hi <- s.hi + 1;\n\
    \  s.hi lxor s.lo\n"
  in
  check "per-call scratch passes" 0
    (List.length (analyze_units [ ("Splitmix", "lib/prng/splitmix.ml", fixed) ]))

let r9_spawn_race =
  "let race () =\n\
  \  let results = Array.make 4 0 in\n\
  \  let d = Stdlib.Domain.spawn (fun () -> results.(0) <- 1) in\n\
  \  Stdlib.Domain.join d;\n\
  \  results.(0)\n"

let test_r9_flags_spawn_capture () =
  let findings = analyze_units [ ("Par", "lib/workload/par.ml", r9_spawn_race) ] in
  let f = find_rule "R9" findings in
  check_bool "names the captured array" true (contains ~sub:"results" f.Lint.Finding.message)

let test_r9_atomic_capture_passes () =
  let src =
    "let count () =\n\
    \  let c = Stdlib.Atomic.make 0 in\n\
    \  let d = Stdlib.Domain.spawn (fun () -> Stdlib.Atomic.incr c) in\n\
    \  Stdlib.Domain.join d;\n\
    \  Stdlib.Atomic.get c\n"
  in
  check "Atomic is the sanctioned vehicle" 0
    (List.length (analyze_units [ ("Par", "lib/workload/par.ml", src) ]))

let test_r9_engine_capture_exempt () =
  check "lib/engine owns its pools" 0
    (List.length (analyze_units [ ("Pool", "lib/engine/pool_fx.ml", r9_spawn_race) ]))

(* R10: registry constants nothing spans or references. *)

let r10_cfg = { typed_cfg with Lint.Typed.registry_module = "Phases" }

let r10_registry =
  ( "Phases",
    "lib/obsv/phases_fx.ml",
    "let alive = \"p/alive\"\n\
     let spanned = \"p/spanned\"\n\
     let dead = \"p/dead\"\n\
     let all = [ alive; spanned; dead ]\n" )

let test_r10_flags_dead_phase () =
  let findings =
    analyze_units ~config:r10_cfg
      [
        r10_registry;
        obs_unit;
        ( "Use",
          "lib/core/use.ml",
          "let f () = Obs.span Phases.alive (fun () -> ())\n\
           let g () = Obs.span \"p/spanned\" (fun () -> ())\n" );
      ]
  in
  let f = find_rule "R10" findings in
  check_str "at the registry entry" "lib/obsv/phases_fx.ml" f.Lint.Finding.file;
  check_bool "names the dead phase" true (contains ~sub:"p/dead" f.Lint.Finding.message);
  check "alive and spanned survive" 1 (List.length findings)

let test_r10_registry_internal_refs_do_not_count () =
  (* The registry's own [all] list references every constant; with no
     outside user, all three are dead. *)
  let findings = analyze_units ~config:r10_cfg [ r10_registry; obs_unit ] in
  check "all three dead" 3 (count_rule "R10" findings)

(* R11: library bindings no executable reaches.  [bin/] and [examples/]
   fixtures root the graph; [lib/] fixtures are checked. *)

let r11 units = count_rule "R11" (analyze_units ~r11:true units)

let r11_lib =
  ("Util", "lib/util/util_fx.ml", "let used () = 1\nlet only_tested () = 2\n")

let test_r11_flags_test_only_binding () =
  let findings =
    analyze_units ~r11:true
      [
        r11_lib;
        ("Main", "bin/main_fx.ml", "let () = ignore (Util.used ())\n");
        ("Test_util", "test/test_util_fx.ml", "let () = ignore (Util.only_tested ())\n");
      ]
  in
  let f = find_rule "R11" findings in
  check_str "at the binding" "lib/util/util_fx.ml" f.Lint.Finding.file;
  check_bool "names it" true (contains ~sub:"Util.only_tested" f.Lint.Finding.message)

let test_r11_root_reach_passes () =
  check "reached directly" 0
    (r11
       [
         r11_lib;
         ( "Main",
           "bin/main_fx.ml",
           "let () = ignore (Util.used ())\nlet () = ignore (Util.only_tested ())\n" );
       ]);
  check "reached through let module" 0
    (r11
       [
         r11_lib;
         ( "Main",
           "bin/main_fx.ml",
           "let () =\n  let module U = Util in\n  ignore (U.used () + U.only_tested ())\n" );
       ]);
  check "reached through a top-level alias" 0
    (r11
       [
         r11_lib;
         ( "Main",
           "examples/main_fx.ml",
           "module U = Util\nlet () = ignore (U.used () + U.only_tested ())\n" );
       ])

let test_r11_binding_operator_is_an_edge () =
  check "let* reaches its operator" 0
    (r11
       [
         ("Opt", "lib/util/opt_fx.ml", "let ( let* ) x f = Option.bind x f\n");
         ("Main", "bin/main_fx.ml", "let () = ignore (Opt.(let* y = Some 1 in Some (y + 1)))\n");
       ])

let test_r11_for_testing_exempt () =
  check "For_testing is the test home" 0
    (r11
       [
         ("Util", "lib/util/util_fx.ml", "module For_testing = struct\n  let oracle x = x + 1\nend\n");
         ("Test_util", "test/test_util_fx.ml", "let () = ignore (Util.For_testing.oracle 1)\n");
       ])

let test_r11_init_never_reported () =
  check "module initialisers have no caller" 0
    (r11 [ ("Util", "lib/util/util_fx.ml", "let () = print_string \"\"\nlet _ = 1 + 1\n") ])

let test_typed_analyze_deterministic () =
  let run () =
    analyze_units
      [
        ("Launder", "lib/workload/launder.ml", "let fresh n = Stdlib.Random.int n\n");
        ("Party", "lib/core/party.ml", "let run () = Launder.fresh 10\n");
        ("Splitmix", "lib/prng/splitmix.ml", r9_splitmix);
      ]
    |> List.map Lint.Finding.to_line
    |> String.concat "\n"
  in
  check_str "byte-identical fixture analyses" (run ()) (run ())

(* --- the repository itself ------------------------------------------- *)

(* Tests run from _build/default/test; the tree above it carries every
   source file (declared via source_tree deps in test/dune). *)
let repo_root = ".."

let test_repo_lints_clean () =
  match Lint.Driver.run ~root:repo_root () with
  | Error e -> Alcotest.fail e
  | Ok { Lint.Driver.files; typed_modules; findings } ->
      check_bool "scanned a real tree" true (files > 100);
      check_bool "typed pass loaded the tree" true (typed_modules > 80);
      check_str "no findings"
        ""
        (String.concat "\n" (List.map Lint.Finding.to_line findings))

let test_repo_report_deterministic () =
  let render () =
    match Lint.Driver.run ~root:repo_root () with
    | Error e -> Alcotest.fail e
    | Ok { Lint.Driver.files; typed_modules; findings } ->
        Stats.Json.to_string (Lint.Finding.report_json ~files ~typed_modules findings)
  in
  check_str "byte-identical consecutive runs" (render ()) (render ())

let test_phase_registry_is_sorted_and_unique () =
  let all = Obsv.Phases.all in
  check_bool "sorted" true (List.sort String.compare all = all);
  check "unique" (List.length all) (List.length (List.sort_uniq String.compare all));
  check_bool "unattributed registered" true (Obsv.Phases.mem Obsv.Phases.unattributed)

let () =
  Alcotest.run "lint"
    [
      ( "R1 determinism",
        [
          Alcotest.test_case "flags ambient randomness" `Quick test_r1_flags_ambient_randomness;
          Alcotest.test_case "open Random" `Quick test_r1_open_random;
          Alcotest.test_case "Stdlib qualifier" `Quick test_r1_stdlib_qualifier_is_stripped;
          Alcotest.test_case "exempt in lib/prng" `Quick test_r1_exempt_in_prng;
          Alcotest.test_case "conforming" `Quick test_r1_conforming;
        ] );
      ( "R2 ambient state",
        [
          Alcotest.test_case "flags top-level mutable" `Quick test_r2_flags_toplevel_mutable;
          Alcotest.test_case "function-local passes" `Quick test_r2_function_local_state_passes;
          Alcotest.test_case "exempt in lib/obsv" `Quick test_r2_exempt_in_obsv;
        ] );
      ( "R3 phase registry",
        [
          Alcotest.test_case "unregistered literal" `Quick test_r3_flags_unregistered_span_literal;
          Alcotest.test_case "registered literal" `Quick test_r3_registered_literal_passes;
          Alcotest.test_case "Phases constant" `Quick test_r3_constant_passes;
          Alcotest.test_case "custom registry" `Quick test_r3_custom_registry;
        ] );
      ( "R4 domain hygiene",
        [
          Alcotest.test_case "flags outside engine" `Quick test_r4_flags_domain_outside_engine;
          Alcotest.test_case "exempt in engine/obsv" `Quick test_r4_exempt_in_engine_and_obsv;
          Alcotest.test_case "benign Domain reads" `Quick test_r4_join_alone_passes;
        ] );
      ( "R5 interfaces",
        [ Alcotest.test_case "missing .mli" `Quick test_r5_missing_mli ] );
      ( "R6 flight recorder",
        [
          Alcotest.test_case "flags writes outside session" `Quick
            test_r6_flags_event_outside_session;
          Alcotest.test_case "exempt in session/obsv" `Quick test_r6_exempt_in_session_and_obsv;
          Alcotest.test_case "reads pass" `Quick test_r6_reads_pass;
        ] );
      ( "syntax",
        [ Alcotest.test_case "parse errors are findings" `Quick test_syntax_error_is_a_finding ] );
      ( "allowlist",
        [
          Alcotest.test_case "parse and match" `Quick test_allow_parse_and_match;
          Alcotest.test_case "unknown rule rejected" `Quick test_allow_rejects_unknown_rule;
          Alcotest.test_case "typed rules known" `Quick test_allow_knows_typed_rules;
        ] );
      ( "R7 determinism taint",
        [
          Alcotest.test_case "laundered randomness" `Quick test_r7_flags_laundered_randomness;
          Alcotest.test_case "transitive chain" `Quick test_r7_transitive_chain;
          Alcotest.test_case "monotonic clock" `Quick test_r7_flags_monotonic_clock;
          Alcotest.test_case "sanctioned in lib/prng" `Quick test_r7_sanctioned_prng_passes;
          Alcotest.test_case "through module alias" `Quick test_r7_through_module_alias;
          Alcotest.test_case "through let module" `Quick test_r7_through_let_module;
          Alcotest.test_case "direct use is R1's" `Quick test_r7_leaves_direct_use_to_r1;
          Alcotest.test_case "unreachable helper" `Quick test_r7_unreachable_helper_passes;
        ] );
      ( "R8 metered transport",
        [
          Alcotest.test_case "unattributed send" `Quick test_r8_flags_unattributed_send;
          Alcotest.test_case "field projection" `Quick test_r8_flags_field_projection;
          Alcotest.test_case "span in binding" `Quick test_r8_span_in_binding_passes;
          Alcotest.test_case "span in caller" `Quick test_r8_span_in_caller_passes;
          Alcotest.test_case "plumbing exempt" `Quick test_r8_exempt_plumbing_passes;
        ] );
      ( "R9 cross-domain escape",
        [
          Alcotest.test_case "Splitmix scratch record" `Quick
            test_r9_flags_splitmix_scratch_record;
          Alcotest.test_case "per-call allocation" `Quick test_r9_per_call_allocation_passes;
          Alcotest.test_case "spawn capture" `Quick test_r9_flags_spawn_capture;
          Alcotest.test_case "Atomic capture" `Quick test_r9_atomic_capture_passes;
          Alcotest.test_case "engine exempt" `Quick test_r9_engine_capture_exempt;
        ] );
      ( "R10 dead phases",
        [
          Alcotest.test_case "dead phase" `Quick test_r10_flags_dead_phase;
          Alcotest.test_case "internal refs don't count" `Quick
            test_r10_registry_internal_refs_do_not_count;
        ] );
      ( "R11 reachability",
        [
          Alcotest.test_case "test-only binding" `Quick test_r11_flags_test_only_binding;
          Alcotest.test_case "reached from a root" `Quick test_r11_root_reach_passes;
          Alcotest.test_case "binding operator edge" `Quick test_r11_binding_operator_is_an_edge;
          Alcotest.test_case "For_testing exempt" `Quick test_r11_for_testing_exempt;
          Alcotest.test_case "init never reported" `Quick test_r11_init_never_reported;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden json" `Quick test_golden_json_report;
          Alcotest.test_case "golden sarif" `Quick test_golden_sarif_report;
          Alcotest.test_case "typed analysis deterministic" `Quick
            test_typed_analyze_deterministic;
          Alcotest.test_case "repo lints clean" `Quick test_repo_lints_clean;
          Alcotest.test_case "deterministic report" `Quick test_repo_report_deterministic;
          Alcotest.test_case "phase registry sorted" `Quick test_phase_registry_is_sorted_and_unique;
        ] );
    ]
