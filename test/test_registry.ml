(* The experiment registry (Workload.Registry): frontmatter round-trip,
   id-discipline rejection, dangling-artifact / unknown-key / stale-command
   detection over in-memory envs, Superseded exemptions, regen planning,
   and the committed experiments.json as a golden, byte-stable export. *)

module R = Workload.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let entry_doc =
  "---\n\
   id: 1\n\
   title: Fixture entry\n\
   status: Complete\n\
   anchor: Theorem 3.1\n\
   roadmap: seed\n\
   index: T1\n\
   hypothesis: The fixture parses.\n\
   reproduce: dune exec bench/main.exe -- --only T1\n\
   smoke: dune exec bench/main.exe -- --quick\n\
   regen: diff\n\
   ---\n\n\
   Body text.\n"

let parse_exn ~file contents =
  match R.parse ~file contents with
  | Ok e -> e
  | Error msg -> Alcotest.failf "parse %s: %s" file msg

let fixture = parse_exn ~file:"experiments/001-fixture.md" entry_doc

(* An env over assoc-list files: paths with no '/' are root files. *)
let env_of files =
  {
    R.read_file = (fun path -> List.assoc_opt path files);
    list_root =
      (fun () ->
        List.filter_map
          (fun (path, _) -> if String.contains path '/' then None else Some path)
          files);
  }

(* The minimal coherent surroundings for a one-entry registry. *)
let base_files =
  [
    ("bench/main.ml", "");
    ("EXPERIMENTS.md", "see experiments/001-fixture.md\n");
    ("README.md", "experiments/ holds the registry\n");
  ]

let cli_subcommands = [ "conform"; "experiments"; "profile"; "sweep" ]

let verify ?(files = base_files) registry =
  R.verify ~env:(env_of files) ~cli_subcommands registry

let registry_of sources =
  let registry, violations = R.of_sources sources in
  check_int "no parse violations" 0 (List.length violations);
  registry

let whats violations = List.map (fun (v : R.violation) -> v.R.what) violations

let has_violation ~substring violations =
  List.exists
    (fun what ->
      let n = String.length substring in
      let rec scan i =
        i + n <= String.length what && (String.sub what i n = substring || scan (i + 1))
      in
      scan 0)
    (whats violations)

(* ---------- parsing ---------- *)

let test_roundtrip () =
  let e = fixture in
  check_int "id" 1 e.R.id;
  check_string "slug" "fixture" e.R.slug;
  check_string "title" "Fixture entry" e.R.title;
  check_bool "status" true (e.R.status = R.Complete);
  check_bool "regen" true (e.R.regen = R.Diff);
  check_string "body" "\nBody text.\n" e.R.body;
  (* Canonical rendering re-parses to the same entry. *)
  let again = parse_exn ~file:e.R.file (R.front_matter_of e ^ e.R.body) in
  check_bool "round-trips" true (again = e)

let expect_error ~file ~needle contents =
  match R.parse ~file contents with
  | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" needle
  | Error msg ->
      check_bool (Printf.sprintf "error %S mentions %S" msg needle) true
        (has_violation ~substring:needle [ { R.file = None; what = msg } ])

let test_parse_rejections () =
  let drop_line key =
    String.split_on_char '\n' entry_doc
    |> List.filter (fun l -> not (String.starts_with ~prefix:(key ^ ":") l))
    |> String.concat "\n"
  in
  expect_error ~file:"experiments/001-fixture.md" ~needle:"missing required frontmatter key"
    (drop_line "hypothesis");
  expect_error ~file:"experiments/001-fixture.md" ~needle:"unknown frontmatter key"
    (String.concat "\n" [ "---"; "bogus: x"; "---" ]);
  expect_error ~file:"experiments/001-fixture.md" ~needle:"duplicate frontmatter key"
    (let lines = String.split_on_char '\n' entry_doc in
     String.concat "\n" (List.hd lines :: "id: 2" :: List.tl lines));
  let swap_line key replacement =
    String.split_on_char '\n' entry_doc
    |> List.map (fun l -> if String.starts_with ~prefix:(key ^ ":") l then replacement else l)
    |> String.concat "\n"
  in
  expect_error ~file:"experiments/001-fixture.md" ~needle:"not a positive integer"
    (swap_line "id" "id: zero");
  expect_error ~file:"experiments/001-fixture.md" ~needle:"unknown status"
    (swap_line "status" "status: Done");
  expect_error ~file:"experiments/fixture.md" ~needle:"NNN-slug.md" entry_doc;
  expect_error ~file:"experiments/001-Fixture.md" ~needle:"NNN-slug.md" entry_doc;
  expect_error ~file:"experiments/001-fixture.md" ~needle:"missing frontmatter" "Body only.\n"

(* ---------- id discipline ---------- *)

let renumber id =
  let e = { fixture with R.id; file = Printf.sprintf "experiments/%03d-fixture.md" id } in
  (e.R.file, R.front_matter_of e ^ e.R.body)

let test_duplicate_id () =
  let registry, violations =
    R.of_sources [ renumber 1; ("experiments/001-other.md", entry_doc) ]
  in
  check_int "both parsed" 2 (List.length registry.R.entries);
  check_int "no parse violations" 0 (List.length violations);
  check_bool "duplicate id breaks density" true
    (has_violation ~substring:"dense" (verify registry))

let test_missing_id () =
  let files =
    base_files
    @ [ ("EXPERIMENTS.md", "experiments/001-fixture.md experiments/003-fixture.md\n") ]
  in
  let registry = registry_of [ renumber 1; renumber 3 ] in
  check_bool "gap breaks density" true (has_violation ~substring:"dense" (verify ~files registry))

let test_filename_mismatch () =
  let registry = registry_of [ ("experiments/002-fixture.md", entry_doc) ] in
  (* id 1 in a 002- file: the file name contradicts the id. *)
  check_bool "mismatch reported" true
    (has_violation ~substring:"does not match id" (verify registry))

(* ---------- artifacts ---------- *)

let with_artifact ?(status = "Complete") ?(keys = "total") ?json_check () =
  let doc =
    String.concat ""
      [
        "---\nid: 1\ntitle: A\nstatus: ";
        status;
        "\nanchor: Theorem 3.1\nroadmap: seed\nhypothesis: H.\n";
        "reproduce: dune exec bench/main.exe -- --only T1\n";
        "smoke: dune exec bench/main.exe -- --quick\nregen: gate\n";
        "artifact: BENCH_fixture.json\nartifact_keys: ";
        keys;
        "\n";
        (match json_check with None -> "" | Some m -> "json_check: " ^ m ^ "\n");
        "---\nBody.\n";
      ]
  in
  registry_of [ ("experiments/001-fixture.md", doc) ]

let artifact_files = ("BENCH_fixture.json", "{\"total\": 7}\n") :: base_files

let test_dangling_artifact () =
  check_bool "missing artifact reported" true
    (has_violation ~substring:"does not exist" (verify (with_artifact ())))

let test_artifact_keys () =
  let ok = verify ~files:artifact_files (with_artifact ()) in
  check_int "declared key accepted" 0 (List.length ok);
  check_bool "unknown key reported" true
    (has_violation ~substring:"lacks declared key"
       (verify ~files:artifact_files (with_artifact ~keys:"total, nonesuch" ())))

let test_artifact_schema_mode () =
  check_bool "non-bench mode rejected" true
    (has_violation ~substring:"not a bench schema"
       (verify ~files:artifact_files (with_artifact ~json_check:"lint-report" ())));
  check_bool "failing schema reported" true
    (has_violation ~substring:"fails json_check"
       (verify ~files:artifact_files (with_artifact ~json_check:"bench-chaos" ())))

let test_artifact_provenance () =
  let with_reproduce command =
    ("BENCH_fixture.json", Printf.sprintf "{\"total\": 7, \"reproduce\": %S}\n" command)
    :: base_files
  in
  check_bool "vanished executable in the artifact's reproduce reported" true
    (has_violation ~substring:"BENCH_fixture.json reproduce command names bench/vanished.exe"
       (verify ~files:(with_reproduce "dune exec bench/vanished.exe -- --seed 1") (with_artifact ())));
  check_int "live reproduce accepted" 0
    (List.length
       (verify ~files:(with_reproduce "dune exec bench/main.exe -- --quick") (with_artifact ())))

let test_unclaimed_bench () =
  let registry = registry_of [ (fixture.R.file, entry_doc) ] in
  check_bool "unclaimed BENCH reported" true
    (has_violation ~substring:"claimed by no live"
       (verify ~files:(("BENCH_orphan.json", "{}") :: base_files) registry))

(* ---------- commands and cross-links ---------- *)

let test_stale_command () =
  let doc =
    String.concat "\n"
      [
        "---";
        "id: 1";
        "title: Stale";
        "status: Complete";
        "anchor: Theorem 3.1";
        "roadmap: seed";
        "hypothesis: H.";
        "reproduce: dune exec bench/vanished.exe -- --flag";
        "smoke: dune exec bin/intersect_cli.exe -- goneaway --smoke";
        "regen: gate";
        "---";
        "Body.";
      ]
  in
  let violations = verify (registry_of [ ("experiments/001-fixture.md", doc) ]) in
  check_bool "vanished target reported" true
    (has_violation ~substring:"bench/vanished.ml does not exist" violations);
  check_bool "stale subcommand reported" true
    (has_violation ~substring:"stale intersect_cli subcommand" violations)

let test_broken_crosslink () =
  let registry = registry_of [ (fixture.R.file, entry_doc) ] in
  let files = [ ("bench/main.ml", ""); ("EXPERIMENTS.md", "no links here\n"); ("README.md", "x") ] in
  let violations = verify ~files registry in
  check_bool "unlisted entry reported" true
    (has_violation ~substring:"not referenced by the EXPERIMENTS.md index" violations);
  check_bool "README miss reported" true
    (has_violation ~substring:"README.md never points" violations);
  let files =
    [
      ("bench/main.ml", "");
      ("EXPERIMENTS.md", "experiments/001-fixture.md and experiments/099-ghost.md\n");
      ("README.md", "experiments/");
    ]
  in
  check_bool "dangling index link reported" true
    (has_violation ~substring:"references missing experiments/099-ghost.md" (verify ~files registry))

(* ---------- lifecycle ---------- *)

let test_superseded_exempt () =
  let doc =
    String.concat ""
      [
        "---\nid: 1\ntitle: Old\nstatus: Superseded\nanchor: Theorem 3.1\nroadmap: seed\n";
        "hypothesis: H.\nreproduce: dune exec bench/vanished.exe -- --flag\n";
        "artifact: BENCH_ghost.json\nartifact_keys: total\n---\nReplaced by 002.\n";
      ]
  in
  let registry = registry_of [ ("experiments/001-fixture.md", doc) ] in
  check_int "superseded entries skip command/artifact/regen checks" 0
    (List.length (verify registry));
  check_int "superseded entries are not regenerated" 0 (List.length (R.regen_plan registry))

let test_complete_needs_smoke () =
  let doc smoke_or_none =
    String.concat ""
      [
        "---\nid: 1\ntitle: C\nstatus: Complete\nanchor: Theorem 3.1\nroadmap: seed\n";
        "hypothesis: H.\nreproduce: dune exec bench/main.exe -- --only T1\n";
        smoke_or_none;
        "---\nBody.\n";
      ]
  in
  check_bool "no smoke reported" true
    (has_violation ~substring:"no smoke command"
       (verify (registry_of [ ("experiments/001-fixture.md", doc "") ])));
  check_int "regen none opts out" 0
    (List.length (verify (registry_of [ ("experiments/001-fixture.md", doc "regen: none\n") ])))

let test_regen_plan_dedup () =
  let entries =
    List.map
      (fun id ->
        let e =
          {
            fixture with
            R.id;
            file = Printf.sprintf "experiments/%03d-fixture.md" id;
            smoke =
              (if id = 3 then Some "dune exec bench/other.exe -- --smoke"
               else fixture.R.smoke);
          }
        in
        (e.R.file, R.front_matter_of e ^ e.R.body))
      [ 1; 2; 3 ]
  in
  match R.regen_plan (registry_of entries) with
  | [ (shared, R.Diff, [ 1; 2 ]); (other, R.Diff, [ 3 ]) ] ->
      check_string "shared command" (Option.get fixture.R.smoke) shared;
      check_string "distinct command" "dune exec bench/other.exe -- --smoke" other
  | plan -> Alcotest.failf "unexpected plan of %d group(s)" (List.length plan)

(* ---------- artifact schemas ---------- *)

let accepts mode input = Workload.Schemas.check ~mode input = Ok ()

(* A BENCH_hotpath.json cell in the shape Regress writes; [drop] omits a
   field and [set] overrides one. *)
let hotpath_cell ?drop ?(set = []) ~k () =
  let fields =
    [
      ("protocol", "\"bucket\"");
      ("k", string_of_int k);
      ("trials", "3");
      ("alloc_bytes_per_run", "90733.3");
      ("total_bits", "4360");
      ("messages", "242");
      ("rounds", "242");
    ]
  in
  fields
  |> List.filter (fun (name, _) -> Some name <> drop)
  |> List.map (fun (name, v) ->
         Printf.sprintf "%S: %s" name (Option.value (List.assoc_opt name set) ~default:v))
  |> String.concat ", " |> Printf.sprintf "{%s}"

let hotpath_doc cells =
  Printf.sprintf "{\"bench\": \"hotpath\", \"seed\": 2014, \"cells\": [%s]}"
    (String.concat ", " cells)

let test_bench_hotpath_schema () =
  let ok = hotpath_cell ~k:64 () in
  check_bool "alloc-only cells accepted" true
    (accepts "bench-hotpath" (hotpath_doc [ ok; hotpath_cell ~k:1024 () ]));
  check_bool "missing alloc_bytes_per_run rejected" false
    (accepts "bench-hotpath" (hotpath_doc [ hotpath_cell ~drop:"alloc_bytes_per_run" ~k:64 () ]));
  List.iter
    (fun name ->
      check_bool ("non-positive " ^ name ^ " rejected") false
        (accepts "bench-hotpath" (hotpath_doc [ hotpath_cell ~set:[ (name, "0") ] ~k:64 () ])))
    [ "total_bits"; "messages"; "rounds" ];
  check_bool "repeated k rejected" false (accepts "bench-hotpath" (hotpath_doc [ ok; ok ]));
  check_bool "decreasing k rejected" false
    (accepts "bench-hotpath" (hotpath_doc [ hotpath_cell ~k:1024 (); ok ]))

(* bench-regress --baseline: every field of every run cell must render
   exactly as the committed file's, through a text round trip. *)
let test_hotpath_baseline_exact () =
  let module Rg = Workload.Regress in
  let cell protocol k alloc =
    {
      Rg.protocol;
      k;
      trials = 3;
      alloc_bytes_per_run = alloc;
      total_bits = 126911;
      messages = 42;
      rounds = 42;
    }
  in
  let report cells = { Rg.seed = 2014; universe_bits = 20; trials = 3; ks = [ 64; 1024 ]; cells } in
  let committed = report [ cell "bucket" 64 10288.0; cell "bucket" 1024 (144179.0 /. 3.0) ] in
  let baseline =
    match Stats.Json.of_string (Stats.Json.to_string_pretty (Rg.to_json committed)) with
    | Ok json -> json
    | Error e -> Alcotest.fail e
  in
  let violations r = Rg.baseline_violations r baseline in
  let one_naming what r =
    match violations r with
    | [ v ] ->
        List.iter
          (fun needle ->
            if not (has_violation ~substring:needle [ { R.file = None; what = v } ]) then
              Alcotest.failf "%s: %S does not name %S" what v needle)
          [ "bucket k=1024"; what ]
    | vs -> Alcotest.failf "%s: %d violations, expected 1" what (List.length vs)
  in
  check_int "identical report" 0 (List.length (violations committed));
  check_int "smoke slice" 0 (List.length (violations (report [ cell "bucket" 64 10288.0 ])));
  one_naming "alloc_bytes_per_run" (report [ cell "bucket" 1024 (144180.0 /. 3.0) ]);
  one_naming "total_bits"
    (report [ { (cell "bucket" 1024 (144179.0 /. 3.0)) with total_bits = 126912 } ]);
  check_int "cell missing from the baseline" 1
    (List.length (violations (report [ cell "bucket" 4096 1.0 ])));
  check_int "run with no cell" 1 (List.length (violations (report [])));
  List.iter
    (fun text ->
      match Stats.Json.of_string text with
      | Error e -> Alcotest.fail e
      | Ok json ->
          if Rg.baseline_violations committed json = [] then
            Alcotest.failf "malformed baseline %s accepted" text)
    [ "\"x\""; "{\"cells\": 3}"; "{\"cells\": [{\"k\": 64}]}"; "{\"cells\": [{\"protocol\": \"bucket\", \"k\": 64}]}" ]

let telemetry_doc ?(on_bits = 1015352) ?(ratio = 1.095) ?(matched = true) () =
  Printf.sprintf
    "{\"bench\": \"telemetry\", \"config\": {\"seed\": 2014, \"k\": 1024, \
     \"universe_bits\": 16, \"sessions\": 24}, \"pairs\": 8, \
     \"off\": {\"ns_per_session\": 1565813.8, \"spent_bits\": 1015352, \"completed\": 24}, \
     \"on\": {\"ns_per_session\": 1711719.3, \"spent_bits\": %d, \"completed\": 24}, \
     \"ratio\": %g, \"deterministic_match\": %b}"
    on_bits ratio matched

let test_bench_telemetry_schema () =
  check_bool "well-formed report accepted" true (accepts "bench-telemetry" (telemetry_doc ()));
  check_bool "deterministic_match false rejected" false
    (accepts "bench-telemetry" (telemetry_doc ~matched:false ()));
  check_bool "off/on spent_bits disagreement rejected" false
    (accepts "bench-telemetry" (telemetry_doc ~on_bits:1015353 ()));
  check_bool "ratio above 1.25 rejected" false
    (accepts "bench-telemetry" (telemetry_doc ~ratio:1.26 ()))

(* [check] parses once for every mode, so a document that is not JSON
   fails the same way whichever mode reads it. *)
let test_unparseable_every_mode () =
  List.iter
    (fun mode ->
      match Workload.Schemas.check ~mode {|{"bench": "chaos",}|} with
      | Ok () -> Alcotest.failf "%s accepted an unparseable document" mode
      | Error msg ->
          check_bool
            (Printf.sprintf "%s: %S names the parse failure" mode msg)
            true
            (String.starts_with ~prefix:(mode ^ " schema: unparseable") msg))
    Workload.Schemas.modes

(* [check_json] on the parsed document is [check] on its text, error
   strings included: every committed BENCH artifact under every mode (its
   own and the mismatched ones) and an unknown mode. *)
let test_check_json_agrees () =
  let artifacts =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  in
  check_bool "committed BENCH artifacts found" true (artifacts <> []);
  List.iter
    (fun file ->
      let contents = In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all in
      let doc =
        match Stats.Json.of_string contents with
        | Ok doc -> doc
        | Error msg -> Alcotest.failf "%s: %s" file msg
      in
      List.iter
        (fun mode ->
          let text = Workload.Schemas.check ~mode contents in
          if Workload.Schemas.check_json ~mode doc <> text then
            Alcotest.failf "%s --%s: check_json disagrees with check (%s)" file mode
              (match text with Ok () -> "ok" | Error msg -> msg))
        ("no-such-mode" :: Workload.Schemas.modes))
    artifacts

(* ---------- the real repository ---------- *)

let repo_cli_subcommands =
  [
    "bench-regress"; "chaos"; "conform"; "disj"; "experiments"; "health"; "profile"; "similarity";
    "soak"; "sweep"; "telemetry-overhead"; "top"; "trace";
  ]

let load_repo () =
  let registry, violations = R.load ~root:".." in
  check_int "repo parses clean" 0 (List.length violations);
  registry

(* What the entry files under experiments/ say, read without the
   registry: how many there are and how many carry each status line. *)
let files_census () =
  let entry name =
    String.length name > 4
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 0 3)
    && name.[3] = '-'
    && Filename.check_suffix name ".md"
  in
  let statuses =
    List.map
      (fun name ->
        let lines =
          String.split_on_char '\n'
            (In_channel.with_open_bin (Filename.concat "../experiments" name) In_channel.input_all)
        in
        List.find (String.starts_with ~prefix:"status: ") lines)
      (List.filter entry (Array.to_list (Sys.readdir "../experiments")))
  in
  let count status = List.length (List.filter (String.equal ("status: " ^ status)) statuses) in
  (List.length statuses, count "Complete", count "Superseded")

let test_repo_verifies () =
  let registry = load_repo () in
  let entries, complete_files, superseded_files = files_census () in
  check_bool "some entries" true (entries > 0);
  check_int "entries = entry files" entries (List.length registry.R.entries);
  let _, _, complete, superseded = R.census registry in
  check_int "complete = Complete status lines" complete_files complete;
  check_int "superseded = Superseded status lines" superseded_files superseded;
  let violations =
    R.verify ~env:(R.repo_env ~root:"..") ~cli_subcommands:repo_cli_subcommands registry
  in
  List.iter (fun (v : R.violation) -> Printf.eprintf "violation: %s\n" v.R.what) violations;
  check_int "repo verifies clean" 0 (List.length violations)

let test_golden_export () =
  let registry = load_repo () in
  let committed = In_channel.with_open_bin "../experiments.json" In_channel.input_all in
  check_string "export matches committed experiments.json" committed (R.export registry);
  (* Export is a pure function: two loads produce identical bytes. *)
  check_string "two-run byte identity" (R.export (load_repo ())) (R.export registry);
  check_bool "export passes its schema mode" true
    (Workload.Schemas.check ~mode:"experiments" (R.export registry) = Ok ())

let () =
  Alcotest.run "registry"
    [
      ( "parse",
        [
          Alcotest.test_case "frontmatter round-trip" `Quick test_roundtrip;
          Alcotest.test_case "rejections" `Quick test_parse_rejections;
        ] );
      ( "ids",
        [
          Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
          Alcotest.test_case "missing id" `Quick test_missing_id;
          Alcotest.test_case "filename mismatch" `Quick test_filename_mismatch;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "dangling artifact" `Quick test_dangling_artifact;
          Alcotest.test_case "artifact keys" `Quick test_artifact_keys;
          Alcotest.test_case "schema modes" `Quick test_artifact_schema_mode;
          Alcotest.test_case "artifact provenance" `Quick test_artifact_provenance;
          Alcotest.test_case "unclaimed BENCH" `Quick test_unclaimed_bench;
        ] );
      ( "schemas",
        [
          Alcotest.test_case "bench-hotpath" `Quick test_bench_hotpath_schema;
          Alcotest.test_case "hotpath baseline exact" `Quick test_hotpath_baseline_exact;
          Alcotest.test_case "bench-telemetry" `Quick test_bench_telemetry_schema;
          Alcotest.test_case "unparseable in every mode" `Quick test_unparseable_every_mode;
          Alcotest.test_case "check_json = check on artifacts" `Quick test_check_json_agrees;
        ] );
      ( "commands",
        [
          Alcotest.test_case "stale command" `Quick test_stale_command;
          Alcotest.test_case "broken cross-link" `Quick test_broken_crosslink;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "superseded exempt" `Quick test_superseded_exempt;
          Alcotest.test_case "complete needs smoke" `Quick test_complete_needs_smoke;
          Alcotest.test_case "regen plan dedup" `Quick test_regen_plan_dedup;
        ] );
      ( "repo",
        [
          Alcotest.test_case "verifies clean" `Quick test_repo_verifies;
          Alcotest.test_case "golden export" `Quick test_golden_export;
        ] );
    ]
