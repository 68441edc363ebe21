(* Hot-path regression bench: seeded end-to-end runs of every registered
   two-party protocol, measuring allocation pressure (bytes allocated per
   run, read through one Obsv.Window) and the exact deterministic
   communication fields (bits, messages, rounds).  Wall-clock time is
   perf/'s to measure (`bash perf/run.sh`); this bench reports none.

   The deterministic fields are the contract: a perf PR may change
   bytes/run, but bits/messages/rounds must stay byte-identical for a
   fixed seed (pooling and codec caching must not perturb transcripts).
   Comparison against a committed BENCH_hotpath.json baseline enforces
   both halves: exact equality on the deterministic fields, a configurable
   tolerance on the allocation bytes. *)

open Intersect

type cell = {
  protocol : string;
  k : int;
  trials : int;
  alloc_bytes_per_run : float;
  total_bits : int;  (** summed over the seeded trials — deterministic *)
  messages : int;  (** summed over the seeded trials — deterministic *)
  rounds : int;  (** summed over the seeded trials — deterministic *)
}

type report = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  cells : cell list;
}

type config = {
  seed : int;
  universe_bits : int;
  trials : int;
  ks : int list;
  protocols : string list;
}

(* The registered suite: every two-party Protocol.t family the CLI can
   name, each at its default parameterization.  (resilient/star/tournament
   run outside the Protocol.t interface and have their own harnesses:
   Workload.Soak and the multiparty benches.) *)
let protocol_names =
  [
    "trivial";
    "trivial-entropy";
    "full-exchange";
    "one-round";
    "basic";
    "bucket";
    "tree-r2";
    "tree-r3";
    "tree-log-star";
    "verified-tree";
  ]

let protocol_of ~name ~k =
  match name with
  | "trivial" -> Trivial.protocol
  | "trivial-entropy" -> Trivial.protocol_entropy
  | "full-exchange" -> Trivial.protocol_full_exchange
  | "one-round" -> One_round_hash.protocol ()
  | "basic" -> Basic_intersection.protocol ~failure:1e-3
  | "bucket" -> Bucket_protocol.protocol ~k ()
  | "tree-r2" -> Tree_protocol.protocol ~r:2 ~k ()
  | "tree-r3" -> Tree_protocol.protocol ~r:3 ~k ()
  | "tree-log-star" -> Tree_protocol.protocol_log_star ~k ()
  | "verified-tree" -> Verified.protocol (Tree_protocol.protocol_log_star ~k ())
  | name -> invalid_arg ("Regress: unknown protocol " ^ name ^ " (known: " ^ String.concat ", " protocol_names ^ ")")

(* The enumerative codec's bignum decode is super-linear in k (the
   combinatorial-number-system unranking), so its cells stay small; every
   other protocol runs the full sweep. *)
let k_cap ~name = match name with "trivial-entropy" -> 256 | _ -> max_int

let default =
  { seed = 2014; universe_bits = 20; trials = 3; ks = [ 64; 1024; 4096 ]; protocols = protocol_names }

let smoke = { default with ks = [ 64 ] }

let run_cell ~seed ~universe_bits ~trials ~name ~k =
  let universe = 1 lsl universe_bits in
  let protocol = protocol_of ~name ~k in
  let stream =
    Engine.Seed_stream.create ~base:seed ~label:(Printf.sprintf "regress/%s/k%d" name k)
  in
  let pairs =
    Array.init trials (fun i ->
        let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
        Setgen.pair_with_overlap
          (Prng.Rng.with_label rng "workload")
          ~universe ~size_s:k ~size_t:k ~overlap:(k / 2))
  in
  let run_trial i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair = pairs.(i) in
    protocol.Protocol.run
      (Prng.Rng.with_label rng "run")
      ~universe pair.Setgen.s pair.Setgen.t
  in
  (* Deterministic pass: exact cost fields, summed across trials. *)
  let total_bits = ref 0 and messages = ref 0 and rounds = ref 0 in
  for i = 0 to trials - 1 do
    let outcome = run_trial i in
    total_bits := !total_bits + outcome.Protocol.cost.Commsim.Cost.total_bits;
    messages := !messages + outcome.Protocol.cost.Commsim.Cost.messages;
    rounds := !rounds + outcome.Protocol.cost.Commsim.Cost.rounds
  done;
  (* Allocation pass: one sweep over the same trials.  The deterministic
     pass above doubles as warm-up (codec caches hot, buffers pooled). *)
  let (), w =
    Obsv.Window.measure (fun () ->
        for i = 0 to trials - 1 do
          ignore (run_trial i)
        done)
  in
  {
    protocol = name;
    k;
    trials;
    alloc_bytes_per_run = float_of_int w.alloc_bytes /. float_of_int trials;
    total_bits = !total_bits;
    messages = !messages;
    rounds = !rounds;
  }

let run (config : config) : report =
  Campaign.validate ~trials:config.trials ~ks:config.ks ();
  let cells =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun k ->
            if k > k_cap ~name then None
            else
              Some
                (run_cell ~seed:config.seed ~universe_bits:config.universe_bits
                   ~trials:config.trials ~name ~k))
          config.ks)
      config.protocols
  in
  {
    seed = config.seed;
    universe_bits = config.universe_bits;
    trials = config.trials;
    ks = config.ks;
    cells;
  }

let cell_json c =
  Stats.Json.Obj
    [
      ("protocol", Stats.Json.Str c.protocol);
      ("k", Stats.Json.Int c.k);
      ("trials", Stats.Json.Int c.trials);
      ("alloc_bytes_per_run", Stats.Json.Float c.alloc_bytes_per_run);
      ("total_bits", Stats.Json.Int c.total_bits);
      ("messages", Stats.Json.Int c.messages);
      ("rounds", Stats.Json.Int c.rounds);
    ]

let to_json (report : report) =
  Stats.Json.Obj
    [
      ("bench", Stats.Json.Str "hotpath");
      ("seed", Stats.Json.Int report.seed);
      ("universe_bits", Stats.Json.Int report.universe_bits);
      ("trials", Stats.Json.Int report.trials);
      ("ks", Stats.Json.List (List.map (fun k -> Stats.Json.Int k) report.ks));
      ("cells", Stats.Json.List (List.map cell_json report.cells));
    ]

(* Allocation stripped: what two runs of the same config must agree on, byte
   for byte (the tier-1 determinism gate cmps two of these). *)
let deterministic_json (report : report) =
  Stats.Json.Obj
    [
      ("bench", Stats.Json.Str "hotpath-deterministic");
      ("seed", Stats.Json.Int report.seed);
      ("universe_bits", Stats.Json.Int report.universe_bits);
      ("trials", Stats.Json.Int report.trials);
      ( "cells",
        Stats.Json.List
          (List.map
             (fun c ->
               Stats.Json.Obj
                 [
                   ("protocol", Stats.Json.Str c.protocol);
                   ("k", Stats.Json.Int c.k);
                   ("trials", Stats.Json.Int c.trials);
                   ("total_bits", Stats.Json.Int c.total_bits);
                   ("messages", Stats.Json.Int c.messages);
                   ("rounds", Stats.Json.Int c.rounds);
                 ])
             report.cells) );
    ]

let summary (report : report) =
  let table =
    Stats.Table.create ~title:"Hot-path bench (bytes allocated/run, exact bits)"
      ~columns:[ "protocol"; "k"; "alloc B/run"; "bits"; "msgs"; "rounds" ]
  in
  List.iter
    (fun c ->
      Stats.Table.add_row table
        [
          c.protocol;
          string_of_int c.k;
          Stats.Table.cell_float c.alloc_bytes_per_run;
          string_of_int c.total_bits;
          string_of_int c.messages;
          string_of_int c.rounds;
        ])
    report.cells;
  Stats.Table.render table ^ "\n"

(* ---------- baseline comparison ---------- *)

(* Pull the baseline cells out of a parsed BENCH_hotpath.json. *)
let baseline_cells json =
  let open Stats.Json in
  match member "cells" json with
  | Some (List cells) ->
      Ok
        (List.filter_map
           (fun cell ->
             match
               ( Option.bind (member "protocol" cell) to_string_opt,
                 Option.bind (member "k" cell) to_int_opt )
             with
             | Some protocol, Some k -> Some ((protocol, k), cell)
             | _ -> None)
           cells)
  | _ -> Error "baseline: missing cells array"

(* Compare a fresh report against a committed baseline.  Deterministic
   fields (bits, messages, rounds, trials) must match exactly;
   alloc-bytes/run may regress by at most [tolerance] (a fraction: 0.5
   allows 1.5x the baseline).  Cells absent from the baseline are skipped,
   so a smoke run checks only the cells it shares with the committed
   sweep — but a run sharing no cell at all is a violation, not a pass. *)
let baseline_violations ~tolerance (report : report) json =
  match baseline_cells json with
  | Error e -> [ e ]
  | Ok base ->
      let shared =
        List.filter_map
          (fun c -> Option.map (fun b -> (c, b)) (List.assoc_opt (c.protocol, c.k) base))
          report.cells
      in
      let cell_violations (c, bcell) =
        let where = Printf.sprintf "%s k=%d" c.protocol c.k in
        let field name = Stats.Json.member name bcell in
        let int_field name current =
          match Option.bind (field name) Stats.Json.to_int_opt with
          | Some b when b <> current ->
              [ Printf.sprintf "%s: %s baseline %d, current %d" where name b current ]
          | Some _ -> []
          | None -> [ Printf.sprintf "%s: %s missing from the baseline" where name ]
        in
        let alloc =
          let current = c.alloc_bytes_per_run in
          match Option.bind (field "alloc_bytes_per_run") Stats.Json.to_float_opt with
          | Some b when Float.is_finite b && b > 0.0 && current > b *. (1.0 +. tolerance) ->
              [ Printf.sprintf "%s: alloc_bytes_per_run baseline %.0f, current %.0f" where b current ]
          | _ -> []
        in
        List.concat
          [
            int_field "total_bits" c.total_bits;
            int_field "messages" c.messages;
            int_field "rounds" c.rounds;
            int_field "trials" c.trials;
            alloc;
          ]
      in
      if shared = [] then [ "baseline: shares no (protocol, k) cell with this run" ]
      else List.concat_map cell_violations shared
