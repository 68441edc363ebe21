(* Hot-path regression bench: seeded end-to-end runs of every registered
   two-party protocol, plus a guarded bucket attempt, Conform's small-k
   trial pair and a whole session over a faulty link, measuring
   allocation pressure (bytes allocated per run, read through one
   Obsv.Window) and the exact deterministic
   communication fields (bits, messages, rounds).  Wall-clock time is
   perf/'s to measure (`bash perf/run.sh`); this bench reports none.

   A warm sweep allocates the same bytes on every run, so the committed
   BENCH_hotpath.json is the repo's allocation baseline and a run must
   reproduce every field of it exactly.  A perf PR that lowers bytes/run
   regenerates the file; bits/messages/rounds must stay byte-identical
   (pooling and codec caching must not perturb transcripts). *)

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

(* Three cells run a fixed workload at their own k, whatever [ks] says:
   one guarded bucket attempt over session-noisy's link, the small-k trial
   pair Conform and the sweep run, and one whole session over that link. *)
let guarded_attempt = "guarded-attempt"
let conform_smallk = "conform-smallk"
let guarded_session = "guarded-session"

let default =
  {
    seed = 2014;
    universe_bits = 20;
    trials = 3;
    ks = [ 64; 1024; 4096 ];
    protocols = protocol_names @ [ guarded_attempt; conform_smallk; guarded_session ];
  }

let smoke = { default with ks = [ 64 ] }

(* One cell: [exact i] runs trial [i] and returns its (bits, messages,
   rounds); [run i] runs it again inside the allocation window, one warm
   sweep over the trial set.  The exact pass doubles as warm-up (codec
   caches hot, buffers pooled). *)
let measure ~name ~k ~trials ~exact run =
  let total_bits = ref 0 and messages = ref 0 and rounds = ref 0 in
  for i = 0 to trials - 1 do
    let b, m, r = exact i in
    total_bits := !total_bits + b;
    messages := !messages + m;
    rounds := !rounds + r
  done;
  let (), w =
    Obsv.Window.measure (fun () ->
        for i = 0 to trials - 1 do
          run i
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

(* A cell whose trial returns its metered cost. *)
let cost_cell ~name ~k ~trials run_trial =
  let exact i =
    let c = run_trial i in
    (c.Commsim.Cost.total_bits, c.messages, c.rounds)
  in
  measure ~name ~k ~trials ~exact (fun i -> ignore (run_trial i))

let stream_of ~seed ~name ~k =
  Engine.Seed_stream.create ~base:seed ~label:(Printf.sprintf "regress/%s/k%d" name k)

(* A cell's seed stream and its inputs, drawn before the window opens. *)
let stream_and_pairs ~seed ~name ~k ~universe ~trials =
  let stream = stream_of ~seed ~name ~k in
  let pairs =
    Array.init trials (fun i ->
        let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
        Setgen.pair_with_overlap
          (Prng.Rng.with_label rng "workload")
          ~universe ~size_s:k ~size_t:k ~overlap:(k / 2))
  in
  (stream, pairs)

let protocol_cell ~seed ~universe_bits ~trials ~name ~k =
  let universe = 1 lsl universe_bits in
  let protocol = protocol_of ~name ~k in
  let stream, pairs = stream_and_pairs ~seed ~name ~k ~universe ~trials in
  let run_trial i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair = pairs.(i) in
    (protocol.Protocol.run (Prng.Rng.with_label rng "run") ~universe pair.Setgen.s pair.Setgen.t)
      .Protocol.cost
  in
  cost_cell ~name ~k ~trials run_trial

(* session-noisy's link: it flips 1e-5 of the bits and truncates 1e-2 of
   the messages. *)
let noisy_link = { Commsim.Faults.clean_link with flip = 1e-5; trunc = 1e-2 }

let noisy_plan rng =
  let seed = Prng.Rng.bits (Prng.Rng.with_label rng "faults") ~width:30 in
  Commsim.Faults.uniform ~seed noisy_link

(* One guarded bucket attempt (the unit a session retries) at k = 256 over
   universe 2^16 on the noisy link: session-noisy's workload, one attempt
   at a time. *)
let guarded_cell ~seed ~trials =
  let name = guarded_attempt and k = 256 and universe = 1 lsl 16 in
  let base = Resilient.bucket_base ~k () in
  let stream, pairs = stream_and_pairs ~seed ~name ~k ~universe ~trials in
  let run_trial i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair = pairs.(i) in
    let plan = noisy_plan rng in
    let _, cost, _ =
      Resilient.attempt_once base ~plan ~check_bits:k ~attempt:1 (Prng.Rng.with_label rng "run")
        ~universe pair.Setgen.s pair.Setgen.t
    in
    cost
  in
  cost_cell ~name ~k ~trials run_trial

(* One whole bucket session at k = 256 over universe 2^16 on the noisy
   link, with session-noisy's 4 000 000-bit deadline: the retry ladder,
   backoff, checkpoints and fallback around the guarded attempts.  Its
   cost is the session ledger's (attempts plus fallback). *)
let session_cell ~seed ~trials =
  let name = guarded_session and k = 256 and universe_bits = 16 in
  let stream, pairs = stream_and_pairs ~seed ~name ~k ~universe:(1 lsl universe_bits) ~trials in
  let run_trial i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let pair = pairs.(i) in
    let config =
      {
        (Session.Machine.default ~k ~plan:(noisy_plan rng)) with
        seed = Prng.Rng.bits (Prng.Rng.with_label rng "session") ~width:30;
        universe_bits;
        deadline_bits = 4_000_000;
      }
    in
    (Session.Machine.run config ~s:pair.Setgen.s ~t:pair.Setgen.t).Session.Machine.ledger
      .Session.Machine.cost
  in
  cost_cell ~name ~k ~trials run_trial

(* A one-round k = 64 trial plus a tree-r2 k = 16 trial through Conform's
   cached trial path, each drawing its inputs inside the window.  Conform's
   outcome carries bits and rounds only, so the exact pass counts messages
   from the metrics registry's payload sketch (one observation a delivery). *)
let conform_cell ~seed ~universe_bits ~trials =
  let name = conform_smallk and k = 64 in
  let universe = 1 lsl universe_bits and cache = Engine.Instance_cache.create () in
  let one_round = Conform.entry_of_name "one-round" and tree_r2 = Conform.entry_of_name "tree-r2" in
  let stream = stream_of ~seed ~name ~k in
  let run_pair i =
    let rng = Engine.Seed_stream.trial_rng stream (i + 1) in
    let a = one_round.Conform.trial ~cache (Prng.Rng.with_label rng "one-round") ~universe ~k in
    (a, tree_r2.Conform.trial ~cache (Prng.Rng.with_label rng "tree-r2") ~universe ~k:16)
  in
  let exact i =
    let registry = Obsv.Metrics.create () in
    let a, b = Obsv.Metrics.with_registry registry (fun () -> run_pair i) in
    let messages =
      Option.fold ~none:0 ~some:Obsv.Sketch.count
        (Obsv.Metrics.sketch_of registry "net/payload_bits")
    in
    (a.Conform.t_bits + b.Conform.t_bits, messages, a.Conform.t_rounds + b.Conform.t_rounds)
  in
  measure ~name ~k ~trials ~exact (fun i -> ignore (run_pair i))

let run (config : config) : report =
  Campaign.validate ~trials:config.trials ~ks:config.ks ();
  List.iter
    (fun name ->
      if not (List.mem name default.protocols) then
        invalid_arg
          ("Regress: unknown cell " ^ name ^ " (known: "
          ^ String.concat ", " default.protocols
          ^ ")"))
    config.protocols;
  let { seed; universe_bits; trials; _ } = config in
  let cells =
    List.concat_map
      (fun name ->
        if name = guarded_attempt then [ guarded_cell ~seed ~trials ]
        else if name = conform_smallk then [ conform_cell ~seed ~universe_bits ~trials ]
        else if name = guarded_session then [ session_cell ~seed ~trials ]
        else
          List.filter_map
            (fun k ->
              if k > k_cap ~name then None
              else Some (protocol_cell ~seed ~universe_bits ~trials ~name ~k))
            config.ks)
      config.protocols
  in
  { seed; universe_bits; trials; ks = config.ks; cells }

let cell_fields c =
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
      ("cells", Stats.Json.List (List.map (fun c -> Stats.Json.Obj (cell_fields c)) report.cells));
    ]

(* Allocation stripped: what a change that moves bytes/run must still
   reproduce byte for byte against its parent. *)
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
                 (List.filter (fun (name, _) -> name <> "alloc_bytes_per_run") (cell_fields c)))
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

(* Compare a fresh report against a committed baseline: every field of
   every run cell, [alloc_bytes_per_run] included, must render exactly as
   the baseline's does.  A warm sweep's bytes repeat as exactly as its
   bits, so there is no tolerance.  Baseline cells the run skips are
   ignored, so a smoke run checks its slice; a run cell the baseline
   lacks, or a run with no cell, is a violation. *)
let baseline_violations (report : report) json =
  match baseline_cells json with
  | Error e -> [ e ]
  | Ok _ when report.cells = [] -> [ "baseline: this run has no cell to compare" ]
  | Ok base ->
      let cell_violations c =
        let where = Printf.sprintf "%s k=%d" c.protocol c.k in
        match List.assoc_opt (c.protocol, c.k) base with
        | None -> [ where ^ ": cell missing from the baseline" ]
        | Some bcell ->
            List.filter_map
              (fun (name, v) ->
                let current = Stats.Json.to_string v in
                match Option.map Stats.Json.to_string (Stats.Json.member name bcell) with
                | Some b when b = current -> None
                | Some b -> Some (Printf.sprintf "%s: %s baseline %s, current %s" where name b current)
                | None -> Some (Printf.sprintf "%s: %s missing from the baseline" where name))
              (cell_fields c)
      in
      List.concat_map cell_violations report.cells
