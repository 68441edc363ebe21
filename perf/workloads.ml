(* The four seeded closed-loop workloads.  Each op is one call into a public
   entry point; the op index alone (with the seed) fixes its inputs and its
   randomness, so op [i] is the same execution in every mode and on every
   commit. *)

open Intersect

(* What the runner keeps of one op, computed outside the timed window. *)
type result = {
  cell : int;
  bits : int;  (* Cost.total_bits; the ledger's spent bits for sessions *)
  delivered_bits : int;  (* Cost.total_bits: what the phase ledger must sum to *)
  rounds : int;
  messages : int;
  exact : bool;  (* a result was produced and it is exactly S ∩ T *)
  delivered : bool;  (* false only for a failed-safe session *)
  attempts : int;
  degraded : bool;
  wasted_bits : int;
  backoff_ticks : int;
}

(* [run] is the timed call; [probe] is the same op through the layer probes
   and must return an equal value; [check] verifies and summarises. *)
type 'o ops = {
  run : int -> 'o;
  probe : Probe.t -> int -> 'o;
  check : int -> 'o -> result;
  sets : unit -> int array array;  (* the workload's own sets, for kernels *)
}

type instance = Instance : 'o ops -> instance

(* Running sums over an op sequence, filled by the runner and handed to a
   workload's [layers]. *)
type totals = {
  mutable ops : int;  (* ops that returned and were checked *)
  mutable raised : int;  (* ops that raised instead *)
  mutable bits : int;
  mutable rounds : int;
  mutable messages : int;
  mutable inexact : int;  (* a delivered result that is not S ∩ T *)
  mutable undelivered : int;
  mutable attempts : int;
  mutable degraded : int;
  mutable wasted_bits : int;
  mutable backoff_ticks : int;
  cell_trials : int array;
  cell_inexact : int array;
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  k : int;
  universe : int;
  warmup : int;  (* ops run inside set-up, before the first timed op *)
  smoke_ops : int;  (* about 1% of a 20 s run's op count *)
  cells : string array;
  error_limit : int -> float;  (* allowed inexact share, per cell *)
  slots : int;  (* probe sub-step timers the workload uses *)
  setup : seed:int -> instance;
  layers : Probe.t -> totals -> budget_ns:int -> (string * float) list;
}

let no_layers _ _ ~budget_ns:_ = []

let pool ~seed ~name ~pairs ~universe ~k =
  let root = Prng.Rng.of_int seed in
  Array.init pairs (fun j ->
      Workload.Setgen.pair_with_overlap
        (Prng.Rng.with_label root (Printf.sprintf "perf/%s/pair%d" name j))
        ~universe ~size_s:k ~size_t:k ~overlap:(k / 2))

let pool_sets pool =
  Array.concat (Array.to_list (Array.map (fun p -> [| p.Workload.Setgen.s; p.t |]) pool))

let protocol_result ~exact (o : Protocol.outcome) =
  let cost = o.Protocol.cost in
  {
    cell = 0;
    bits = cost.Commsim.Cost.total_bits;
    delivered_bits = cost.total_bits;
    rounds = cost.rounds;
    messages = cost.messages;
    exact;
    delivered = true;
    attempts = 1;
    degraded = false;
    wasted_bits = 0;
    backoff_ticks = 0;
  }

(* A two-party protocol over a cycled input pool.  [protocol] is what the
   plain op calls; [run_party] is the same protocol's party function, which
   the probe runs over wrapped transports. *)
let two_party_setup ~name ~pairs ~universe ~k ~protocol ~run_party ~seed =
  let pool = pool ~seed ~name ~pairs ~universe ~k in
  let truth = Array.map (fun p -> Workload.Setgen.intersect p.Workload.Setgen.s p.t) pool in
  let stream = Engine.Seed_stream.create ~base:seed ~label:("perf/" ^ name) in
  let proto : Protocol.t = protocol () in
  let run i =
    let p = pool.(i mod pairs) in
    proto.run (Engine.Seed_stream.trial_rng stream i) ~universe p.Workload.Setgen.s p.t
  in
  let probe pr i =
    let p = pool.(i mod pairs) in
    let rng = Engine.Seed_stream.trial_rng stream i in
    Protocol.validate_inputs ~universe p.Workload.Setgen.s p.t;
    let (alice, bob), cost =
      Probe.two_party pr
        ~alice:(fun chan -> run_party `Alice rng chan p.Workload.Setgen.s)
        ~bob:(fun chan -> run_party `Bob rng chan p.Workload.Setgen.t)
    in
    { Protocol.alice; bob; cost }
  in
  let check i (o : Protocol.outcome) =
    let expected = truth.(i mod pairs) in
    protocol_result o ~exact:(Iset.equal o.alice expected && Iset.equal o.bob expected)
  in
  Instance { run; probe; check; sets = (fun () -> pool_sets pool) }

let conform_limit name k = (Workload.Conform.entry_of_name name).Workload.Conform.error_limit k

let bucket_k1024 =
  let k = 1024 and universe = 1 lsl 20 in
  {
    name = "bucket-k1024";
    k;
    universe;
    warmup = 16;
    smoke_ops = 50;
    cells = [| "bucket-k1024" |];
    error_limit = (fun _ -> conform_limit "bucket" k);
    slots = 0;
    setup =
      two_party_setup ~name:"bucket-k1024" ~pairs:64 ~universe ~k
        ~protocol:(fun () -> Bucket_protocol.protocol ~k ())
        ~run_party:(fun role rng chan mine ->
          Bucket_protocol.run_party role rng ~universe ~k chan mine);
    layers = no_layers;
  }

let tree_k4096 =
  let k = 4096 and universe = 1 lsl 20 in
  let r = max 1 (Iterated_log.log_star k) in
  {
    name = "tree-k4096";
    k;
    universe;
    warmup = 4;
    smoke_ops = 8;
    cells = [| "tree-k4096" |];
    error_limit = (fun _ -> conform_limit "tree-log-star" k);
    slots = 0;
    setup =
      two_party_setup ~name:"tree-k4096" ~pairs:16 ~universe ~k
        ~protocol:(fun () -> Tree_protocol.protocol_log_star ~k ())
        ~run_party:(fun role rng chan mine ->
          Tree_protocol.run_party role rng ~universe ~r ~k chan mine);
    layers = no_layers;
  }

(* sweep-smallk: the Workload.Sweep trial path at small k.  Cell [c] of op
   [i] is [i mod 8] and its trial index [i / 8 + 1], on the same seed-stream
   labels the sweep uses. *)
let sweep_entries = [ "eq"; "one-round"; "bucket"; "tree-r2" ]
let sweep_ks = [ 16; 64 ]

let sweep_cells =
  Array.of_list
    (List.concat_map (fun k -> List.map (fun name -> (name, k)) sweep_entries) sweep_ks)

let sweep_rng_slot = Array.length sweep_cells

(* The promise instance Conform's protocol trials draw from a trial rng. *)
let conform_pair rng ~universe ~k =
  let overlap = Prng.Rng.int (Prng.Rng.with_label rng "overlap") (k + 1) in
  Workload.Setgen.pair_with_overlap (Prng.Rng.with_label rng "inputs") ~universe ~size_s:k
    ~size_t:k ~overlap

let sweep_smallk =
  let universe = 1 lsl 20 in
  let ncells = Array.length sweep_cells in
  let streams ~seed =
    Array.map
      (fun (name, k) ->
        Engine.Seed_stream.create ~base:seed ~label:(Printf.sprintf "sweep/%s/k%d" name k))
      sweep_cells
  in
  let setup ~seed =
    let streams = streams ~seed in
    let entries = Array.map (fun (name, _) -> Workload.Conform.entry_of_name name) sweep_cells in
    let cache = Engine.Instance_cache.create () in
    let trial c rng =
      entries.(c).Workload.Conform.trial ~cache rng ~universe ~k:(snd sweep_cells.(c))
    in
    let run i =
      let c = i mod ncells in
      trial c (Engine.Seed_stream.trial_rng streams.(c) ((i / ncells) + 1))
    in
    let probe pr i =
      let c = i mod ncells in
      let rng =
        Probe.time pr ~slot:sweep_rng_slot (fun () ->
            Engine.Seed_stream.trial_rng streams.(c) ((i / ncells) + 1))
      in
      Probe.time pr ~slot:c (fun () -> trial c rng)
    in
    let check i (o : Workload.Conform.trial_outcome) =
      {
        cell = i mod ncells;
        bits = o.t_bits;
        delivered_bits = o.t_bits;
        rounds = o.t_rounds;
        messages = 0;
        exact = o.t_exact;
        delivered = true;
        attempts = 1;
        degraded = false;
        wasted_bits = 0;
        backoff_ticks = 0;
      }
    in
    (* the pairs of each cell's first 32 trials *)
    let sets () =
      let cell c (_, k) =
        pool_sets
          (Array.init 32 (fun j ->
               conform_pair (Engine.Seed_stream.trial_rng streams.(c) (j + 1)) ~universe ~k))
      in
      Array.concat (Array.to_list (Array.mapi cell sweep_cells))
    in
    Instance { run; probe; check; sets }
  in
  (* Per-cell trial time and the rng derivation come from the probe slots;
     set generation is timed here on the shapes Conform draws. *)
  let layers pr _ ~budget_ns =
    let setgen k =
      let stream = Engine.Seed_stream.create ~base:k ~label:"perf/setgen" in
      let rngs = Array.init 64 (fun j -> Engine.Seed_stream.trial_rng stream j) in
      Kernels.per_unit ~budget_ns:(budget_ns / 2) (fun () ->
          Array.iter (fun rng -> ignore (Sys.opaque_identity (conform_pair rng ~universe ~k))) rngs;
          Array.length rngs)
    in
    let cell c (name, k) =
      (Printf.sprintf "sweep.%s-k%d.trial_ns_p50" name k, Probe.slot_p50 pr c)
    in
    Array.to_list (Array.mapi cell sweep_cells)
    @ [
        ("setgen.pair_ns_k16", setgen 16);
        ("setgen.pair_ns_k64", setgen 64);
        ("seed_stream.trial_rng_ns", Probe.slot_p50 pr sweep_rng_slot);
      ]
  in
  {
    name = "sweep-smallk";
    k = 64;
    universe;
    warmup = 32 * ncells;
    smoke_ops = 120 * ncells;
    cells = Array.map (fun (name, k) -> Printf.sprintf "%s-k%d" name k) sweep_cells;
    error_limit = (fun c -> conform_limit (fst sweep_cells.(c)) (snd sweep_cells.(c)));
    slots = ncells + 1;
    setup;
    layers;
  }

(* session-noisy: Session.Machine over a flipping, truncating link.  The
   link's fault plan depends on the session index alone, so runs of every
   seed meet the same fault schedule; the seed gives the inputs and the
   session's own coins.  With faults drawn from the seed, the attempts a
   session needs varied so much that bits and allocation per session
   spread by 1.5% between the seeds of ten runs; with this schedule, by
   0.5%. *)
let session_noisy =
  let k = 256 and universe_bits = 16 in
  let universe = 1 lsl universe_bits in
  let link = { Commsim.Faults.clean_link with flip = 1e-5; trunc = 1e-2 } in
  let faults = Engine.Seed_stream.create ~base:2014 ~label:"perf/session-noisy/faults" in
  let setup ~seed =
    let pool = pool ~seed ~name:"session-noisy" ~pairs:64 ~universe ~k in
    let truth = Array.map (fun p -> Workload.Setgen.intersect p.Workload.Setgen.s p.t) pool in
    let stream = Engine.Seed_stream.create ~base:seed ~label:"perf/session-noisy" in
    let config i =
      let rng = Engine.Seed_stream.trial_rng stream i in
      let plan =
        Commsim.Faults.uniform
          ~seed:(Prng.Rng.bits (Engine.Seed_stream.trial_rng faults i) ~width:30)
          link
      in
      {
        (Session.Machine.default ~k ~plan) with
        seed = Prng.Rng.bits (Prng.Rng.with_label rng "session") ~width:30;
        universe_bits;
        deadline_bits = 4_000_000;
      }
    in
    let run i =
      let p = pool.(i mod 64) in
      Session.Machine.run (config i) ~s:p.Workload.Setgen.s ~t:p.t
    in
    let probe pr i =
      let p = pool.(i mod 64) in
      let rec drive st =
        match
          Probe.time pr ~slot:0 (fun () -> Session.Machine.step st ~s:p.Workload.Setgen.s ~t:p.t)
        with
        | Session.Machine.Running st -> drive st
        | Session.Machine.Done report -> report
      in
      drive (Session.Machine.start (config i))
    in
    let check i (r : Session.Machine.report) =
      let ledger = r.ledger in
      let result = Session.Machine.result_of r.outcome in
      {
        cell = 0;
        bits = ledger.spent_bits;
        delivered_bits = ledger.cost.Commsim.Cost.total_bits;
        rounds = ledger.cost.rounds;
        messages = ledger.cost.messages;
        exact = (match result with Some x -> Iset.equal x truth.(i mod 64) | None -> false);
        delivered = Option.is_some result;
        attempts = r.attempts;
        degraded = (match r.outcome with Session.Machine.Degraded _ -> true | _ -> false);
        wasted_bits = ledger.wasted_bits;
        backoff_ticks = ledger.backoff_ticks;
      }
    in
    Instance { run; probe; check; sets = (fun () -> pool_sets pool) }
  in
  let layers pr (t : totals) ~budget_ns:_ =
    let per_session x = float_of_int x /. float_of_int (max 1 t.ops) in
    [
      ("session.attempts_per_session", per_session t.attempts);
      ("session.step_ns_p50", Probe.slot_p50 pr 0);
      ("session.degraded_share", per_session t.degraded);
      ( "session.useful_bits_ratio",
        1.0 -. (float_of_int t.wasted_bits /. float_of_int (max 1 t.bits)) );
      ("session.backoff_ticks_per_session", per_session t.backoff_ticks);
    ]
  in
  {
    name = "session-noisy";
    k;
    universe;
    warmup = 32;
    smoke_ops = 40;
    cells = [| "session-noisy" |];
    (* a delivered session result is never wrong; failed-safe ones count as failed *)
    error_limit = (fun _ -> 0.0);
    slots = 1;
    setup;
    layers;
  }

let all = [ bucket_k1024; tree_k4096; sweep_smallk; session_noisy ]
let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
