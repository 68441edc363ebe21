(* One workload, one process: set-up, then either the untraced timed loop
   (end-to-end metrics) or the traced loop (per-layer metrics). *)

open Timing
module W = Workloads

type settings = {
  seed : int;
  seconds : float;  (* length of the measured phase *)
  ops : int option;  (* a fixed op count instead of [seconds] (smoke runs) *)
  traced : bool;
}

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  record : Stats.Json.t;  (* the descriptive line printed before the result *)
}

(* Set-up runs this many times in an untraced run and its median is
   reported.  The first set-up's instance is the one measured; the others
   run after the timed phase, once its allocation and heap peak are read,
   so they touch no other metric. *)
let setup_repeats = 9

(* Share of a traced run spent on kernel timings; the rest runs the ops. *)
let kernel_share = 0.25

let new_totals (w : W.t) : W.totals =
  {
    ops = 0;
    raised = 0;
    bits = 0;
    rounds = 0;
    messages = 0;
    inexact = 0;
    undelivered = 0;
    attempts = 0;
    degraded = 0;
    wasted_bits = 0;
    backoff_ticks = 0;
    cell_trials = Array.make (Array.length w.cells) 0;
    cell_inexact = Array.make (Array.length w.cells) 0;
  }

let add (t : W.totals) (r : W.result) =
  t.ops <- t.ops + 1;
  t.bits <- t.bits + r.bits;
  t.rounds <- t.rounds + r.rounds;
  t.messages <- t.messages + r.messages;
  t.attempts <- t.attempts + r.attempts;
  if r.degraded then t.degraded <- t.degraded + 1;
  t.wasted_bits <- t.wasted_bits + r.wasted_bits;
  t.backoff_ticks <- t.backoff_ticks + r.backoff_ticks;
  t.cell_trials.(r.cell) <- t.cell_trials.(r.cell) + 1;
  if not r.delivered then t.undelivered <- t.undelivered + 1
  else if not r.exact then begin
    t.inexact <- t.inexact + 1;
    t.cell_inexact.(r.cell) <- t.cell_inexact.(r.cell) + 1
  end

(* A Monte Carlo protocol may miss S ∩ T at the rate its theorem allows: a
   cell is within its envelope unless the one-sided 95% Wilson lower bound
   on its inexact rate exceeds the statement's limit (Workload.Sweep's
   gate). *)
let envelope (w : W.t) (t : W.totals) =
  List.init (Array.length w.cells) (fun c ->
      let trials = t.cell_trials.(c) and failures = t.cell_inexact.(c) in
      let lower =
        if failures = 0 then 0.0 else fst (Stats.Binomial.wilson ~failures ~trials ~z:1.96)
      in
      (w.cells.(c), trials, failures, lower, w.error_limit c, lower <= w.error_limit c))

let per_op (t : W.totals) x = float_of_int x /. float_of_int (max 1 t.ops)

(* Runs [step] on op indices 0, 1, ... for [budget_ns] or, in fixed-count
   mode, exactly [n] times, and returns the op count. *)
let drive settings ~budget_ns step =
  match settings.ops with
  | Some n ->
      for i = 0 to n - 1 do
        step i
      done;
      n
  | None ->
      let stop = now () + budget_ns in
      let i = ref 0 in
      while now () < stop do
        step !i;
        incr i
      done;
      !i

(* On a shared host, load from other tenants comes and goes in stretches of
   a fraction of a second to an hour, and slows everything that runs
   during one by up to 1.9 times.  So every wall time an untraced run
   reports is calibrated: scaled by [reference_nominal_ns] over the time
   [Timing.reference] takes beside it.  That is its time on a core as quiet
   as the one the nominal time was taken on.  The timed phase runs the
   reference every [reference_every_ns] and cuts the ops into [blocks]
   consecutive blocks of equal op count; each op is scaled by the median
   reference time in its block.  A set-up is scaled by the mean of one
   reference run just before it and one just after. *)
let reference_every_ns = 20_000_000
let reference_nominal_ns = 150_000.0
let blocks = 40

(* One set-up: inputs, instance, warm-up ops; its seconds and instance. *)
let set_up (w : W.t) ~seed =
  let t0 = now () in
  let instance = w.setup ~seed in
  (match instance with
  | W.Instance ops ->
      for i = 0 to w.warmup - 1 do
        ignore (Sys.opaque_identity (ops.run i))
      done);
  (seconds_of_ns (now () - t0), instance)

(* A set-up between two reference runs: its raw and calibrated seconds,
   and its instance. *)
let calibrated_set_up w ~seed =
  let before = reference () in
  let s, instance = set_up w ~seed in
  let after = reference () in
  (s, s *. reference_nominal_ns /. (float_of_int (before + after) /. 2.0), instance)

(* [calibrated durs ~ref_at ~ref_ns]: every op time of [durs], scaled.
   Reference sample [j] took [ref_ns.(j)] and was taken just before op
   [ref_at.(j)]; the first one before op 0.  A block without a sample of
   its own uses the last one before it. *)
let calibrated durs ~ref_at ~ref_ns =
  let n = Vec.length durs and m = Vec.length ref_ns in
  let count = if n >= blocks then blocks else if n > 0 then 1 else 0 in
  let scaled = Array.make n 0.0 in
  let first = ref 0 in
  for b = 0 to count - 1 do
    let lo = b * n / count and hi = (b + 1) * n / count in
    while !first < m && Vec.get ref_at !first < lo do
      incr first
    done;
    let last = ref !first in
    while !last < m && Vec.get ref_at !last < hi do
      incr last
    done;
    let samples =
      if !last > !first then
        Array.init (!last - !first) (fun j -> float_of_int (Vec.get ref_ns (!first + j)))
      else [| float_of_int (Vec.get ref_ns (!first - 1)) |]
    in
    let scale = reference_nominal_ns /. median samples in
    for i = lo to hi - 1 do
      scaled.(i) <- float_of_int (Vec.get durs i) *. scale
    done
  done;
  scaled

(* What a measured phase hands back to [run]. *)
type measured = {
  n : int;
  computed : (string * float) list;
  calibration : (string * float) list;  (* untraced runs only *)
  phase_bits : (string * int) list;  (* traced runs only *)
  checks : (string * int) list;  (* traced runs only; each must be 0 *)
}

let untraced (w : W.t) settings t =
  let first_raw, first, instance = calibrated_set_up w ~seed:settings.seed in
  let (W.Instance ops) = instance in
  let durs = Vec.create () and ref_at = Vec.create () and ref_ns = Vec.create () in
  let next_reference = ref 0 in
  let alloc0 = Gc.allocated_bytes () in
  let step i =
    if now () >= !next_reference then begin
      Vec.push ref_at (Vec.length durs);
      Vec.push ref_ns (reference ());
      next_reference := now () + reference_every_ns
    end;
    let t0 = now () in
    match ops.run i with
    | o ->
        Vec.push durs (now () - t0);
        add t (ops.check i o)
    | exception _ -> t.raised <- t.raised + 1
  in
  let n = drive settings ~budget_ns:(int_of_float (settings.seconds *. 1e9)) step in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  let setups =
    Array.init setup_repeats (fun r ->
        if r = 0 then (first_raw, first)
        else
          let raw, scaled, _ = calibrated_set_up w ~seed:settings.seed in
          (raw, scaled))
  in
  let timed = Vec.length durs in
  let raw = Vec.to_floats durs and scaled = calibrated durs ~ref_at ~ref_ns in
  let per_s a =
    if timed = 0 then 0.0 else float_of_int timed /. (Array.fold_left ( +. ) 0.0 a /. 1e9)
  in
  {
    n;
    computed =
      [
        ("setup_s", median (Array.map snd setups));
        ("ops_per_s", per_s scaled);
        ("op_ns_p50", median scaled);
        ("alloc_bytes_per_op", alloc /. float_of_int (max 1 n));
        ("heap_peak_bytes", float_of_int heap);
        ("bits_per_op", per_op t t.bits);
        ("rounds_per_op", per_op t t.rounds);
      ];
    calibration =
      [
        ("reference_nominal_ns", reference_nominal_ns);
        ("reference_ns_p50", median (Vec.to_floats ref_ns));
        ("reference_samples", float_of_int (Vec.length ref_ns));
        ("raw_setup_s", median (Array.map fst setups));
        ("raw_ops_per_s", per_s raw);
        ("raw_op_ns_p50", median raw);
      ];
    phase_bits = [];
    checks = [];
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let commsim_metrics (p : Probe.t) ~ops =
  if p.executions = 0 then []
  else
    let msgs = float_of_int (Probe.messages p) and ops = float_of_int (max 1 ops) in
    let ns x = float_of_int x in
    [
      ("commsim.messages_per_op", msgs /. ops);
      ("commsim.send_ns_per_msg", ratio (ns (Probe.send_ns p)) msgs);
      ("commsim.switch_ns_per_msg", ratio (ns p.switch_ns) msgs);
      ("commsim.share", ratio (ns (Probe.send_ns p + p.switch_ns)) (ns p.wall_ns));
      ("core.alice_self_ns_per_op", ns p.alice.self_ns /. ops);
      ("core.bob_self_ns_per_op", ns p.bob.self_ns /. ops);
      ("core.recv_wait_ns_per_op", ns (Probe.wait_ns p) /. ops);
    ]

(* [phase.<name>.bits_per_op] for every phase that BENCHMARK.json gives a
   metric of its own, with [/] written as [.]; the bits of any other phase
   are summed into [phase.other.bits_per_op]. *)
let phase_metrics (declared : Spec.metric list) t phase_bits =
  let metric phase =
    let stem =
      if phase = Obsv.Phases.unattributed then "unattributed"
      else String.map (function '/' -> '.' | c -> c) phase
    in
    "phase." ^ stem ^ ".bits_per_op"
  in
  let own, other =
    Hashtbl.fold
      (fun phase bits (own, other) ->
        let name = metric phase in
        if List.exists (fun (m : Spec.metric) -> m.name = name) declared then
          ((name, per_op t bits) :: own, other)
        else (own, other + bits))
      phase_bits ([], 0)
  in
  ("phase.other.bits_per_op", per_op t other) :: own

(* The traced loop runs every op three times, in rotating order: plain (the
   untraced call, with GC counters read around it), through the layer
   probes, and with an Obsv.Trace collector and Obsv.Metrics registry
   installed.  All three must return equal values, and the collector's
   phase ledger must sum to the op's metered bits. *)
let traced (w : W.t) (W.Instance ops) ~declared settings t =
  let probe = Probe.create ~slots:w.slots in
  let plain_ns = Vec.create () and probed_ns = Vec.create () and observed_ns = Vec.create () in
  let minor = ref 0 and major = ref 0 and promoted_words = ref 0.0 in
  let phase_bits = Hashtbl.create 16 in
  let mismatches = ref 0 in
  let plain i =
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let o = ops.run i in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    Vec.push plain_ns (t1 - t0);
    minor := !minor + (g1.minor_collections - g0.minor_collections);
    major := !major + (g1.major_collections - g0.major_collections);
    promoted_words := !promoted_words +. (g1.promoted_words -. g0.promoted_words);
    o
  in
  let probed i =
    let t0 = now () in
    let o = ops.probe probe i in
    Vec.push probed_ns (now () - t0);
    o
  in
  let observed i =
    let t0 = now () in
    let collector = Obsv.Trace.create () in
    let o =
      Obsv.Trace.with_collector collector (fun () ->
          Obsv.Metrics.with_registry (Obsv.Metrics.create ()) (fun () -> ops.run i))
    in
    Vec.push observed_ns (now () - t0);
    (o, Obsv.Export.phases collector)
  in
  let three i =
    match i mod 3 with
    | 0 ->
        let a = plain i in
        let b = probed i in
        (a, b, observed i)
    | 1 ->
        let b = probed i in
        let c = observed i in
        (plain i, b, c)
    | _ ->
        let c = observed i in
        let a = plain i in
        (a, probed i, c)
  in
  let step i =
    match three i with
    | a, b, (c, phases) ->
        let r = ops.check i a in
        add t r;
        let ledger = List.fold_left (fun n p -> n + p.Obsv.Export.bits) 0 phases in
        if a <> b || a <> c || ledger <> r.delivered_bits then incr mismatches;
        List.iter
          (fun (p : Obsv.Export.phase) ->
            Hashtbl.replace phase_bits p.phase
              (p.bits + Option.value ~default:0 (Hashtbl.find_opt phase_bits p.phase)))
          phases
    | exception _ -> t.raised <- t.raised + 1
  in
  let budget_ns = int_of_float (settings.seconds *. 1e9) in
  let kernel_ns =
    match settings.ops with
    | Some _ -> 0
    | None -> int_of_float (kernel_share *. float_of_int budget_ns)
  in
  let n = drive settings ~budget_ns:(budget_ns - kernel_ns) step in
  (* the workload's own layer timings get one kernel's share *)
  let layer_ns = kernel_ns / 7 in
  let kernels, kernel_errors =
    Kernels.run ~sets:(ops.sets ()) ~universe:w.universe ~k:w.k ~budget_ns:(kernel_ns - layer_ns)
  in
  let p50 v = median (Vec.to_floats v) in
  let plain_p50 = p50 plain_ns in
  let plain_p90 =
    if Vec.length plain_ns = 0 then 0.0 else (quantiles ~n:10 (Vec.to_floats plain_ns)).(8)
  in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  {
    n;
    computed =
      commsim_metrics probe ~ops:n
      @ phase_metrics declared t phase_bits
      @ kernels
      @ [
          ("gc.minor_collections_per_op", per_op t !minor);
          ("gc.major_collections_per_op", per_op t !major);
          ("gc.promoted_bytes_per_op", !promoted_words *. word_bytes /. float_of_int (max 1 n));
          ("gc.p90_over_p50", ratio plain_p90 plain_p50);
        ]
      @ w.layers probe t ~budget_ns:layer_ns
      @ [
          ("obsv.trace_tax", ratio (p50 observed_ns) plain_p50);
          ("perf.probe_tax", ratio (p50 probed_ns) plain_p50);
          ("result.error_rate", per_op t (t.inexact + t.undelivered));
        ];
    calibration = [];
    phase_bits =
      List.sort compare (Hashtbl.fold (fun name b acc -> (name, b) :: acc) phase_bits []);
    checks =
      [
        ("probe_mismatches", !mismatches);
        ("negative_switch", probe.negative_switch);
        ("kernel_errors", kernel_errors);
      ];
  }

let run (spec : Spec.t) (w : W.t) settings =
  let t = new_totals w in
  let declared = if settings.traced then spec.per_layer else spec.end_to_end in
  let m =
    if settings.traced then traced w (snd (set_up w ~seed:settings.seed)) ~declared settings t
    else untraced w settings t
  in
  let cells = envelope w t in
  let within = List.for_all (fun (_, _, _, _, _, ok) -> ok) cells in
  let correct = t.raised = 0 && List.for_all (fun (_, v) -> v = 0) m.checks && within in
  let metrics = Spec.select declared m.computed in
  let open Stats.Json in
  let ints l = Obj (List.map (fun (k, v) -> (k, Int v)) l) in
  let deterministic =
    [
      ("ops", Int m.n);
      ("bits", Int t.bits);
      ("rounds", Int t.rounds);
      ("messages", Int t.messages);
      ("inexact", Int t.inexact);
      ("undelivered", Int t.undelivered);
      ("raised", Int t.raised);
    ]
    @ if settings.traced then [ ("phase_bits", ints m.phase_bits) ] else []
  in
  let cell_json (cell, trials, inexact, lower, limit, ok) =
    Obj
      [
        ("cell", Str cell);
        ("trials", Int trials);
        ("inexact", Int inexact);
        ("lower95", Float lower);
        ("limit", Float limit);
        ("ok", Bool ok);
      ]
  in
  let record =
    Obj
      ([
         ("perf", Str "record");
         ("workload", Str w.name);
         ("seed", Int settings.seed);
         ("trace", Int (if settings.traced then 1 else 0));
         ("seconds", Float settings.seconds);
         ("fixed_ops", match settings.ops with Some n -> Int n | None -> Null);
         ("cores", Int (Domain.recommended_domain_count ()));
         ("domains", Int 1);
         ("ocaml", Str Sys.ocaml_version);
         ("correct", Bool correct);
         ("deterministic", Obj deterministic);
         ("envelope", List (List.map cell_json cells));
       ]
      @ (if settings.traced then [ ("checks", ints m.checks) ]
         else [ ("calibration", Obj (List.map (fun (k, v) -> (k, Float v)) m.calibration)) ])
      @ [ ("metrics", Obj (List.map (fun (name, v, _) -> (name, Float v)) metrics)) ])
  in
  { correct; attempted = m.n; failed = t.raised + t.undelivered; metrics; record }

(* The result line: exactly these four keys, last on stdout. *)
let result_json r =
  let open Stats.Json in
  let metric (name, v, unit) = (name, Obj [ ("value", Float v); ("unit", Str unit) ]) in
  Obj
    [
      ("correct", Bool r.correct);
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("metrics", Obj (List.map metric r.metrics));
    ]
