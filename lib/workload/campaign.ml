open Intersect

let validate ~trials ~ks ?overlap () =
  let reject fmt = Printf.ksprintf invalid_arg fmt in
  if trials < 1 then reject "trials must be >= 1 (got %d)" trials;
  List.iter
    (fun k ->
      if k < 1 then reject "k must be >= 1 (got %d)" k;
      match overlap with
      | Some o when o < 0 || o > k -> reject "overlap must be in [0, k = %d] (got %d)" k o
      | _ -> ())
    ks

let matrix ~trials ~ks ?overlap ?(on_cell = fun _ _ _ -> ()) cells =
  validate ~trials ~ks ?overlap ();
  if List.is_empty cells then invalid_arg "empty campaign matrix";
  let total = List.length cells in
  List.mapi
    (fun i cell ->
      let c = cell () in
      on_cell (i + 1) total c;
      c)
    cells

type 'acc accumulator = {
  init : unit -> 'acc;
  merge : 'acc -> 'acc -> 'acc;
  telemetry : campaign:string -> 'acc -> Obsv.Metrics.registry * (int * Stats.Json.t) list;
}

(* The stream label is the cell's coordinates under the campaign name;
   soak, chaos and conform labels predate the runner, so their published
   reports reproduce bit for bit. *)
let run_cell ?domains ?sink acc ~campaign ~cell ~seed ~trials step =
  let stream = Engine.Seed_stream.create ~base:seed ~label:(campaign ^ "/" ^ cell) in
  let result =
    Engine.Pool.fold ?domains ~trials ~init:acc.init ~merge:acc.merge
      ~step:(fun a i ->
        step a i (Engine.Seed_stream.trial_rng stream (i + 1));
        a)
      ()
  in
  Option.iter
    (fun sink ->
      let registry, postmortems = acc.telemetry ~campaign result in
      Telemetry.record_cell sink ~trials ~postmortems registry)
    sink;
  result

(* ---------- the outcome tally ---------- *)

type tally = {
  mutable failures : int;
  mutable verified : int;
  mutable degraded : int;
  mutable attempts : int;
  mutable rejected : int;
  mutable lost : int;
  mutable crashed : int;
  mutable damage : Commsim.Faults.tally;
  mutable rounds_max : int;
  bits : Obsv.Sketch.t;
  mutable first_failure : string option;
}

let trials t = Obsv.Sketch.count t.bits

let mean_bits t =
  if trials t = 0 then 0.0 else float_of_int (Obsv.Sketch.sum t.bits) /. float_of_int (trials t)

let tally =
  {
    init =
      (fun () ->
        {
          failures = 0;
          verified = 0;
          degraded = 0;
          attempts = 0;
          rejected = 0;
          lost = 0;
          crashed = 0;
          damage = Commsim.Faults.zero_tally ();
          rounds_max = 0;
          bits = Obsv.Sketch.create ();
          first_failure = None;
        });
    merge =
      (fun a b ->
        a.failures <- a.failures + b.failures;
        a.verified <- a.verified + b.verified;
        a.degraded <- a.degraded + b.degraded;
        a.attempts <- a.attempts + b.attempts;
        a.rejected <- a.rejected + b.rejected;
        a.lost <- a.lost + b.lost;
        a.crashed <- a.crashed + b.crashed;
        a.damage <- Commsim.Faults.add_tally a.damage b.damage;
        a.rounds_max <- max a.rounds_max b.rounds_max;
        Obsv.Sketch.merge_into ~into:a.bits b.bits;
        if a.first_failure = None then a.first_failure <- b.first_failure;
        a);
    telemetry =
      (fun ~campaign t ->
        let registry = Obsv.Metrics.create () in
        Obsv.Metrics.with_registry registry (fun () ->
            let bump name by = if by > 0 then Obsv.Metrics.incr ~by (campaign ^ "/" ^ name) in
            bump "trials" (trials t);
            bump "exact" (trials t - t.failures);
            bump "degraded" t.degraded;
            Obsv.Metrics.merge_sketch (campaign ^ "/bits") t.bits);
        (registry, []));
  }

let add_trial t ~bits ~rounds ~exact =
  if not exact then t.failures <- t.failures + 1;
  if rounds > t.rounds_max then t.rounds_max <- rounds;
  Obsv.Sketch.observe t.bits bits

(* ---------- the resilient wrapper ---------- *)

let resilient_protocols = [ "trivial"; "tree"; "bucket" ]

let resilient_base name ~k =
  match name with
  | "trivial" -> Resilient.trivial_base
  | "tree" -> Resilient.tree_base ~k ()
  | "bucket" -> Resilient.bucket_base ~k ()
  | _ ->
      invalid_arg
        ("unknown resilient protocol " ^ name ^ " (known: "
        ^ String.concat ", " resilient_protocols
        ^ ")")

let error_bound ~budget_attempts ~check_bits =
  float_of_int budget_attempts *. (2.0 ** float_of_int (-check_bits))

let add_resilient t (r : Resilient.report) ~exact =
  add_trial t ~bits:r.cost.Commsim.Cost.total_bits ~rounds:r.cost.Commsim.Cost.rounds ~exact;
  if r.verified then t.verified <- t.verified + 1;
  if r.degraded then t.degraded <- t.degraded + 1;
  t.attempts <- t.attempts + r.attempts;
  let rejected, lost, crashed = Resilient.failure_counts r in
  t.rejected <- t.rejected + rejected;
  t.lost <- t.lost + lost;
  t.crashed <- t.crashed + crashed;
  t.damage <- Commsim.Faults.add_tally t.damage (Commsim.Faults.total r.tallies);
  (* The concrete "who wedged on which message" sample a human reaches
     for when a cell looks bad; check rejections carry no diagnosis. *)
  if t.first_failure = None then
    t.first_failure <-
      List.find_map
        (function
          | Resilient.Check_rejected -> None
          | Resilient.Channel_lost d -> Some ("channel lost: " ^ d)
          | Resilient.Party_crashed d -> Some ("party crashed: " ^ d))
        r.failures

let resilient_step base ~link ~budget_attempts ~check_bits ~universe_bits ~k ~overlap t _ rng =
  let universe = 1 lsl universe_bits in
  let pair =
    Setgen.pair_with_overlap
      (Prng.Rng.with_label rng "inputs")
      ~universe ~size_s:k ~size_t:k ~overlap
  in
  let plan =
    Commsim.Faults.uniform ~seed:(Prng.Rng.bits (Prng.Rng.with_label rng "plan") ~width:30) link
  in
  let report =
    Resilient.run base ~plan
      ~budget:{ Resilient.attempts = budget_attempts; bits = max_int }
      ~check_bits
      (Prng.Rng.with_label rng "protocol")
      ~universe pair.Setgen.s pair.Setgen.t
  in
  add_resilient t report
    ~exact:(Iset.equal report.Resilient.result (Iset.inter pair.Setgen.s pair.Setgen.t))

(* ---------- gate cells ---------- *)

type bits_summary = {
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  min_bits : int;
  max_bits : int;
}

type gate = {
  protocol : string;
  plan : string option;
  k : int;
  trials : int;
  failures : int;
  degraded : int;
  error_limit : float;
  error_lower95 : float;
  error_upper95 : float;
  error_ok : bool;
  rounds_max : int;
  rounds_limit : int option;
  rounds_ok : bool;
  bits : bits_summary;
  bits_limit : float option;
  bits_ok : bool;
  pass : bool;
}

let gate ~protocol ?plan ~k ~error_limit ?rounds_limit ?bits_limit (t : tally) =
  let n = trials t in
  let s = t.bits in
  let bits =
    {
      mean = mean_bits t;
      p50 = Obsv.Sketch.p50 s;
      p90 = Obsv.Sketch.p90 s;
      p99 = Obsv.Sketch.p99 s;
      min_bits = Option.value (Obsv.Sketch.min_value s) ~default:0;
      max_bits = Option.value (Obsv.Sketch.max_value s) ~default:0;
    }
  in
  let error_lower95, error_upper95 =
    Stats.Binomial.wilson ~failures:t.failures ~trials:n ~z:1.96
  in
  (* Clean cells may fail only when the Wilson lower bound clears the
     statement's limit, so a rate the theorem allows never red-flags.
     Faulted cells gate on the wrapper's rare-event bound, where one
     failure in 10^6 trials at check_bits = 32 is already a violation. *)
  let error_ok =
    match plan with
    | None -> error_lower95 <= error_limit
    | Some _ -> t.failures = 0 || float_of_int t.failures /. float_of_int n <= error_limit
  in
  let within limit ok = match limit with Some l -> ok l | None -> true in
  let rounds_ok = within rounds_limit (fun l -> t.rounds_max <= l) in
  let bits_ok = within bits_limit (fun l -> bits.mean <= l) in
  {
    protocol;
    plan;
    k;
    trials = n;
    failures = t.failures;
    degraded = t.degraded;
    error_limit;
    error_lower95;
    error_upper95;
    error_ok;
    rounds_max = t.rounds_max;
    rounds_limit;
    rounds_ok;
    bits;
    bits_limit;
    bits_ok;
    pass = error_ok && rounds_ok && bits_ok;
  }

let json_option f = function Some v -> f v | None -> Stats.Json.Null

let json_of_gate (g : gate) =
  Stats.Json.Obj
    [
      ("kind", Stats.Json.Str (if g.plan = None then "clean" else "faulted"));
      ("protocol", Stats.Json.Str g.protocol);
      ("plan", json_option (fun p -> Stats.Json.Str p) g.plan);
      ("k", Stats.Json.Int g.k);
      ("trials", Stats.Json.Int g.trials);
      ("failures", Stats.Json.Int g.failures);
      ("degraded", Stats.Json.Int g.degraded);
      ("error_limit", Stats.Json.Float g.error_limit);
      ("error_lower95", Stats.Json.Float g.error_lower95);
      ("error_upper95", Stats.Json.Float g.error_upper95);
      ("error_ok", Stats.Json.Bool g.error_ok);
      ("rounds_max", Stats.Json.Int g.rounds_max);
      ("rounds_limit", json_option (fun r -> Stats.Json.Int r) g.rounds_limit);
      ("rounds_ok", Stats.Json.Bool g.rounds_ok);
      ( "bits",
        Stats.Json.Obj
          [
            ("mean", Stats.Json.Float g.bits.mean);
            ("p50", Stats.Json.Int g.bits.p50);
            ("p90", Stats.Json.Int g.bits.p90);
            ("p99", Stats.Json.Int g.bits.p99);
            ("min", Stats.Json.Int g.bits.min_bits);
            ("max", Stats.Json.Int g.bits.max_bits);
          ] );
      ("bits_limit", json_option (fun b -> Stats.Json.Float b) g.bits_limit);
      ("bits_ok", Stats.Json.Bool g.bits_ok);
      ("pass", Stats.Json.Bool g.pass);
    ]

let table ~title columns rows =
  let t = Stats.Table.create ~title ~columns:(List.map fst columns) in
  List.iter (fun row -> Stats.Table.add_row t (List.map (fun (_, cell) -> cell row) columns)) rows;
  Stats.Table.render t

let gate_table ~title gates =
  let limit f = function Some v -> f v | None -> "-" in
  table ~title
    [
      ("protocol", fun g -> g.protocol);
      ("plan", fun g -> Option.value g.plan ~default:"-");
      ("k", fun g -> string_of_int g.k);
      ("fail", fun g -> Printf.sprintf "%d/%d" g.failures g.trials);
      ("rounds", fun g -> string_of_int g.rounds_max);
      ("budget", fun g -> limit string_of_int g.rounds_limit);
      ("mean bits", fun g -> Printf.sprintf "%.0f" g.bits.mean);
      ("bits cap", fun g -> limit (Printf.sprintf "%.0f") g.bits_limit);
      ("err lo95", fun g -> Printf.sprintf "%.2g" g.error_lower95);
      ("bound", fun g -> Printf.sprintf "%.2g" g.error_limit);
      ("pass", fun g -> if g.pass then "yes" else "NO");
    ]
    gates

let gate_violations gates =
  List.filter_map
    (fun g ->
      let failed =
        List.filter_map
          (fun (ok, what) -> if ok then None else Some what)
          [ (g.rounds_ok, "rounds"); (g.bits_ok, "bits"); (g.error_ok, "error") ]
      in
      if g.pass then None
      else
        Some
          (Printf.sprintf "%s/%s k=%d violated its %s envelope (%d/%d failures)" g.protocol
             (Option.value g.plan ~default:"clean")
             g.k (String.concat "/" failed) g.failures g.trials))
    gates

(* ---------- reports ---------- *)

let report_json ?bench ?reproduce ~config ~cells extra =
  let str key = function Some v -> [ (key, Stats.Json.Str v) ] | None -> [] in
  Stats.Json.Obj
    (str "bench" bench @ str "reproduce" reproduce
    @ [ ("config", Stats.Json.Obj config); ("cells", Stats.Json.List cells) ]
    @ extra)

let json_of_link (l : Commsim.Faults.link) =
  Stats.Json.Obj
    [
      ("flip", Stats.Json.Float l.flip);
      ("trunc", Stats.Json.Float l.trunc);
      ("dup", Stats.Json.Float l.dup);
      ("drop", Stats.Json.Float l.drop);
    ]

let json_of_plans plans =
  Stats.Json.Obj (List.map (fun (name, link) -> (name, json_of_link link)) plans)

let json_strings l = Stats.Json.List (List.map (fun s -> Stats.Json.Str s) l)
let json_ints l = Stats.Json.List (List.map (fun i -> Stats.Json.Int i) l)
