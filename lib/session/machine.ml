type config = {
  seed : int;
  protocol : string;
  k : int;
  universe_bits : int;
  plan : Commsim.Faults.plan;
  deadline_bits : int;
  rung_attempts : int;
  check_bits0 : int;
  backoff_base : int;
  backoff_cap : int;
}

let default ~k ~plan =
  {
    seed = 1;
    protocol = "bucket";
    k;
    universe_bits = 16;
    plan;
    deadline_bits = 2_000_000;
    rung_attempts = 3;
    check_bits0 = max 24 k;
    backoff_base = 64;
    backoff_cap = 4096;
  }

type rung = Base | Guarded | Widened | Fallback | Exhausted

let rung_name = function
  | Base -> "base"
  | Guarded -> "guarded"
  | Widened -> "widened"
  | Fallback -> "fallback"
  | Exhausted -> "exhausted"

type failure_kind = Rejected | Stalled | Crashed | Deadline

let kind_name = function
  | Rejected -> "rejected"
  | Stalled -> "stalled"
  | Crashed -> "crashed"
  | Deadline -> "deadline"

let kind_of_name = function
  | "rejected" -> Some Rejected
  | "stalled" -> Some Stalled
  | "crashed" -> Some Crashed
  | "deadline" -> Some Deadline
  | _ -> None

type ledger = {
  spent_bits : int;
  backoff_ticks : int;
  wasted_bits : int;
  cost : Commsim.Cost.t;
}

type diagnosis = {
  reason : string;
  rejected : int;
  stalled : int;
  crashed : int;
  last_failure : (failure_kind * string) option;
  remaining_bits : int;
  reserve_bits : int;
}

type outcome =
  | Completed of Iset.t
  | Degraded of Iset.t
  | Failed_safe of { partial : Iset.t option; diagnosis : diagnosis }

type report = {
  outcome : outcome;
  attempts : int;
  resumes : int;
  final_rung : rung;
  final_width : int;
  failures : (failure_kind * string) list;
  ledger : ledger;
}

type state = {
  cfg : config;
  fingerprint : string;
  attempts : int;
  resumes : int;
  width : int;
  spent_bits : int;
  backoff_ticks : int;
  wasted_bits : int;
  failures_rev : (failure_kind * string) list;
  candidate : Iset.t option;
  cost : Commsim.Cost.t;
}

type progress = Running of state | Done of report

let max_check_bits = 512

let fingerprint cfg =
  Printf.sprintf "v1:%s:k=%d:u=%d:seed=%d:deadline=%d:rung=%d:w0=%d:backoff=%d/%d:plan=%d%s"
    cfg.protocol cfg.k cfg.universe_bits cfg.seed cfg.deadline_bits cfg.rung_attempts
    cfg.check_bits0 cfg.backoff_base cfg.backoff_cap
    (Commsim.Faults.seed cfg.plan)
    (if Commsim.Faults.is_clean cfg.plan then ":clean" else "")

let universe cfg = 1 lsl cfg.universe_bits

(* Admission bound for the last-resort deterministic exchange: a safe
   overestimate of the trivial protocol's cost (two gap-coded sets of at
   most [k] elements below [2^universe_bits], plus framing slack).  Being
   an upper bound it can only refuse a fallback that might still have fit
   — never admit one the budget cannot cover. *)
let fallback_reserve cfg = 2 * ((cfg.k + 1) * ((2 * cfg.universe_bits) + 4) + 64)

let validate cfg =
  if cfg.k < 1 then invalid_arg "Session: k must be >= 1";
  if cfg.universe_bits < 1 || cfg.universe_bits > 30 then
    invalid_arg "Session: universe_bits must be in [1, 30]";
  if cfg.deadline_bits < 1 then invalid_arg "Session: deadline_bits must be >= 1";
  if cfg.rung_attempts < 1 then invalid_arg "Session: rung_attempts must be >= 1";
  if cfg.check_bits0 < 1 || cfg.check_bits0 > max_check_bits then
    invalid_arg "Session: check_bits0 must be in [1, 512]";
  if cfg.backoff_base < 0 then invalid_arg "Session: backoff_base must be >= 0";
  if cfg.backoff_cap < cfg.backoff_base then
    invalid_arg "Session: backoff_cap must be >= backoff_base";
  ignore (Intersect.Resilient.base_of_name cfg.protocol ~k:cfg.k)

let start cfg =
  validate cfg;
  {
    cfg;
    fingerprint = fingerprint cfg;
    attempts = 0;
    resumes = 0;
    width = cfg.check_bits0;
    spent_bits = 0;
    backoff_ticks = 0;
    wasted_bits = 0;
    failures_rev = [];
    candidate = None;
    cost = Commsim.Cost.zero ~players:2;
  }

let spent st = st.spent_bits + st.backoff_ticks

(* The degradation ladder, by 1-based attempt index: one optimistic base
   execution, then [rung_attempts] guarded retries (width doubles only on a
   rejected check, Resilient-style), then [rung_attempts] widened retries
   (width doubles unconditionally), then the deterministic fallback. *)
let next_rung st =
  let i = st.attempts + 1 in
  if i = 1 then Base
  else if i <= 1 + st.cfg.rung_attempts then Guarded
  else if i <= 1 + (2 * st.cfg.rung_attempts) then Widened
  else Fallback

let failure_tally st =
  List.fold_left
    (fun (rej, stall, crash) (kind, _) ->
      match kind with
      | Rejected -> (rej + 1, stall, crash)
      | Stalled -> (rej, stall + 1, crash)
      | Crashed -> (rej, stall, crash + 1)
      | Deadline -> (rej, stall, crash))
    (0, 0, 0) st.failures_rev

let mk_report st ~outcome ~final_rung =
  {
    outcome;
    attempts = st.attempts;
    resumes = st.resumes;
    final_rung;
    final_width = st.width;
    failures = List.rev st.failures_rev;
    ledger =
      {
        spent_bits = st.spent_bits;
        backoff_ticks = st.backoff_ticks;
        wasted_bits = st.wasted_bits;
        cost = st.cost;
      };
  }

let diagnose st ~reason =
  let rejected, stalled, crashed = failure_tally st in
  {
    reason;
    rejected;
    stalled;
    crashed;
    last_failure = (match st.failures_rev with [] -> None | f :: _ -> Some f);
    remaining_bits = st.cfg.deadline_bits - spent st;
    reserve_bits = fallback_reserve st.cfg;
  }

let fail_safe st =
  Obsv.Metrics.incr "session/failed_safe";
  let reason =
    Printf.sprintf
      "deadline exhausted after %d attempt(s): %d wire bits + %d backoff ticks of a %d-bit \
       budget leave no room for the ~%d-bit fallback exchange"
      st.attempts st.spent_bits st.backoff_ticks st.cfg.deadline_bits
      (fallback_reserve st.cfg)
  in
  if Obsv.Recorder.active () then
    Obsv.Recorder.event ~kind:"failed-safe"
      ~attrs:[ ("attempts", string_of_int st.attempts) ]
      reason;
  Done
    (mk_report st
       ~outcome:(Failed_safe { partial = st.candidate; diagnosis = diagnose st ~reason })
       ~final_rung:Exhausted)

let run_fallback st ~s ~t =
  Obsv.Metrics.incr "session/fallbacks";
  if Obsv.Recorder.active () then
    Obsv.Recorder.event ~kind:"ladder"
      ~attrs:[ ("rung", rung_name Fallback); ("attempts", string_of_int st.attempts) ]
      "degrading to the deterministic fallback exchange";
  let trivial = Intersect.Resilient.trivial_base in
  let rng = Prng.Rng.with_label (Prng.Rng.of_int st.cfg.seed) "session/fallback" in
  let u = universe st.cfg in
  let (result, _), cost =
    Obsv.Trace.span Obsv.Phases.session_fallback (fun () ->
        Commsim.Two_party.run
          ~alice:(fun chan -> trivial.Intersect.Resilient.alice rng ~universe:u s chan)
          ~bob:(fun chan -> trivial.Intersect.Resilient.bob rng ~universe:u t chan))
  in
  let st =
    {
      st with
      spent_bits = st.spent_bits + cost.Commsim.Cost.total_bits;
      cost = Commsim.Cost.add_seq st.cost cost;
    }
  in
  Done (mk_report st ~outcome:(Degraded result) ~final_rung:Fallback)

let run_attempt st rung ~s ~t =
  let cfg = st.cfg in
  let i = st.attempts + 1 in
  (* On the widened rung every attempt pays for more confidence up front. *)
  let width =
    match rung with
    | Widened -> min max_check_bits (2 * st.width)
    | Base | Guarded | Fallback | Exhausted -> st.width
  in
  Obsv.Metrics.incr "session/attempts";
  Obsv.Metrics.set_gauge "session/check_bits" width;
  if Obsv.Recorder.active () then
    Obsv.Recorder.event ~kind:"attempt"
      ~attrs:[ ("rung", rung_name rung); ("check_bits", string_of_int width) ]
      (Printf.sprintf "attempt %d" i);
  let attempt_rng =
    Prng.Rng.with_label (Prng.Rng.of_int cfg.seed) (Printf.sprintf "session/attempt%d" i)
  in
  let verdict, cost, tallies =
    Obsv.Trace.span Obsv.Phases.session_attempt
      ~attrs:
        [
          ("attempt", string_of_int i);
          ("rung", rung_name rung);
          ("check_bits", string_of_int width);
        ]
      (fun () ->
        Intersect.Resilient.attempt_once (Intersect.Resilient.base_of_name cfg.protocol ~k:cfg.k)
          ~plan:(Commsim.Faults.reseed cfg.plan ~salt:i)
          ~check_bits:width ~attempt:i attempt_rng ~universe:(universe cfg) s t)
  in
  (* [Cost] meters only what crossed the wire (delivered copies), so an
     attempt against a black-hole link would look free.  The event-time
     budget charges what the senders PUT on the wire: delivered bits plus
     the payload the adversary dropped or truncated away. *)
  let lost =
    let t = Commsim.Faults.total tallies in
    t.Commsim.Faults.dropped_bits + t.Commsim.Faults.truncated_bits
  in
  let bits = cost.Commsim.Cost.total_bits + lost in
  let st =
    {
      st with
      attempts = i;
      width;
      spent_bits = st.spent_bits + bits;
      cost = Commsim.Cost.add_seq st.cost cost;
    }
  in
  match verdict with
  | Ok result -> Done (mk_report st ~outcome:(Completed result) ~final_rung:rung)
  | Error (failure, unverified) ->
      let kind, detail =
        match failure with
        | Intersect.Resilient.Check_rejected -> (Rejected, "equality check rejected")
        | Intersect.Resilient.Channel_lost d -> (Stalled, d)
        | Intersect.Resilient.Party_crashed d -> (Crashed, d)
      in
      Obsv.Metrics.incr ("session/" ^ kind_name kind);
      if Obsv.Recorder.active () then
        Obsv.Recorder.event ~kind:"failure"
          ~attrs:[ ("attempt", string_of_int i); ("kind", kind_name kind) ]
          detail;
      let st =
        {
          st with
          wasted_bits = st.wasted_bits + bits;
          failures_rev = (kind, detail) :: st.failures_rev;
          candidate = (match unverified with Some c -> Some c | None -> st.candidate);
        }
      in
      (* Outside the widened rung, only a rejected check buys a wider next
         check (detected damage carries no evidence against the width). *)
      let st =
        match (rung, kind) with
        | (Base | Guarded), Rejected -> { st with width = min max_check_bits (2 * st.width) }
        | _ -> st
      in
      let ticks =
        Backoff.ticks ~seed:cfg.seed ~base:cfg.backoff_base ~cap:cfg.backoff_cap ~attempt:i
      in
      Obsv.Trace.span Obsv.Phases.session_backoff
        ~attrs:[ ("attempt", string_of_int i); ("ticks", string_of_int ticks) ]
        (fun () -> ());
      Obsv.Metrics.observe "session/backoff_ticks" ticks;
      if Obsv.Recorder.active () then
        Obsv.Recorder.event ~kind:"backoff"
          ~attrs:[ ("attempt", string_of_int i) ]
          (Printf.sprintf "%d event-time ticks" ticks);
      Running { st with backoff_ticks = st.backoff_ticks + ticks }

let step st ~s ~t =
  Intersect.Protocol.validate_inputs ~universe:(universe st.cfg) s t;
  let rung = next_rung st in
  let remaining = st.cfg.deadline_bits - spent st in
  if rung = Fallback || remaining <= 0 then begin
    let st =
      (* Diverting to the fallback with ladder rungs still unplayed is
         itself a recorded failure: the deadline ran out first. *)
      if rung <> Fallback then begin
        Obsv.Metrics.incr "session/deadline";
        if Obsv.Recorder.active () then
          Obsv.Recorder.event ~kind:"deadline"
            ~attrs:[ ("attempts", string_of_int st.attempts) ]
            (Printf.sprintf "budget exhausted (%d wire bits + %d ticks >= %d)" st.spent_bits
               st.backoff_ticks st.cfg.deadline_bits);
        {
          st with
          failures_rev =
            ( Deadline,
              Printf.sprintf
                "event-time budget exhausted after %d attempt(s) (%d wire bits + %d ticks \
                 >= %d)"
                st.attempts st.spent_bits st.backoff_ticks st.cfg.deadline_bits )
            :: st.failures_rev;
        }
      end
      else st
    in
    if st.cfg.deadline_bits - spent st >= fallback_reserve st.cfg then run_fallback st ~s ~t
    else fail_safe st
  end
  else run_attempt st rung ~s ~t

let checkpoint st =
  {
    Checkpoint.fingerprint = st.fingerprint;
    attempts = st.attempts;
    resumes = st.resumes;
    width = st.width;
    spent_bits = st.spent_bits;
    backoff_ticks = st.backoff_ticks;
    wasted_bits = st.wasted_bits;
    failures = List.rev_map (fun (k, d) -> (kind_name k, d)) st.failures_rev;
    candidate = st.candidate;
    cost = st.cost;
  }

let restore cfg ck =
  validate cfg;
  let fp = fingerprint cfg in
  if ck.Checkpoint.fingerprint <> fp then
    Error
      (Printf.sprintf "checkpoint: config fingerprint mismatch (snapshot %S, config %S)"
         ck.Checkpoint.fingerprint fp)
  else
    let rec kinds acc = function
      | [] -> Ok (List.rev acc)
      | (k, d) :: rest -> (
          match kind_of_name k with
          | Some kind -> kinds ((kind, d) :: acc) rest
          | None -> Error (Printf.sprintf "checkpoint: unknown failure kind %S" k))
    in
    match kinds [] ck.Checkpoint.failures with
    | Error _ as e -> e
    | Ok failures ->
        Obsv.Metrics.incr "session/resumes";
        Obsv.Trace.span Obsv.Phases.session_resume
          ~attrs:[ ("attempts", string_of_int ck.Checkpoint.attempts) ]
          (fun () -> ());
        if Obsv.Recorder.active () then
          Obsv.Recorder.event ~kind:"resume"
            ~attrs:[ ("attempts", string_of_int ck.Checkpoint.attempts) ]
            "restored from checkpoint";
        Ok
          {
            cfg;
            fingerprint = fp;
            attempts = ck.Checkpoint.attempts;
            resumes = ck.Checkpoint.resumes + 1;
            width = ck.Checkpoint.width;
            spent_bits = ck.Checkpoint.spent_bits;
            backoff_ticks = ck.Checkpoint.backoff_ticks;
            wasted_bits = ck.Checkpoint.wasted_bits;
            failures_rev = List.rev failures;
            candidate = ck.Checkpoint.candidate;
            cost = ck.Checkpoint.cost;
          }

let rec drive st ~s ~t ~on_checkpoint =
  match step st ~s ~t with
  | Done r -> r
  | Running st ->
      if Obsv.Recorder.active () then
        Obsv.Recorder.event ~kind:"checkpoint"
          ~attrs:[ ("attempts", string_of_int st.attempts) ]
          "checkpoint boundary";
      (match on_checkpoint with None -> () | Some f -> f (checkpoint st));
      drive st ~s ~t ~on_checkpoint

let run ?on_checkpoint cfg ~s ~t = drive (start cfg) ~s ~t ~on_checkpoint

let resume ?on_checkpoint cfg ck ~s ~t =
  match restore cfg ck with
  | Error _ as e -> e
  | Ok st -> Ok (drive st ~s ~t ~on_checkpoint)

let outcome_name = function
  | Completed _ -> "completed"
  | Degraded _ -> "degraded"
  | Failed_safe _ -> "failed_safe"

let result_of = function
  | Completed r | Degraded r -> Some r
  | Failed_safe _ -> None

module For_testing = struct
  let diagnosis_json d =
    Stats.Json.Obj
      [
        ("reason", Stats.Json.Str d.reason);
        ("rejected", Stats.Json.Int d.rejected);
        ("stalled", Stats.Json.Int d.stalled);
        ("crashed", Stats.Json.Int d.crashed);
        ( "last_failure",
          match d.last_failure with
          | None -> Stats.Json.Null
          | Some (k, detail) ->
              Stats.Json.Obj
                [ ("kind", Stats.Json.Str (kind_name k)); ("detail", Stats.Json.Str detail) ]
        );
        ("remaining_bits", Stats.Json.Int d.remaining_bits);
        ("reserve_bits", Stats.Json.Int d.reserve_bits);
      ]

  let set_json s = Stats.Json.List (Array.to_list s |> List.map (fun x -> Stats.Json.Int x))

  let ledger_json (l : ledger) =
    Stats.Json.Obj
      [
        ("spent_bits", Stats.Json.Int l.spent_bits);
        ("backoff_ticks", Stats.Json.Int l.backoff_ticks);
        ("wasted_bits", Stats.Json.Int l.wasted_bits);
        ("total_bits", Stats.Json.Int l.cost.Commsim.Cost.total_bits);
        ("messages", Stats.Json.Int l.cost.Commsim.Cost.messages);
        ("rounds", Stats.Json.Int l.cost.Commsim.Cost.rounds);
      ]

  let report_json (r : report) =
    Stats.Json.Obj
      ([
         ("outcome", Stats.Json.Str (outcome_name r.outcome));
         ( "result",
           match result_of r.outcome with None -> Stats.Json.Null | Some s -> set_json s );
         ("attempts", Stats.Json.Int r.attempts);
         ("resumes", Stats.Json.Int r.resumes);
         ("final_rung", Stats.Json.Str (rung_name r.final_rung));
         ("final_width", Stats.Json.Int r.final_width);
         ( "failures",
           Stats.Json.List
             (List.map
                (fun (k, d) ->
                  Stats.Json.Obj
                    [ ("kind", Stats.Json.Str (kind_name k)); ("detail", Stats.Json.Str d) ])
                r.failures) );
         ("ledger", ledger_json r.ledger);
       ]
      @
      match r.outcome with
      | Failed_safe { partial; diagnosis } ->
          [
            ( "partial",
              match partial with None -> Stats.Json.Null | Some s -> set_json s );
            ("diagnosis", diagnosis_json diagnosis);
          ]
      | Completed _ | Degraded _ -> [])
end
