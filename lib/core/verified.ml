type result = { outcome : Protocol.outcome; attempts : int; verified : bool }

let check_cost_players = 2

let run base ~bits ~max_attempts rng ~universe s t =
  if not base.Protocol.sandwich then
    invalid_arg "Verified.run: base protocol lacks the sandwich contract";
  if max_attempts < 1 then invalid_arg "Verified.run: max_attempts";
  let rec attempt i acc_cost =
    let attempt_rng = Prng.Rng.with_label rng ("verified/attempt" ^ string_of_int i) in
    Obsv.Metrics.incr "verified/attempts";
    let outcome =
      Obsv.Trace.span Obsv.Phases.Verified_attempt (fun () ->
          Obsv.Trace.attr "attempt" i;
          base.Protocol.run attempt_rng ~universe s t)
    in
    let eq_rng = Prng.Rng.with_label attempt_rng "verified/check" in
    let (passed, _), check_cost =
      Obsv.Trace.span Obsv.Phases.Verified_check (fun () ->
          Obsv.Trace.attr "attempt" i;
          Commsim.Two_party.run
            ~alice:(fun chan -> Equality.run_alice_set eq_rng ~bits chan outcome.Protocol.alice)
            ~bob:(fun chan -> Equality.run_bob_set eq_rng ~bits chan outcome.Protocol.bob))
    in
    if not passed then Obsv.Metrics.incr "verified/rejections";
    let acc_cost = Commsim.Cost.add_seq acc_cost (Commsim.Cost.add_seq outcome.Protocol.cost check_cost) in
    if passed || i >= max_attempts then
      { outcome = { outcome with Protocol.cost = acc_cost }; attempts = i; verified = passed }
    else attempt (i + 1) acc_cost
  in
  attempt 1 (Commsim.Cost.zero ~players:check_cost_players)

type party_result = { candidate : Iset.t; attempts : int; verified : bool }

let run_party role rng ~bits ~max_attempts chan ~party =
  let rec attempt i =
    let attempt_rng = Prng.Rng.with_label rng ("attempt" ^ string_of_int i) in
    let candidate =
      Obsv.Trace.span Obsv.Phases.Verified_attempt (fun () ->
          Obsv.Trace.attr "attempt" i;
          party attempt_rng chan)
    in
    let eq_rng = Prng.Rng.with_label attempt_rng "check" in
    let passed =
      Obsv.Trace.span Obsv.Phases.Verified_check (fun () ->
          match role with
          | `Alice -> Equality.run_alice_set eq_rng ~bits chan candidate
          | `Bob -> Equality.run_bob_set eq_rng ~bits chan candidate)
    in
    if passed || i >= max_attempts then { candidate; attempts = i; verified = passed }
    else attempt (i + 1)
  in
  attempt 1

let protocol base =
  {
    Protocol.name = "verified(" ^ base.Protocol.name ^ ")";
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        let k = max 1 (max (Array.length s) (Array.length t)) in
        (run base ~bits:(max 16 k) ~max_attempts:20 rng ~universe s t).outcome);
  }
