type party = Prng.Rng.t -> universe:int -> Iset.t -> Commsim.Transport.t -> Iset.t
type base = { name : string; alice : party; bob : party }

let trivial_alice _rng ~universe:_ mine chan =
  Obsv.Trace.span Obsv.Phases.Trivial_offer (fun () ->
      Commsim.Transport.send chan (Wire.of_set mine));
  Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (Commsim.Transport.recv chan))

let trivial_bob _rng ~universe:_ mine chan =
  let received = Bitio.Set_codec.read_gaps (Bitio.Bitreader.create (Commsim.Transport.recv chan)) in
  let intersection = Iset.inter received mine in
  Obsv.Trace.span Obsv.Phases.Trivial_reply (fun () ->
      Commsim.Transport.send chan (Wire.of_set intersection));
  intersection

let trivial_base = { name = "trivial"; alice = trivial_alice; bob = trivial_bob }

let tree_base ?r ~k () =
  if k < 1 then invalid_arg "Resilient.tree_base";
  let r = match r with Some r -> max 1 r | None -> max 1 (Iterated_log.log_star k) in
  let party role rng ~universe mine chan = Tree_protocol.run_party role rng ~universe ~r ~k chan mine in
  {
    name = Printf.sprintf "tree-r%d" r;
    alice = party `Alice;
    bob = party `Bob;
  }

let bucket_base ~k () =
  if k < 1 then invalid_arg "Resilient.bucket_base";
  let party role rng ~universe mine chan = Bucket_protocol.run_party role rng ~universe ~k chan mine in
  { name = "bucket"; alice = party `Alice; bob = party `Bob }

let base_names = [ "trivial"; "tree"; "bucket" ]

let base_of_name name ~k =
  match name with
  | "trivial" -> trivial_base
  | "tree" -> tree_base ~k ()
  | "bucket" -> bucket_base ~k ()
  | _ ->
      invalid_arg
        ("unknown resilient protocol " ^ name ^ " (known: " ^ String.concat ", " base_names ^ ")")

type budget = { attempts : int; bits : int }

let default_budget = { attempts = 10; bits = max_int }

exception Corrupted of string

let seq_width = 20

(* The resilient transport: every payload travels as
   [seq (20 bits) | fingerprint (tag_bits) | payload], with the fingerprint
   a shared-randomness hash of seq and payload.  Damage the channel can do
   is either detected (flip/truncation: fingerprint mismatch; drop that
   desynchronizes: sequence gap) and aborts the attempt via [Corrupted], or
   absorbed (a duplicate re-delivers an already-consumed sequence number
   and is discarded).  Undetected corruption needs a fingerprint collision:
   probability [~2^-tag_bits] per message.

   Both fingerprints are taken in place: [Strhash.prefixed_int_tag]
   hashes [seq | payload] with the sequence number as a 20-bit prefix,
   the sender over its payload and the receiver over the payload bits
   inside the received frame, before anything is copied.  The one writer,
   [frame], assembles the outgoing frame word by word, so a message costs
   one frame copy on send and, only once the frame is accepted, one
   payload copy on receive.  A tag of at most 62 bits written as one int
   is bit-for-bit the tag [Strhash.apply] builds lane by lane. *)
let guard rng ~tag_bits chan =
  if tag_bits < 1 || tag_bits > 62 then invalid_arg "Resilient.guard: tag_bits";
  let h = Strhash.create (Prng.Rng.with_label rng "frame") ~bits:tag_bits in
  let frame = Bitio.Bitbuf.create () in
  let reader = Bitio.Bitreader.create Bitio.Bits.empty in
  let next_send = ref 0 and next_recv = ref 0 in
  let header = seq_width + tag_bits in
  let send payload =
    if !next_send >= 1 lsl seq_width then invalid_arg "Resilient.guard: sequence space exhausted";
    let seq = !next_send in
    incr next_send;
    let tag =
      Strhash.prefixed_int_tag h ~prefix:seq ~prefix_bits:seq_width payload ~pos:0
        ~len:(Bitio.Bits.length payload)
    in
    Bitio.Bitbuf.reset frame;
    Bitio.Bitbuf.write_bits frame ~width:seq_width seq;
    Bitio.Bitbuf.write_bits frame ~width:tag_bits tag;
    Bitio.Bitbuf.append frame payload;
    Commsim.Transport.send chan (Bitio.Bitbuf.contents frame)
  in
  let rec recv () =
    let received = Commsim.Transport.recv chan in
    let len = Bitio.Bits.length received - header in
    if len < 0 then raise (Corrupted "frame truncated");
    Bitio.Bitreader.reset reader received;
    let seq = Bitio.Bitreader.read_bits reader ~width:seq_width in
    let tag = Bitio.Bitreader.read_bits reader ~width:tag_bits in
    let ours =
      Strhash.prefixed_int_tag h ~prefix:seq ~prefix_bits:seq_width received ~pos:header ~len
    in
    if tag <> ours then raise (Corrupted "frame fingerprint mismatch")
    else if seq < !next_recv then recv () (* duplicate of a consumed frame *)
    else if seq > !next_recv then
      raise (Corrupted (Printf.sprintf "sequence gap: got %d, expected %d" seq !next_recv))
    else begin
      incr next_recv;
      Bitio.Bitreader.read_blob reader ~bits:len
    end
  in
  { Commsim.Transport.send; recv }

type failure = Check_rejected | Channel_lost of string | Party_crashed of string

type attempt_info = { index : int; width : int; bits : int; failure : failure option }

type report = {
  result : Iset.t;
  verified : bool;
  degraded : bool;
  attempts : int;
  failures : failure list;
  attempt_log : attempt_info list;
  check_bits_final : int;
  faulty_bits : int;
  fallback_bits : int;
  cost : Commsim.Cost.t;
  tallies : Commsim.Faults.tallies;
}

let max_check_bits = 512

(* Transport fingerprints stay at a fixed width: their job is detection
   (collision ~2^-32 per message), and growing them would make every retry
   a fatter flip target than the attempt that just failed. *)
let transport_tag_bits = 32

(* One guarded execution of [base] plus the equality check, as a reusable
   primitive: [rng] must already be the per-attempt generator (both parties
   derive base/check/transport labels from it), and [plan] must already be
   salted for this attempt.  [Resilient.run] and the session layer
   ([Session.Machine]) both drive their ladders through this function, so a
   session attempt is bit-for-bit the same execution a resilient retry
   would have performed. *)
let attempt_once base ~plan ~check_bits ~attempt rng ~universe s t =
  let base_rng = Prng.Rng.with_label rng "base" in
  let check_rng = Prng.Rng.with_label rng "check" in
  let frame_rng = Prng.Rng.with_label rng "transport" in
  let outcome, cost, tallies =
    Obsv.Trace.span Obsv.Phases.Resilient_attempt (fun () ->
        Obsv.Trace.attr "attempt" attempt;
        Obsv.Trace.attr "check_bits" check_bits;
        Commsim.Two_party.run_faulty ~plan
          ~alice:(fun chan ->
            let chan = guard frame_rng ~tag_bits:transport_tag_bits chan in
            let candidate = base.alice base_rng ~universe s chan in
            let accepted =
              Obsv.Trace.span Obsv.Phases.Resilient_verify (fun () ->
                  Equality.run_alice_set check_rng ~bits:check_bits chan candidate)
            in
            (candidate, accepted))
          ~bob:(fun chan ->
            let chan = guard frame_rng ~tag_bits:transport_tag_bits chan in
            let candidate = base.bob base_rng ~universe t chan in
            let accepted =
              Obsv.Trace.span Obsv.Phases.Resilient_verify (fun () ->
                  Equality.run_bob_set check_rng ~bits:check_bits chan candidate)
            in
            (candidate, accepted)))
  in
  let verdict =
    match outcome with
    | Commsim.Network.Completed ((candidate_a, ok_a), (_candidate_b, ok_b)) ->
        (* Both sides must have accepted: a flipped verdict bit can fool one
           side, not the side that computed the comparison locally. *)
        if ok_a && ok_b then Ok candidate_a else Error (Check_rejected, Some candidate_a)
    | Commsim.Network.Lost d -> Error (Channel_lost d.Commsim.Network.detail, None)
    | Commsim.Network.Crashed { rank; exn; after_messages } ->
        Error
          ( Party_crashed
              (Printf.sprintf "player %d: %s (after consuming %d message(s))" rank exn
                 after_messages),
            None )
  in
  (verdict, cost, tallies)

let run base ~plan ?(budget = default_budget) ?check_bits rng ~universe s t =
  Protocol.validate_inputs ~universe s t;
  if budget.attempts < 1 then invalid_arg "Resilient.run: budget.attempts";
  let k = max 1 (max (Array.length s) (Array.length t)) in
  let check_bits0 =
    match check_bits with
    | Some b -> if b < 1 then invalid_arg "Resilient.run: check_bits" else b
    | None -> max 24 k
  in
  let acc_cost = ref (Commsim.Cost.zero ~players:2) in
  let acc_tallies = ref (Commsim.Faults.create_tallies ~players:2) in
  let faulty_bits = ref 0 in
  let record cost tallies =
    acc_cost := Commsim.Cost.add_seq !acc_cost cost;
    acc_tallies := Commsim.Faults.merge !acc_tallies tallies;
    faulty_bits := !faulty_bits + cost.Commsim.Cost.total_bits
  in
  let finish ~result ~verified ~degraded ~attempts ~failures ~log ~width ~fallback_bits
      ~fallback_cost =
    let cost =
      match fallback_cost with
      | None -> !acc_cost
      | Some c -> Commsim.Cost.add_seq !acc_cost c
    in
    {
      result;
      verified;
      degraded;
      attempts;
      failures = List.rev failures;
      attempt_log = List.rev log;
      check_bits_final = width;
      faulty_bits = !faulty_bits;
      fallback_bits;
      cost;
      tallies = !acc_tallies;
    }
  in
  (* The reliable fallback: the deterministic exchange on a clean channel,
     modelling a retransmitting transport of known worst-case cost. *)
  let fallback ~attempts ~failures ~log ~width =
    Obsv.Metrics.incr "resilient/fallbacks";
    let (result, _), cost =
      Obsv.Trace.span Obsv.Phases.Resilient_fallback (fun () ->
          Commsim.Two_party.run
            ~alice:(fun chan -> trivial_alice rng ~universe s chan)
            ~bob:(fun chan -> trivial_bob rng ~universe t chan))
    in
    finish ~result ~verified:false ~degraded:true ~attempts ~failures ~log ~width
      ~fallback_bits:cost.Commsim.Cost.total_bits ~fallback_cost:(Some cost)
  in
  let rec attempt i ~width failures log =
    let attempt_rng = Prng.Rng.with_label rng (Printf.sprintf "resilient/attempt%d" i) in
    (* Each retry must face fresh channel noise: message indices restart at
       zero every run, so an unsalted plan would replay the exact damage
       that failed the previous attempt. *)
    Obsv.Metrics.incr "resilient/attempts";
    Obsv.Metrics.set_gauge "resilient/check_bits" width;
    let verdict, cost, tallies =
      attempt_once base
        ~plan:(Commsim.Faults.reseed plan ~salt:i)
        ~check_bits:width ~attempt:i attempt_rng ~universe s t
    in
    record cost tallies;
    let log_entry failure =
      { index = i; width; bits = cost.Commsim.Cost.total_bits; failure }
    in
    let retry failure =
      Obsv.Metrics.incr
        (match failure with
        | Check_rejected -> "resilient/check_rejected"
        | Channel_lost _ -> "resilient/channel_lost"
        | Party_crashed _ -> "resilient/party_crashed");
      let failures = failure :: failures in
      let log = log_entry (Some failure) :: log in
      (* Backoff in bits only answers check rejections: a rejection means
         the verification randomness itself may have been unlucky, so the
         next check buys exponentially more confidence.  Detected damage
         (Corrupted / Lost) says nothing against the current width. *)
      let width' =
        match failure with
        | Check_rejected -> min max_check_bits (2 * width)
        | Channel_lost _ | Party_crashed _ -> width
      in
      if i >= budget.attempts || !faulty_bits >= budget.bits then
        fallback ~attempts:i ~failures ~log ~width
      else attempt (i + 1) ~width:width' failures log
    in
    match verdict with
    | Ok result ->
        finish ~result ~verified:true ~degraded:false ~attempts:i ~failures
          ~log:(log_entry None :: log) ~width ~fallback_bits:0 ~fallback_cost:None
    | Error (failure, _unverified) -> retry failure
  in
  attempt 1 ~width:check_bits0 [] []

let failure_counts report =
  List.fold_left
    (fun (rej, lost, crash) -> function
      | Check_rejected -> (rej + 1, lost, crash)
      | Channel_lost _ -> (rej, lost + 1, crash)
      | Party_crashed _ -> (rej, lost, crash + 1))
    (0, 0, 0) report.failures
