(* Tests for the adversarial channel: fault injection determinism, metering
   under damage, structured loss diagnoses, the resilient wrapper, and the
   soak harness's reproducibility. *)

open Commsim

let bits_of_int ~width v =
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width v;
  Bitio.Bitbuf.contents buf

let int_of_bits ~width payload =
  Bitio.Bitreader.read_bits (Bitio.Bitreader.create payload) ~width

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Deadlock (clean mode keeps the historical exception) ---------- *)

let test_deadlock_raises () =
  let starved (ep : Network.endpoint) = Network.recv ep ~from_:(1 - Network.rank ep) in
  match Network.run [| starved; starved |] with
  | _ -> Alcotest.fail "mutual recv must deadlock"
  | exception Network.Deadlock msg ->
      check_bool "diagnosis names a player" true
        (String.length msg > 0)

(* ---------- Dropped messages: structured Lost, not a hang ---------- *)

let test_drop_is_structured_lost () =
  let plan = Faults.uniform ~seed:7 (Faults.dropping 1.0) in
  let outcome, cost, tallies =
    Two_party.run_faulty ~plan
      ~alice:(fun chan -> chan.Chan.send (bits_of_int ~width:12 77))
      ~bob:(fun chan -> int_of_bits ~width:12 (chan.Chan.recv ()))
  in
  (match outcome with
  | Network.Lost d ->
      check "dropped messages" 1 d.Network.dropped;
      (match d.Network.blocked with
      | [ b ] ->
          check "blocked player" 1 b.Network.rank;
          Alcotest.(check (option int)) "waiting for alice" (Some 0) b.Network.waiting_for
      | _ -> Alcotest.fail "exactly one blocked player expected");
      check_bool "detail names the link" true (String.length d.Network.detail > 0)
  | Network.Completed _ -> Alcotest.fail "must not complete across a dropping channel"
  | Network.Crashed _ -> Alcotest.fail "nobody crashed");
  (* A dropped payload never crossed the wire: it costs nothing, and the
     damage lives in the tallies instead. *)
  check "dropped messages cost no bits" 0 cost.Cost.total_bits;
  let t = Faults.total tallies in
  check "tally: dropped messages" 1 t.Faults.dropped_messages;
  check "tally: dropped bits" 12 t.Faults.dropped_bits

(* ---------- Duplicates: metered once per delivered copy ---------- *)

let test_duplicate_metered_per_delivery () =
  let plan = Faults.uniform ~seed:3 { Faults.clean_link with Faults.dup = 1.0 } in
  let outcome, cost, tallies =
    Two_party.run_faulty ~plan
      ~alice:(fun chan -> chan.Chan.send (bits_of_int ~width:8 42))
      ~bob:(fun chan ->
        let a = int_of_bits ~width:8 (chan.Chan.recv ()) in
        let b = int_of_bits ~width:8 (chan.Chan.recv ()) in
        (a, b))
  in
  (match outcome with
  | Network.Completed ((), (a, b)) ->
      check "first copy" 42 a;
      check "second copy" 42 b
  | _ -> Alcotest.fail "duplication must still complete");
  check "each delivered copy is metered" 16 cost.Cost.total_bits;
  check "two messages crossed the wire" 2 cost.Cost.messages;
  let t = Faults.total tallies in
  check "tally: one duplicated message" 1 t.Faults.duplicated_messages;
  check "tally: two deliveries" 2 t.Faults.deliveries

(* ---------- Flip / truncation tallies ---------- *)

let test_flip_tally () =
  let plan = Faults.uniform ~seed:11 (Faults.flipping 1.0) in
  let outcome, _cost, tallies =
    Two_party.run_faulty ~plan
      ~alice:(fun chan -> chan.Chan.send (bits_of_int ~width:8 0b10110010))
      ~bob:(fun chan -> int_of_bits ~width:8 (chan.Chan.recv ()))
  in
  (match outcome with
  | Network.Completed ((), v) -> check "every bit flipped" 0b01001101 v
  | _ -> Alcotest.fail "flips alone must not block delivery");
  let t = Faults.total tallies in
  check "tally: flipped bits" 8 t.Faults.flipped_bits;
  check "tally: flipped messages" 1 t.Faults.flipped_messages

let test_truncation_tally () =
  let plan = Faults.uniform ~seed:5 { Faults.clean_link with Faults.trunc = 1.0 } in
  let outcome, cost, tallies =
    Two_party.run_faulty ~plan
      ~alice:(fun chan -> chan.Chan.send (bits_of_int ~width:32 0xDEAD))
      ~bob:(fun chan -> Bitio.Bits.length (chan.Chan.recv ()))
  in
  let received = match outcome with
    | Network.Completed ((), len) -> len
    | _ -> Alcotest.fail "truncation alone must not block delivery"
  in
  check_bool "a strict suffix was cut" true (received < 32);
  let t = Faults.total tallies in
  check "tally: truncated messages" 1 t.Faults.truncated_messages;
  check "tally accounts the missing bits" 32 (received + t.Faults.truncated_bits);
  check "cost meters the truncated length" received cost.Cost.total_bits

(* ---------- Crash capture ---------- *)

let test_crash_is_captured () =
  let plan = Faults.uniform ~seed:1 (Faults.flipping 1e-9) in
  let outcome, _cost, _tallies =
    Two_party.run_faulty ~plan
      ~alice:(fun chan -> chan.Chan.send (bits_of_int ~width:4 1))
      ~bob:(fun chan ->
        ignore (chan.Chan.recv ());
        failwith "codec choked")
  in
  match outcome with
  | Network.Crashed { rank; exn; _ } ->
      check "crashing player" 1 rank;
      check_bool "exception text preserved" true
        (String.length exn > 0)
  | _ -> Alcotest.fail "a raising player must surface as Crashed"

(* ---------- Seed replay: identical outcome, cost and tallies ---------- *)

let storm = { Faults.flip = 0.02; trunc = 0.1; dup = 0.3; drop = 0.1 }

let chatter (ep : Network.endpoint) =
  let chan = Chan.of_endpoint ep ~peer:(1 - Network.rank ep) in
  (* Fire-and-forget volleys: sends never block, so damage cannot hang us. *)
  for i = 1 to 5 do
    chan.Chan.send (bits_of_int ~width:16 (Network.rank ep + (i * 100)))
  done

let test_replay_determinism () =
  let run () =
    Network.run_faulty ~plan:(Faults.uniform ~seed:99 storm) [| chatter; chatter |]
  in
  let outcome1, cost1, tallies1 = run () in
  let outcome2, cost2, tallies2 = run () in
  check_bool "outcome replays" true
    ((match (outcome1, outcome2) with
     | Network.Completed _, Network.Completed _ -> true
     | Network.Lost a, Network.Lost b -> a = b
     | ( Network.Crashed { rank = ra; exn = ea; _ },
         Network.Crashed { rank = rb; exn = eb; _ } ) -> ra = rb && ea = eb
     | _ -> false));
  check_bool "cost replays" true (cost1 = cost2);
  check_bool "tallies replay" true (tallies1 = tallies2);
  let total = Faults.total tallies1 in
  check_bool "the storm did something" true
    (total.flipped_messages + total.truncated_messages + total.duplicated_messages
     + total.dropped_messages
    > 0)

let test_reseed () =
  let plan = Faults.uniform ~seed:99 storm in
  check_bool "reseed is deterministic" true
    (Faults.seed (Faults.reseed plan ~salt:4) = Faults.seed (Faults.reseed plan ~salt:4));
  check_bool "different salts give different noise" false
    (Faults.seed (Faults.reseed plan ~salt:1) = Faults.seed (Faults.reseed plan ~salt:2));
  check_bool "clean plan is a fixed point" true (Faults.reseed Faults.clean ~salt:5 == Faults.clean)

(* ---------- Fault draws against the per-bit reference ---------- *)

(* The channel as first written: the message's generator derived from the
   label string, one float draw per Bernoulli decision, one per payload
   bit.  [Faults.apply] must make every decision the same, leave the same
   payload bits and tally the same damage. *)
let reference_apply ~seed (link : Faults.link) ~from_ ~to_ ~index payload =
  let rng =
    Prng.Rng.with_label (Prng.Rng.of_int seed) (Printf.sprintf "faults/%d->%d/%d" from_ to_ index)
  in
  let draw p = Prng.Rng.float rng < p in
  let len = Bitio.Bits.length payload in
  if link.drop > 0.0 && draw link.drop then (None, (0, 0, 0, 0, 1))
  else begin
    let payload, truncated =
      if link.trunc > 0.0 && len > 0 && draw link.trunc then begin
        let keep = Prng.Rng.int rng len in
        (Bitio.Bitreader.read_blob (Bitio.Bitreader.create payload) ~bits:keep, len - keep)
      end
      else (payload, 0)
    in
    let flipped = ref 0 and damaged = ref payload in
    if link.flip > 0.0 then
      for i = 0 to Bitio.Bits.length payload - 1 do
        if draw link.flip then begin
          incr flipped;
          damaged := Bits_ref.flip !damaged i
        end
      done;
    let copies = if link.dup > 0.0 && draw link.dup then 2 else 1 in
    (Some (List.init copies (fun _ -> !damaged)), (copies, !flipped, truncated, copies - 1, 0))
  end

let gen_case =
  QCheck.Gen.(
    let rate = oneofl [ 0.0; 1e-3; 0.05; 0.5; 1.0 ] in
    let link =
      map
        (fun (flip, trunc, dup, drop) -> { Faults.flip; trunc; dup; drop })
        (quad rate rate rate (oneof [ return 0.0; rate ]))
    in
    quad small_nat link (pair (int_bound 2) (int_bound 5000)) (list_size (int_bound 300) bool))

let prop_apply_matches_reference =
  QCheck.Test.make ~name:"Faults.apply = per-bit reference (payloads, draws, tallies)" ~count:2000
    (QCheck.make gen_case)
    (fun (seed, link, (from_, index), bools) ->
      let to_ = (from_ + 1) mod 3 in
      let payload = Bitio.Bits.of_bools bools in
      let want, (deliveries, flipped, truncated, duplicated, dropped) =
        reference_apply ~seed link ~from_ ~to_ ~index payload
      in
      let c = Faults.channel (Faults.uniform ~seed link) ~players:3 in
      let got =
        match Faults.apply c ~from_ ~to_ ~index payload with
        | 0 -> None
        | copies -> Some (List.init copies (fun _ -> Faults.delivered c))
      in
      let t = (Faults.tallies c).Faults.links.(from_).(to_) in
      (match (want, got) with
      | None, None -> true
      | Some w, Some g -> List.length w = List.length g && List.for_all2 Bitio.Bits.equal w g
      | _ -> false)
      && t.Faults.deliveries = deliveries && t.Faults.flipped_bits = flipped
      && t.Faults.flipped_messages = Bool.to_int (flipped > 0)
      && t.Faults.truncated_bits = truncated
      && t.Faults.truncated_messages = Bool.to_int (truncated > 0)
      && t.Faults.duplicated_messages = duplicated && t.Faults.dropped_messages = dropped
      && t.Faults.dropped_bits = (if dropped > 0 then List.length bools else 0))

(* Each link's cell holds the hash of "faults/<from>-><to>/" and adds the
   index with [Label.index], which caches the index's tens: across the
   decade and digit-count edges, on both links of one channel in turn,
   every message must decide as the reference's generator, drawn with
   [with_label] on the whole label string, does. *)
let test_link_cells_match_labels () =
  let link = { Faults.flip = 0.05; trunc = 0.3; dup = 0.5; drop = 0.2 } in
  let payload = Bitio.Bits.of_bools (List.init 90 (fun i -> i mod 3 = 0)) in
  for seed = 0 to 15 do
    let c = Faults.channel (Faults.uniform ~seed link) ~players:2 in
    List.iter
      (fun index ->
        List.iter
          (fun (from_, to_) ->
            let want, _ = reference_apply ~seed link ~from_ ~to_ ~index payload in
            let got =
              match Faults.apply c ~from_ ~to_ ~index payload with
              | 0 -> None
              | copies -> Some (List.init copies (fun _ -> Faults.delivered c))
            in
            let same =
              match (want, got) with
              | None, None -> true
              | Some w, Some g ->
                  List.length w = List.length g && List.for_all2 Bitio.Bits.equal w g
              | _ -> false
            in
            let where = Printf.sprintf "seed %d, %d->%d, message %d" seed from_ to_ index in
            check_bool where true same)
          [ (0, 1); (1, 0) ])
      [ 0; 9; 10; 99; 100; 1000 ]
  done

(* A message on a noisy link that no fault hits allocates nothing: its
   generator is the link cell's own, every decision is an integer
   comparison, and the payload is handed on as it came. *)
let test_apply_quiet_allocation () =
  let quiet =
    Faults.uniform ~seed:3 { Faults.flip = 1e-12; trunc = 1e-12; dup = 1e-12; drop = 1e-12 }
  in
  let c = Faults.channel quiet ~players:2 in
  let payload = Bitio.Bits.of_bools (List.init 256 (fun i -> i mod 5 = 0)) in
  let send n =
    for index = 0 to n - 1 do
      let from_ = index land 1 in
      ignore (Sys.opaque_identity (Faults.apply c ~from_ ~to_:(1 - from_) ~index payload))
    done
  in
  send 20;
  let _, w = Obsv.Window.measure (fun () -> send 1000) in
  let _, empty = Obsv.Window.measure (fun () -> ()) in
  check "bytes over 1 000 quiet messages" 0
    (w.Obsv.Window.alloc_bytes - empty.Obsv.Window.alloc_bytes);
  let t = Faults.total (Faults.tallies c) in
  check "deliveries" 1020 t.Faults.deliveries;
  check "no damage" 0
    (t.Faults.flipped_bits + t.Faults.truncated_messages + t.Faults.duplicated_messages
   + t.Faults.dropped_messages);
  check_bool "the payload is handed on" true (Faults.delivered c == payload)

(* ---------- The guarded transport ---------- *)

(* Frames one guard sends, captured off a send-only transport. *)
let frames_of ~tag_bits ~seed payloads =
  let sent = ref [] in
  let chan =
    Transport.make
      ~send:(fun frame -> sent := frame :: !sent)
      ~recv:(fun () -> Alcotest.fail "send-only transport")
  in
  let g = Intersect.Resilient.guard (Prng.Rng.of_int seed) ~tag_bits chan in
  List.iter g.Transport.send payloads;
  List.rev !sent

(* The frame as first built: [seq | tag | payload] by concatenation, the
   tag [Strhash.apply] of [seq | payload]. *)
let reference_frame ~tag_bits ~seed =
  let h =
    Intersect.Strhash.create (Prng.Rng.with_label (Prng.Rng.of_int seed) "frame") ~bits:tag_bits
  in
  fun seq payload ->
    let seq = bits_of_int ~width:20 seq in
    Bits_ref.concat seq
      (Bits_ref.concat (Intersect.Strhash.apply h (Bits_ref.concat seq payload)) payload)

let gen_payloads = QCheck.Gen.(list_size (int_range 1 6) (list_size (int_bound 200) bool))

let prop_frames_match_reference =
  QCheck.Test.make ~name:"guard frames = concatenated reference frames" ~count:300
    (QCheck.make QCheck.Gen.(triple (int_range 1 62) small_nat gen_payloads))
    (fun (tag_bits, seed, payloads) ->
      let payloads = List.map Bitio.Bits.of_bools payloads in
      let reference = reference_frame ~tag_bits ~seed in
      List.for_all2 Bitio.Bits.equal
        (frames_of ~tag_bits ~seed payloads)
        (List.mapi reference payloads))

(* What a fresh receiving guard makes of one frame: the payload, or the
   text of the [Corrupted] it raised.  Any other exception escapes and
   fails the property. *)
let receive ~tag_bits ~seed frame =
  let pending = ref [ frame ] in
  let chan =
    Transport.make ~send:ignore ~recv:(fun () ->
        match !pending with
        | f :: rest ->
            pending := rest;
            f
        | [] -> Alcotest.fail "the guard asked for a second frame")
  in
  let g = Intersect.Resilient.guard (Prng.Rng.of_int seed) ~tag_bits chan in
  match g.Transport.recv () with
  | payload -> Ok payload
  | exception Intersect.Resilient.Corrupted why -> Error why

(* Decoder totality for the frame decoder: random bit strings, truncated
   frames and frames with flipped bits raise [Corrupted] and nothing
   else; an intact frame comes back as its payload. *)
let prop_guard_recv_total =
  QCheck.Test.make ~name:"guard recv is total: damaged frames raise only Corrupted" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 62) small_nat (list_size (int_bound 200) bool)
           (triple (int_bound 2) (list_size (int_bound 300) bool)
              (list_size (int_range 1 4) nat))))
    (fun (tag_bits, seed, payload, (mutation, noise, positions)) ->
      let payload = Bitio.Bits.of_bools payload in
      let frame = List.hd (frames_of ~tag_bits ~seed [ payload ]) in
      let n = Bitio.Bits.length frame in
      let damaged =
        match mutation with
        | 0 -> Bitio.Bits.of_bools noise
        | 1 ->
            Bitio.Bitreader.read_blob (Bitio.Bitreader.create frame)
              ~bits:(List.hd positions mod n)
        | _ -> List.fold_left (fun f i -> Bits_ref.flip f (i mod n)) frame positions
      in
      match receive ~tag_bits ~seed damaged with
      | Ok got -> (Bitio.Bits.equal damaged frame && Bitio.Bits.equal got payload) || tag_bits < 24
      | Error _ -> true)

let test_guard_tag_bits_range () =
  let chan = Transport.make ~send:ignore ~recv:(fun () -> Bitio.Bits.empty) in
  List.iter
    (fun tag_bits ->
      Alcotest.check_raises
        (Printf.sprintf "tag_bits = %d" tag_bits)
        (Invalid_argument "Resilient.guard: tag_bits")
        (fun () -> ignore (Intersect.Resilient.guard (Prng.Rng.of_int 1) ~tag_bits chan)))
    [ -1; 0; 63; 64; 128 ];
  List.iter
    (fun tag_bits ->
      let payload = bits_of_int ~width:30 0x2BADF00D in
      match receive ~tag_bits ~seed:4 (List.hd (frames_of ~tag_bits ~seed:4 [ payload ])) with
      | Ok got ->
          check_bool (Printf.sprintf "round trip at %d" tag_bits) true (Bitio.Bits.equal got payload)
      | Error why -> Alcotest.failf "intact frame rejected at tag_bits = %d: %s" tag_bits why)
    [ 1; 32; 48; 49; 62 ]

let guarded_pair ~plan ~link_rng ~alice ~bob =
  Two_party.run_faulty ~plan
    ~alice:(fun chan -> alice (Intersect.Resilient.guard link_rng ~tag_bits:32 chan))
    ~bob:(fun chan -> bob (Intersect.Resilient.guard link_rng ~tag_bits:32 chan))

(* Bytes a guarded ping-pong of [n] round trips of a 60-bit payload
   allocates over a clean run. *)
let guarded_ping_pong_bytes n =
  let payload = bits_of_int ~width:60 0x0123456789ABCDE in
  let rng = Prng.Rng.of_int 8 in
  let run () =
    Two_party.run
      ~alice:(fun chan ->
        let g = Intersect.Resilient.guard rng ~tag_bits:32 chan in
        for _ = 1 to n do
          g.Transport.send payload;
          ignore (Sys.opaque_identity (g.Transport.recv ()))
        done)
      ~bob:(fun chan ->
        let g = Intersect.Resilient.guard rng ~tag_bits:32 chan in
        for _ = 1 to n do
          g.Transport.send (g.Transport.recv ())
        done)
  in
  let _, w = Obsv.Window.measure (fun () -> ignore (Sys.opaque_identity (run ()))) in
  w.Obsv.Window.alloc_bytes

(* A guarded message costs its network delivery (32 B), one frame copy on
   send and one payload copy on receive (48 B each here: bytes plus the
   bit-string record), so a round trip reads 256 B.  Both fingerprints
   are taken in place: a [seq | payload] string assembled and viewed per
   fingerprint read 352. *)
let test_guard_round_trip_allocation () =
  ignore (guarded_ping_pong_bytes 10);
  let per_round_trip = (guarded_ping_pong_bytes 1000 - guarded_ping_pong_bytes 0) / 1000 in
  if per_round_trip > 288 then
    Alcotest.failf "%d bytes per guarded round trip (at most 288)" per_round_trip

let test_guard_absorbs_duplicates () =
  let plan = Faults.uniform ~seed:2 { Faults.clean_link with Faults.dup = 1.0 } in
  let outcome, _, _ =
    guarded_pair ~plan ~link_rng:(Prng.Rng.of_int 8)
      ~alice:(fun chan ->
        chan.Chan.send (bits_of_int ~width:8 5);
        chan.Chan.send (bits_of_int ~width:8 6))
      ~bob:(fun chan ->
        let first = int_of_bits ~width:8 (chan.Chan.recv ()) in
        let second = int_of_bits ~width:8 (chan.Chan.recv ()) in
        (first, second))
  in
  match outcome with
  | Network.Completed ((), (a, b)) ->
      check "first payload once" 5 a;
      check "second payload once" 6 b
  | _ -> Alcotest.fail "duplicates must be absorbed silently"

let test_guard_detects_flips () =
  let plan = Faults.uniform ~seed:2 (Faults.flipping 0.5) in
  let outcome, _, _ =
    guarded_pair ~plan ~link_rng:(Prng.Rng.of_int 8)
      ~alice:(fun chan -> chan.Chan.send (bits_of_int ~width:32 123456))
      ~bob:(fun chan -> ignore (chan.Chan.recv ()))
  in
  match outcome with
  | Network.Crashed { rank; exn; _ } ->
      check "the receiver aborts" 1 rank;
      check_bool "as a detected corruption" true
        (String.length exn > 0)
  | Network.Completed _ ->
      Alcotest.fail "a half-flipped frame passing the fingerprint is a 2^-32 event"
  | Network.Lost _ -> Alcotest.fail "nothing was dropped"

(* ---------- The resilient wrapper ---------- *)

let inputs = (Iset.of_list [ 1; 5; 9; 200; 1000 ], Iset.of_list [ 2; 5; 200; 512; 1000 ])
let truth = Iset.inter (fst inputs) (snd inputs)

let run_resilient ?(budget = Intersect.Resilient.default_budget) ~plan seed =
  let s, t = inputs in
  Intersect.Resilient.run Intersect.Resilient.trivial_base ~plan ~budget ~check_bits:24
    (Prng.Rng.of_int seed) ~universe:1024 s t

let test_resilient_exact_under_flips () =
  for seed = 1 to 20 do
    let report = run_resilient ~plan:(Faults.uniform ~seed (Faults.flipping 1e-3)) seed in
    check_bool
      (Printf.sprintf "seed %d returns the exact intersection" seed)
      true
      (Iset.equal report.Intersect.Resilient.result truth)
  done

let test_resilient_degrades_when_budget_exhausted () =
  (* A half-flipping channel defeats every attempt; the wrapper must fall
     back to the reliable trivial exchange and still be exact. *)
  let report =
    run_resilient
      ~budget:{ Intersect.Resilient.attempts = 2; bits = max_int }
      ~plan:(Faults.uniform ~seed:17 (Faults.flipping 0.5))
      17
  in
  check_bool "degraded" true report.Intersect.Resilient.degraded;
  check_bool "not verified" false report.Intersect.Resilient.verified;
  check "all budgeted attempts burned" 2 report.Intersect.Resilient.attempts;
  check "one failure per attempt" 2 (List.length report.Intersect.Resilient.failures);
  check_bool "fallback paid for" true (report.Intersect.Resilient.fallback_bits > 0);
  check_bool "still exact" true (Iset.equal report.Intersect.Resilient.result truth)

(* k < 1 is the caller's error, rejected when the base is built: the
   party would raise it on every attempt, which [Resilient.run] would
   count as crashes before falling back to the trivial exchange. *)
let test_resilient_bases_reject_empty_k () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "bucket k = %d" k)
        (Invalid_argument "Resilient.bucket_base")
        (fun () -> ignore (Intersect.Resilient.bucket_base ~k ()));
      Alcotest.check_raises
        (Printf.sprintf "tree k = %d" k)
        (Invalid_argument "Resilient.tree_base")
        (fun () -> ignore (Intersect.Resilient.tree_base ~k ())))
    [ 0; -1 ];
  ignore (Intersect.Resilient.bucket_base ~k:1 ());
  ignore (Intersect.Resilient.tree_base ~k:1 ())

let test_resilient_reproducible () =
  let plan = Faults.uniform ~seed:23 (Faults.flipping 1e-3) in
  let a = run_resilient ~plan 23 and b = run_resilient ~plan 23 in
  check_bool "identical report" true (a = b)

(* ---------- Verified.run_party exposes the verification signal ---------- *)

let run_party_pair ~alice_set ~bob_set ~max_attempts =
  let rng = Prng.Rng.of_int 31 in
  let (a, b), _cost =
    Two_party.run
      ~alice:(fun chan ->
        Intersect.Verified.run_party `Alice rng ~bits:24 ~max_attempts chan
          ~party:(fun _rng _chan -> alice_set))
      ~bob:(fun chan ->
        Intersect.Verified.run_party `Bob rng ~bits:24 ~max_attempts chan
          ~party:(fun _rng _chan -> bob_set))
  in
  (a, b)

let test_run_party_verified_signal () =
  let agree = Iset.of_list [ 4; 8 ] in
  let a, b = run_party_pair ~alice_set:agree ~bob_set:agree ~max_attempts:3 in
  check_bool "agreeing candidates verify" true a.Intersect.Verified.verified;
  check "one attempt suffices" 1 a.Intersect.Verified.attempts;
  check_bool "both sides agree on the signal" true (b.Intersect.Verified.verified);
  let a, b =
    run_party_pair ~alice_set:(Iset.of_list [ 1 ]) ~bob_set:(Iset.of_list [ 2 ]) ~max_attempts:3
  in
  check_bool "disagreeing candidates never verify" false a.Intersect.Verified.verified;
  check "the attempt budget is spent" 3 a.Intersect.Verified.attempts;
  check_bool "bob sees the failure too" false b.Intersect.Verified.verified

(* ---------- Soak harness reproducibility ---------- *)

let tiny_soak =
  {
    Workload.Soak.default with
    Workload.Soak.trials = 3;
    k = 8;
    universe_bits = 12;
    overlap = 4;
    protocols = [ "trivial" ];
    plans =
      [ ("clean", Faults.clean_link); ("flip-1e-3", Faults.flipping 1e-3) ];
    budget_attempts = 4;
    check_bits = 16;
  }

let test_soak_reproducible () =
  let json () = Stats.Json.to_string (Workload.Soak.to_json (Workload.Soak.run tiny_soak)) in
  Alcotest.(check string) "identical JSON reports" (json ()) (json ());
  let report = Workload.Soak.run tiny_soak in
  List.iter
    (fun c ->
      check
        (Printf.sprintf "%s/%s all exact" c.Workload.Soak.protocol c.Workload.Soak.plan)
        tiny_soak.Workload.Soak.trials c.Workload.Soak.exact;
      check_bool "within the paper bound" true c.Workload.Soak.within_bound)
    report.Workload.Soak.cells

let () =
  Alcotest.run "faults"
    [
      ( "network",
        [
          Alcotest.test_case "deadlock raises in clean mode" `Quick test_deadlock_raises;
          Alcotest.test_case "drop yields structured Lost" `Quick test_drop_is_structured_lost;
          Alcotest.test_case "duplicates metered per delivery" `Quick
            test_duplicate_metered_per_delivery;
          Alcotest.test_case "flip tally" `Quick test_flip_tally;
          Alcotest.test_case "truncation tally" `Quick test_truncation_tally;
          Alcotest.test_case "crash captured" `Quick test_crash_is_captured;
          Alcotest.test_case "seed replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "reseed derives fresh noise" `Quick test_reseed;
          QCheck_alcotest.to_alcotest prop_apply_matches_reference;
          Alcotest.test_case "link cells = label strings" `Quick test_link_cells_match_labels;
          Alcotest.test_case "quiet message allocates nothing" `Quick test_apply_quiet_allocation;
        ] );
      ( "guard",
        [
          Alcotest.test_case "absorbs duplicates" `Quick test_guard_absorbs_duplicates;
          Alcotest.test_case "detects flips" `Quick test_guard_detects_flips;
          Alcotest.test_case "tag_bits in [1, 62]" `Quick test_guard_tag_bits_range;
          Alcotest.test_case "bytes per round trip" `Quick test_guard_round_trip_allocation;
          QCheck_alcotest.to_alcotest prop_frames_match_reference;
          QCheck_alcotest.to_alcotest prop_guard_recv_total;
        ] );
      ( "resilient",
        [
          Alcotest.test_case "exact under bit flips" `Quick test_resilient_exact_under_flips;
          Alcotest.test_case "degrades on exhausted budget" `Quick
            test_resilient_degrades_when_budget_exhausted;
          Alcotest.test_case "reproducible" `Quick test_resilient_reproducible;
          Alcotest.test_case "bases reject k < 1" `Quick test_resilient_bases_reject_empty_k;
        ] );
      ( "verified",
        [ Alcotest.test_case "run_party exposes the signal" `Quick test_run_party_verified_signal ] );
      ( "soak",
        [ Alcotest.test_case "reproducible and exact" `Quick test_soak_reproducible ] );
    ]
