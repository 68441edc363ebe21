(* Hot-path optimization invariance tests.

   The pooling (Bitio.Pool), codec caching (Bitio.Memo), unboxed PRNG
   kernels, fused tag draws and word-level bit I/O are pure performance
   changes: every test here pins the contract that they leave results,
   costs and wire bits exactly as the unoptimized paths produce them — for
   all registered protocols, under injected channel damage, across domain
   counts, and down to the payload bytes (the golden digests). *)

open Intersect

let iset = Alcotest.testable Iset.pp Iset.equal
let bits_t = Alcotest.testable Bits_ref.pp Bitio.Bits.equal
let check_int = Alcotest.(check int)

let universe = 1 lsl 16

(* Both caches off: the pre-optimization execution path. *)
let unoptimized f = Bitio.Pool.For_testing.bypassed (fun () -> Bitio.Memo.For_testing.bypassed f)

let run_protocol ~name ~k =
  let protocol = Workload.Regress.protocol_of ~name ~k in
  let pair =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.of_int (1000 + (String.length name * 37) + k))
      ~universe ~size_s:k ~size_t:k ~overlap:(k / 2)
  in
  protocol.Protocol.run (Prng.Rng.of_int 123) ~universe pair.Workload.Setgen.s
    pair.Workload.Setgen.t

(* Every registered protocol: pooled/cached vs bypassed runs must agree on
   outputs and on every deterministic cost field. *)
let test_registered_suite_bypass_identical () =
  List.iter
    (fun name ->
      let k = 48 in
      let baseline = unoptimized (fun () -> run_protocol ~name ~k) in
      let optimized = run_protocol ~name ~k in
      Alcotest.check iset (name ^ " alice") baseline.Protocol.alice optimized.Protocol.alice;
      Alcotest.check iset (name ^ " bob") baseline.Protocol.bob optimized.Protocol.bob;
      check_int (name ^ " bits") baseline.Protocol.cost.Commsim.Cost.total_bits
        optimized.Protocol.cost.Commsim.Cost.total_bits;
      check_int (name ^ " messages") baseline.Protocol.cost.Commsim.Cost.messages
        optimized.Protocol.cost.Commsim.Cost.messages;
      check_int (name ^ " rounds") baseline.Protocol.cost.Commsim.Cost.rounds
        optimized.Protocol.cost.Commsim.Cost.rounds)
    Workload.Regress.protocol_names

(* Payload builders: the pooled writers must emit byte-identical wire bits
   (not just equal costs). *)
let test_wire_payloads_bit_identical () =
  let set = [| 3; 17; 100; 4095; 65535 |] in
  let iset_of a = Iset.of_array a in
  let pooled = Wire.of_set (iset_of set) in
  let plain = unoptimized (fun () -> Wire.of_set (iset_of set)) in
  Alcotest.check bits_t "of_set" plain pooled;
  Alcotest.check bits_t "gamma_msg" (unoptimized (fun () -> Wire.gamma_msg 777)) (Wire.gamma_msg 777);
  let flags = Array.init 97 (fun i -> i mod 3 = 0) in
  Alcotest.check bits_t "bitmap_msg" (unoptimized (fun () -> Wire.bitmap_msg flags))
    (Wire.bitmap_msg flags)

(* The binomial memo is invisible: cached coefficients and codec widths
   equal the direct bignum computation, and the enumerative codec emits
   identical bits with and without the cache. *)
let test_memo_transparent () =
  List.iter
    (fun (n, k) ->
      let cached = Bitio.Memo.binomial n k in
      let direct = Bitio.Memo.For_testing.bypassed (fun () -> Bitio.Memo.binomial n k) in
      Alcotest.(check bool)
        (Printf.sprintf "C(%d,%d)" n k)
        true
        (Bitio.Bignat.compare direct cached = 0);
      check_int
        (Printf.sprintf "bits C(%d,%d)" n k)
        (Bitio.Memo.For_testing.bypassed (fun () -> Bitio.Memo.binomial_bits ~n ~k))
        (Bitio.Memo.binomial_bits ~n ~k))
    [ (0, 0); (1, 0); (64, 32); (256, 17); (1024, 3); (4096, 2) ];
  let set = Array.init 24 (fun i -> (i * 131) mod 4096) in
  Array.sort compare set;
  let encode () =
    let buf = Bitio.Bitbuf.create ~capacity:256 () in
    Bitio.Enum_codec.write buf ~universe:4096 set;
    Bitio.Bitbuf.contents buf
  in
  Alcotest.check bits_t "enum codec" (unoptimized encode) (encode ())

(* Injected channel damage: the soak harness drives Faults-damaged
   executions end to end; its full report (including damage tallies and
   per-cell outcomes) must not notice the caches. *)
let test_faults_damage_bypass_identical () =
  let report () =
    Stats.Json.to_string (Workload.Soak.to_json (Workload.Soak.run ~domains:1 Workload.Soak.smoke))
  in
  let baseline = unoptimized report in
  Alcotest.(check string) "soak report under damage" baseline (report ())

(* Domain-parallel trials: the DLS-backed pool and memo are per-domain, so
   running the same seeded trials on one or two domains must produce the
   same per-trial costs. *)
let test_domains_identical () =
  let trial i =
    let outcome = run_protocol ~name:"bucket" ~k:(32 + (4 * i)) in
    ( outcome.Protocol.cost.Commsim.Cost.total_bits,
      outcome.Protocol.cost.Commsim.Cost.messages,
      Iset.cardinal outcome.Protocol.alice )
  in
  let seq = Engine.Pool.map ~domains:1 ~trials:4 trial in
  let par = Engine.Pool.map ~domains:2 ~trials:4 trial in
  Array.iteri
    (fun i (bits, msgs, card) ->
      let bits', msgs', card' = par.(i) in
      check_int (Printf.sprintf "trial %d bits" i) bits bits';
      check_int (Printf.sprintf "trial %d messages" i) msgs msgs';
      check_int (Printf.sprintf "trial %d cardinal" i) card card')
    seq

(* The unboxed SplitMix64 against the published vectors and an inline
   Int64 reference, and the unboxed [step]/[out_hi]/[out_lo] face against
   [next]. *)
let ref_splitmix state =
  let s = Int64.add !state 0x9E3779B97F4A7C15L in
  state := s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let test_splitmix_reference () =
  let g = Prng.Splitmix64.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "vector (seed 0)" expected (Prng.Splitmix64.For_testing.next g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  for seed = 0 to 99 do
    let s = Int64.mul (Int64.of_int ((seed * 2654435761) + 1)) 0x9E3779B97F4A7C15L in
    let g = Prng.Splitmix64.create s in
    let r = ref s in
    for _ = 1 to 200 do
      Alcotest.(check int64) "step = Int64 reference" (ref_splitmix r) (Prng.Splitmix64.For_testing.next g)
    done
  done;
  let a = Prng.Splitmix64.create 42L and b = Prng.Splitmix64.create 42L in
  for _ = 1 to 100 do
    let boxed = Prng.Splitmix64.For_testing.next a in
    Prng.Splitmix64.step b;
    let unboxed =
      Int64.logor
        (Int64.shift_left (Int64.of_int (Prng.Splitmix64.out_hi b)) 32)
        (Int64.of_int (Prng.Splitmix64.out_lo b))
    in
    Alcotest.(check int64) "step/out = next" boxed unboxed
  done

(* The unboxed draw paths (bits / bool / float) against their Int64
   formulations, sharing one reference stream. *)
let test_rng_draws_reference () =
  let seed = 0x1234_5678_9ABCL in
  let rng = Prng.Rng.of_seed seed in
  let r = ref seed in
  for i = 1 to 500 do
    let width = 1 + (i * 17 mod 62) in
    let want = Int64.to_int (Int64.shift_right_logical (ref_splitmix r) (64 - width)) in
    check_int "bits" want (Prng.Rng.bits rng ~width);
    Alcotest.(check bool) "bool" (Int64.compare (ref_splitmix r) 0L < 0) (Prng.Rng.bool rng);
    let wantf =
      float_of_int (Int64.to_int (Int64.shift_right_logical (ref_splitmix r) 11))
      /. 9007199254740992.0
    in
    Alcotest.(check (float 0.0)) "float" wantf (Prng.Rng.float rng)
  done

(* The unboxed FNV-1a behind [Rng.with_label], via an inline Int64
   reference of the full label-derivation pipeline. *)
let ref_fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L) s;
  !h

let test_with_label_reference () =
  List.iter
    (fun label ->
      let root = 0x0FEDCBA987654321L in
      let derived = Prng.Rng.with_label (Prng.Rng.of_seed root) label in
      let reference =
        Prng.Rng.of_seed (Prng.Splitmix64.For_testing.mix (Int64.logxor root (ref_fnv1a64 label)))
      in
      for _ = 1 to 50 do
        check_int ("with_label " ^ label)
          (Prng.Rng.bits reference ~width:62)
          (Prng.Rng.bits derived ~width:62)
      done)
    [ ""; "a"; "regress/bucket/k1024"; "eqb/joint/g7/t3"; "tree/bi/leaf12/run2" ]

(* One reused derivation cell — restart, mark and rewind, negative and
   multi-digit integers — derives exactly the generators [with_label]
   derives from the concatenated labels. *)
let test_label_cell_reuse () =
  let root = Prng.Rng.of_seed 0x0123456789ABCDEFL in
  let cell = Prng.Rng.Label.start root in
  let same label gen =
    let reference = Prng.Rng.with_label root label in
    for _ = 1 to 4 do
      check_int label (Prng.Rng.bits reference ~width:62) (Prng.Rng.bits gen ~width:62)
    done
  in
  for g = 0 to 3 do
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/g";
    Prng.Rng.Label.add_int cell (g * 97);
    Prng.Rng.Label.add_char cell '/';
    Prng.Rng.Label.mark cell;
    List.iter
      (fun i ->
        Prng.Rng.Label.rewind cell;
        Prng.Rng.Label.add_int cell i;
        same (Printf.sprintf "eqb/g%d/%d" (g * 97) i) (Prng.Rng.Label.finish cell))
      [ 0; 7; -12; 1000; max_int ];
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.rewind cell;
    Prng.Rng.Label.add cell "joint";
    same "joint" (Prng.Rng.Label.finish cell)
  done

(* [Label.add_int] against the string it stands for: every n to 10^5,
   each power of ten and its neighbours (the packed path ends at 10^15),
   the extremes and negative values. *)
let test_label_add_int () =
  let root = Prng.Rng.of_int 5 in
  let a = Prng.Rng.Label.start root and b = Prng.Rng.Label.start root in
  let check n =
    Prng.Rng.Label.restart a;
    Prng.Rng.Label.restart b;
    Prng.Rng.Label.add a "x";
    Prng.Rng.Label.add b "x";
    Prng.Rng.Label.add_int a n;
    Prng.Rng.Label.add b (string_of_int n);
    if
      Prng.Rng.bits (Prng.Rng.Label.finish a) ~width:62
      <> Prng.Rng.bits (Prng.Rng.Label.finish b) ~width:62
    then Alcotest.failf "add_int %d" n
  in
  for n = 0 to 100_000 do
    check n
  done;
  let rec powers p j acc = if j > 18 then acc else powers (p * 10) (j + 1) ((p - 1) :: p :: (p + 1) :: acc) in
  List.iter
    (fun n -> check n; check (-n))
    (powers 1 0 [ 999_999_999_999_999; 1_000_000_000_000_000; max_int; 123_456_789_012_345_678 ]);
  List.iter check [ min_int; min_int + 1 ]

(* [Label.draws] against [Rng.int (Label.finish d) (2^61 - 1)]: draw for
   draw, while the cell's buffer grows, without moving the label or a
   generator [finish] handed out earlier. *)
let test_label_draws () =
  let p61 = (1 lsl 61) - 1 in
  let root = Prng.Rng.of_int 6 in
  let cell = Prng.Rng.Label.start root in
  for i = 0 to 299 do
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "draws/";
    Prng.Rng.Label.add_int cell i;
    let n = i mod 40 in
    let earlier = Prng.Rng.Label.finish cell in
    let first = Prng.Rng.int earlier p61 in
    let got = Array.sub (Prng.Rng.Label.draws cell n) 0 n in
    let reference = Prng.Rng.Label.finish cell in
    let want = Array.init n (fun _ -> Prng.Rng.int reference p61) in
    Alcotest.(check (array int)) (Printf.sprintf "draws %d" i) want got;
    if n > 0 then check_int "first" first want.(0)
  done;
  let g = Prng.Rng.Label.finish cell in
  let a = Prng.Rng.bits g ~width:62 in
  ignore (Prng.Rng.Label.draws cell 3 : int array);
  let b = Prng.Rng.bits g ~width:62 in
  let ref_gen =
    let d = Prng.Rng.Label.start root in
    Prng.Rng.Label.add d "draws/299";
    Prng.Rng.Label.finish d
  in
  check_int "handed-out generator, draw 1" (Prng.Rng.bits ref_gen ~width:62) a;
  check_int "handed-out generator, draw 2" (Prng.Rng.bits ref_gen ~width:62) b

let payload_of len salt = Bitio.Bits.of_bools (List.init len (fun i -> ((i * 7) + salt) mod 11 < 4))

(* The fused draw-and-tag forms against [create] + [apply] on the
   generator the cell's [finish] derives: same tag bits, same verdicts,
   and the reader advanced by exactly [bits], for single- and multi-lane
   widths and every payload length to 200 — the empty payload and
   lengths that are not multiples of the 24-bit chunk (or of the 48-bit
   chunk pair) included.  Each reference is drawn after the fused form
   used the cell, so the fused forms must leave its label as it was. *)
let test_fused_strhash () =
  let root = Prng.Rng.of_int 77 in
  let cell = Prng.Rng.Label.start root in
  let buf = Bitio.Bitbuf.create () in
  for bits = 1 to 150 do
    for len = 0 to 200 do
      let label = Printf.sprintf "fused/%d/%d" bits len in
      Prng.Rng.Label.restart cell;
      Prng.Rng.Label.add cell label;
      let payload = payload_of len bits in
      let other = payload_of len (bits + 1) in
      Bitio.Bitbuf.reset buf;
      Strhash.draw_write cell ~bits buf payload;
      let tag = Strhash.apply (Strhash.create (Prng.Rng.Label.finish cell) ~bits) payload in
      if not (Bitio.Bits.equal tag (Bitio.Bitbuf.contents buf)) then Alcotest.failf "%s write" label;
      List.iter
        (fun (what, mine) ->
          let reader = Bitio.Bitreader.create tag in
          let got = Strhash.draw_matches cell ~bits reader mine in
          let want =
            Bitio.Bits.equal tag (Strhash.apply (Strhash.create (Prng.Rng.Label.finish cell) ~bits) mine)
          in
          if got <> want then Alcotest.failf "%s matches %s" label what;
          if Bitio.Bits.length tag - Bitio.Bitreader.remaining reader <> bits then
            Alcotest.failf "%s reader advance" label)
        [ ("same", payload); ("other", other) ]
    done
  done

(* The per-tag path of batch equality — restart the run's label cell,
   fold the coordinates, draw and write or check a multi-lane tag —
   allocates nothing once the writer has grown. *)
let test_tag_pipeline_allocation_free () =
  let root = Prng.Rng.of_int 9 in
  let cell = Prng.Rng.Label.start root in
  let payload = Bitio.Bits.of_bools (List.init 100 (fun i -> i mod 3 = 0)) in
  let buf = Bitio.Bitbuf.create ~capacity:(1000 * 80) () in
  let label i =
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "eqb/g";
    Prng.Rng.Label.add_int cell i;
    cell
  in
  let reps = 1000 in
  let w0 = Gc.minor_words () in
  for i = 1 to reps do
    Strhash.draw_write (label i) ~bits:80 buf payload
  done;
  let w1 = Gc.minor_words () in
  let reader = Bitio.Bitreader.of_bitbuf buf in
  let ok = ref true in
  let w2 = Gc.minor_words () in
  for i = 1 to reps do
    ok := Strhash.draw_matches (label i) ~bits:80 reader payload && !ok
  done;
  let w3 = Gc.minor_words () in
  Alcotest.(check bool) "tags match" true !ok;
  Alcotest.(check bool)
    (Printf.sprintf "write: %.0f words for %d tags" (w1 -. w0) reps)
    true
    (w1 -. w0 < 16.0);
  Alcotest.(check bool)
    (Printf.sprintf "match: %.0f words for %d tags" (w3 -. w2) reps)
    true
    (w3 -. w2 < 16.0)

(* The range forms against [create] + [apply] on the extracted copy of
   the range, and against the whole-payload forms on it: same tag bits,
   same verdict, the reader advanced by exactly [bits], for every start
   and length to 200 — across the 24- and 48-bit chunk boundaries on both
   ends. *)
let test_range_strhash () =
  let payload = Bitio.Bits.of_bools (List.init 400 (fun i -> ((i * 13) + (i / 7)) mod 5 < 2)) in
  let extract ~pos ~len =
    let buf = Bitio.Bitbuf.create ~capacity:len () in
    for i = pos to pos + len - 1 do
      Bitio.Bitbuf.write_bit buf (Bitio.Bits.get payload i)
    done;
    Bitio.Bitbuf.contents buf
  in
  let cell = Prng.Rng.Label.start (Prng.Rng.of_int 12) in
  let range = Bitio.Bitbuf.create () and whole = Bitio.Bitbuf.create () in
  for pos = 0 to 200 do
    for len = 0 to 200 do
      let name = Printf.sprintf "pos %d len %d" pos len in
      let copy = extract ~pos ~len in
      let bits = 1 + ((pos + len) mod 70) in
      Prng.Rng.Label.restart cell;
      Prng.Rng.Label.add_int cell ((pos * 1000) + len);
      Bitio.Bitbuf.reset range;
      Bitio.Bitbuf.reset whole;
      Strhash.draw_write_range cell ~bits range payload ~pos ~len;
      Strhash.draw_write cell ~bits whole copy;
      let tag = Strhash.apply (Strhash.create (Prng.Rng.Label.finish cell) ~bits) copy in
      Alcotest.check bits_t (name ^ " write") tag (Bitio.Bitbuf.contents range);
      Alcotest.check bits_t (name ^ " whole") tag (Bitio.Bitbuf.contents whole);
      let reader = Bitio.Bitreader.of_bitbuf whole in
      Alcotest.(check bool)
        (name ^ " matches")
        true
        (Strhash.draw_matches_range cell ~bits reader payload ~pos ~len);
      check_int (name ^ " reader advance") bits
        (Bitio.Bitbuf.length whole - Bitio.Bitreader.remaining reader)
    done
  done;
  Alcotest.check_raises "range past the end" (Invalid_argument "Strhash: range out of bounds")
    (fun () -> Strhash.draw_write_range cell ~bits:8 range payload ~pos:390 ~len:11)

(* The range path the tree's node tags take allocates nothing either. *)
let test_range_pipeline_allocation_free () =
  let root = Prng.Rng.of_int 11 in
  let cell = Prng.Rng.Label.start root in
  let payload = Bitio.Bits.of_bools (List.init 300 (fun i -> i mod 5 = 0)) in
  let buf = Bitio.Bitbuf.create ~capacity:(1000 * 80) () in
  let label i =
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "tree/eq/s";
    Prng.Rng.Label.add_int cell i;
    cell
  in
  let reps = 1000 in
  let w0 = Gc.minor_words () in
  for i = 1 to reps do
    Strhash.draw_write_range (label i) ~bits:80 buf payload ~pos:(i mod 50) ~len:(100 + (i mod 150))
  done;
  let w1 = Gc.minor_words () in
  let reader = Bitio.Bitreader.of_bitbuf buf in
  let ok = ref true in
  let w2 = Gc.minor_words () in
  for i = 1 to reps do
    ok :=
      Strhash.draw_matches_range (label i) ~bits:80 reader payload ~pos:(i mod 50)
        ~len:(100 + (i mod 150))
      && !ok
  done;
  let w3 = Gc.minor_words () in
  Alcotest.(check bool) "tags match" true !ok;
  Alcotest.(check bool)
    (Printf.sprintf "write: %.0f words for %d tags" (w1 -. w0) reps)
    true
    (w1 -. w0 < 16.0);
  Alcotest.(check bool)
    (Printf.sprintf "match: %.0f words for %d tags" (w3 -. w2) reps)
    true
    (w3 -. w2 < 16.0)

(* A forged tag count fails before it can size anything: a huge gamma
   count in Bob's re-run message raises [Underflow] with no large
   allocation, as does the same count handed to the tag table. *)
let test_forged_rerun_count () =
  let k = 64 and universe = 1 lsl 16 in
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 31) ~universe ~size_s:k ~size_t:k
      ~overlap:(k / 2)
  in
  let rng = Prng.Rng.of_int 32 in
  let sent = ref [] in
  let capture (chan : Commsim.Transport.t) =
    Commsim.Transport.make
      ~send:(fun payload ->
        sent := payload :: !sent;
        chan.send payload)
      ~recv:chan.recv
  in
  ignore
    (Commsim.Two_party.run
       ~alice:(fun chan ->
         Tree_protocol.run_party `Alice rng ~universe ~r:1 ~k (capture chan) pair.Workload.Setgen.s)
       ~bob:(fun chan -> Tree_protocol.run_party `Bob rng ~universe ~r:1 ~k chan pair.Workload.Setgen.t));
  let node_tags = List.hd (List.rev !sent) in
  let script = ref [ node_tags; Wire.gamma_msg (1 lsl 40) ] in
  let chan =
    Commsim.Transport.make ~send:ignore ~recv:(fun () ->
        match !script with
        | payload :: rest ->
            script := rest;
            payload
        | [] -> Alcotest.fail "Bob read past the script")
  in
  let allocated f =
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    (match f () with
    | () -> Alcotest.fail "forged count accepted"
    | exception Bitio.Bitreader.Underflow -> ());
    Gc.minor ();
    Gc.allocated_bytes () -. b0
  in
  let bytes =
    allocated (fun () ->
        ignore (Tree_protocol.run_party `Bob rng ~universe ~r:1 ~k chan pair.Workload.Setgen.t))
  in
  Alcotest.(check bool) (Printf.sprintf "tree: %.0f bytes" bytes) true (bytes < 1e6);
  let reader = Bitio.Bitreader.create (Wire.gamma_msg 5) in
  let bytes =
    allocated (fun () ->
        ignore (Basic_intersection.read_tag_keys reader ~bits:100 ~count:(1 lsl 40)))
  in
  Alcotest.(check bool) (Printf.sprintf "table: %.0f bytes" bytes) true (bytes < 1e4)

(* Basic-Intersection's tag tables: int-keyed up to 62 bits, string-keyed
   beyond — both must filter exactly like a table of [Bits.key]s of the
   peer's tags, false positives included (narrow tags collide often). *)
let test_tag_tables () =
  let rng = Prng.Rng.of_int 5 in
  let mine = Iset.of_list (List.init 300 (fun i -> (i * 37) mod 5000)) in
  let theirs = Iset.of_list (List.init 300 (fun i -> (i * 53) mod 5000)) in
  List.iter
    (fun bits ->
      let fn = Strhash.create (Prng.Rng.with_label rng (string_of_int bits)) ~bits in
      let sent = Bitio.Pool.payload (fun buf -> Basic_intersection.write_tags buf fn theirs) in
      let table =
        Basic_intersection.read_tag_keys (Bitio.Bitreader.create sent) ~bits
          ~count:(Iset.cardinal theirs)
      in
      let keys = Hashtbl.create 64 in
      let reader = Bitio.Bitreader.create sent in
      Array.iter
        (fun _ -> Hashtbl.replace keys (Bitio.Bits.key (Bitio.Bitreader.read_blob reader ~bits)) ())
        theirs;
      let reference = Iset.filter (fun x -> Hashtbl.mem keys (Bitio.Bits.key (Strhash.apply_int fn x))) mine in
      Alcotest.check iset
        (Printf.sprintf "%d-bit filter" bits)
        reference
        (Basic_intersection.filter_by_tags fn table mine);
      if bits <= 62 then
        Array.iter
          (fun x ->
            let tag = Strhash.apply_int fn x in
            check_int "int_tag" (Bitio.Bits.extract tag ~pos:0 ~width:bits) (Strhash.int_tag fn x))
          mine)
    [ 1; 3; 8; 24; 47; 48; 49; 61; 62; 63; 64; 96; 130 ]

(* A narrow function drawn from the label cell tags integers exactly as
   the function [create] builds on the generator [finish] derives. *)
let test_cell_int_fn () =
  let cell = Prng.Rng.Label.start (Prng.Rng.of_int 41) in
  let lanes = Array.make Strhash.int_fn_slots 0 in
  for bits = 1 to 62 do
    Prng.Rng.Label.restart cell;
    Prng.Rng.Label.add cell "tree/bi/leaf";
    Prng.Rng.Label.add_int cell bits;
    Strhash.draw_int_fn cell ~bits lanes;
    let fn = Strhash.create (Prng.Rng.Label.finish cell) ~bits in
    List.iter
      (fun x ->
        check_int
          (Printf.sprintf "%d bits, x = %d" bits x)
          (Strhash.int_tag fn x)
          (Strhash.stored_int_tag lanes ~bits x))
      [ 0; 1; 2; 12_345; (1 lsl 31) + 7; (1 lsl 60) - 1 ]
  done

(* ---------- the tree's stage pipeline ---------- *)

(* A random leaf layout as the tree runner builds it: sorted distinct
   elements, counting-sorted by a random leaf. *)
let random_layout rng =
  let leaves = 1 + Prng.Rng.int rng 40 and n = Prng.Rng.int rng 120 in
  let mine = Array.make n 0 in
  for i = 0 to n - 1 do
    let prev = if i = 0 then -1 else mine.(i - 1) in
    mine.(i) <- prev + 1 + Prng.Rng.int rng (1 lsl Prng.Rng.int rng 20)
  done;
  let leaf = Array.init n (fun _ -> Prng.Rng.int rng leaves) in
  let start = Array.make (leaves + 1) 0 in
  Array.iter (fun u -> start.(u + 1) <- start.(u + 1) + 1) leaf;
  for u = 1 to leaves do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let idx = Array.make n 0 and live = Array.make leaves 0 in
  Array.iteri
    (fun i u ->
      idx.(start.(u) + live.(u)) <- i;
      live.(u) <- live.(u) + 1)
    leaf;
  (leaves, mine, idx, start, live)

(* Three rounds of random re-run outcomes (each leaf changes with
   probability 1/3, losing a random subset of its elements, possibly
   none), each patched into the other buffer as the runner does: the
   patched buffer and offsets equal a fresh [encode_leaves], bit for
   bit. *)
let prop_patch_leaves =
  QCheck.Test.make ~name:"patched stage buffer = fresh encode_leaves" ~count:300 QCheck.int
    (fun seed ->
      let module T = Tree_protocol.For_testing in
      let rng = Prng.Rng.of_int seed in
      let leaves, mine, idx, start, live = random_layout rng in
      let off = Array.make (leaves + 1) 0 and fresh_off = Array.make (leaves + 1) 0 in
      let cur = ref (Bitio.Bitbuf.create ()) and spare = ref (Bitio.Bitbuf.create ()) in
      let fresh = Bitio.Bitbuf.create () in
      T.encode_leaves !cur ~leaves ~off mine idx start live;
      let changed = Array.make leaves 0 in
      List.for_all
        (fun _ ->
          let nchanged = ref 0 in
          for u = 0 to leaves - 1 do
            if Prng.Rng.int rng 3 = 0 then begin
              changed.(!nchanged) <- u;
              incr nchanged;
              let s = start.(u) in
              let w = ref s in
              for j = s to s + live.(u) - 1 do
                if Prng.Rng.bool rng then begin
                  idx.(!w) <- idx.(j);
                  incr w
                end
              done;
              live.(u) <- !w - s
            end
          done;
          T.patch_leaves !spare (Bitio.Bitbuf.view !cur) ~leaves ~off ~changed ~nchanged:!nchanged
            mine idx start live;
          let src = !cur in
          cur := !spare;
          spare := src;
          T.encode_leaves fresh ~leaves ~off:fresh_off mine idx start live;
          Bitio.Bits.equal (Bitio.Bitbuf.view !cur) (Bitio.Bitbuf.view fresh) && off = fresh_off)
        [ 1; 2; 3 ])

(* Node labels grouped ten to a prefix hash derive what the printed label
   derives, across every digit-count boundary up to 10 000. *)
let test_node_labels () =
  let root = Prng.Rng.of_int 2014 in
  let cell = Prng.Rng.Label.start root in
  List.iter
    (fun stage ->
      for vi = 0 to 12_000 do
        Tree_protocol.For_testing.node_label cell ~stage vi;
        let label = Printf.sprintf "tree/eq/s%d/v%d" stage vi in
        let want = Prng.Rng.For_testing.int64 (Prng.Rng.with_label root label) in
        if Prng.Rng.For_testing.int64 (Prng.Rng.Label.finish cell) <> want then Alcotest.failf "%s" label
      done)
    [ 0; 1; 3; 12 ]

(* Bob's failed-node bitmap, cut short at every bit inside it: Alice's
   word-wise read raises [Underflow], as a bit-at-a-time read would.  200
   leaves at r = 1 make a 200-bit bitmap (three whole words and a
   partial one). *)
let test_truncated_bitmap () =
  let k = 200 and universe = 1 lsl 16 in
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.of_int 33) ~universe ~size_s:k ~size_t:k
      ~overlap:(k / 2)
  in
  let rng = Prng.Rng.of_int 34 in
  let replies = ref [] in
  let capture (chan : Commsim.Transport.t) =
    Commsim.Transport.make
      ~send:(fun payload ->
        replies := payload :: !replies;
        chan.send payload)
      ~recv:chan.recv
  in
  ignore
    (Commsim.Two_party.run
       ~alice:(fun chan -> Tree_protocol.run_party `Alice rng ~universe ~r:1 ~k chan pair.Workload.Setgen.s)
       ~bob:(fun chan ->
         Tree_protocol.run_party `Bob rng ~universe ~r:1 ~k (capture chan) pair.Workload.Setgen.t));
  let reply = List.hd (List.rev !replies) in
  Alcotest.(check bool) "reply holds the bitmap" true (Bitio.Bits.length reply > k);
  for cut = 0 to k - 1 do
    let truncated = Bitio.Bitreader.read_blob (Bitio.Bitreader.create reply) ~bits:cut in
    let chan = Commsim.Transport.make ~send:ignore ~recv:(fun () -> truncated) in
    match Tree_protocol.run_party `Alice rng ~universe ~r:1 ~k chan pair.Workload.Setgen.s with
    | _ -> Alcotest.failf "bitmap cut at %d accepted" cut
    | exception Bitio.Bitreader.Underflow -> ()
  done

(* The native Carter-Wegman path against the overflow-safe [Modarith]
   formula, with [a] and [b] drawn exactly as [create] draws them, on
   both sides of the 2^31 switch. *)
let test_carter_wegman_reference () =
  List.iter
    (fun universe ->
      let label = string_of_int universe in
      let range = 1_000_003 in
      let h =
        Hashing.Carter_wegman.create (Prng.Rng.with_label (Prng.Rng.of_int 3) label) ~universe ~range
      in
      let rng = Prng.Rng.with_label (Prng.Rng.of_int 3) label in
      let p = Hashing.Prime.next_prime (max universe 2) in
      let a = Int64.of_int (1 + Prng.Rng.int rng (p - 1)) in
      let b = Int64.of_int (Prng.Rng.int rng p) in
      let p = Int64.of_int p in
      check_int (label ^ " modulus") (Int64.to_int p) (Hashing.Carter_wegman.For_testing.modulus h);
      let reference x =
        let open Hashing.Modarith in
        Int64.to_int
          (Int64.unsigned_rem (addmod (mulmod a (Int64.of_int x) p) b p) (Int64.of_int range))
      in
      let draws = Prng.Rng.of_int 4 in
      let edges = [ 0; 1; universe - 1; (1 lsl 31) - 1; 1 lsl 31 ] in
      List.iter
        (fun x ->
          if x < universe then
            check_int (Printf.sprintf "%s x=%d" label x) (reference x) (Hashing.Carter_wegman.hash h x))
        (edges @ List.init 2000 (fun _ -> Prng.Rng.int draws universe)))
    [ 1 lsl 20; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1; 1 lsl 40; (1 lsl 61) - 2 ]

let test_carter_wegman_allocation_free () =
  let h = Hashing.Carter_wegman.create (Prng.Rng.of_int 6) ~universe:(1 lsl 30) ~range:1024 in
  let acc = ref 0 in
  let reps = 10_000 in
  let w0 = Gc.minor_words () in
  for x = 1 to reps do
    acc := !acc lxor Hashing.Carter_wegman.hash h x
  done;
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d hashes" (w1 -. w0) reps)
    true
    (w1 -. w0 < 16.0)

(* The int sort behind [Iset.of_list]/[of_array] against [List.sort_uniq
   compare]: every length to 300, with duplicates, negatives, extremes,
   and sorted, reversed and constant inputs. *)
let test_iset_sort_reference () =
  let rng = Prng.Rng.of_int 8 in
  for n = 0 to 300 do
    let shapes =
      [
        ("dups", List.init n (fun _ -> Prng.Rng.int rng (1 + (n / 3))));
        ("negatives", List.init n (fun _ -> Prng.Rng.int rng 2001 - 1000));
        ("extremes", List.init n (fun i -> [| min_int; max_int; 0; -1; i |].(Prng.Rng.int rng 5)));
        ("sorted", List.init n (fun i -> (i / 2) - 40));
        ("reversed", List.init n (fun i -> n - (i / 3)));
        ("constant", List.init n (fun _ -> 7));
      ]
    in
    List.iter
      (fun (shape, l) ->
        let want = Array.of_list (List.sort_uniq compare l) in
        let name = Printf.sprintf "%s n=%d" shape n in
        Alcotest.check iset (name ^ " of_list") want (Iset.of_list l);
        let a = Array.of_list l in
        Alcotest.check iset (name ^ " of_array") want (Iset.of_array a);
        Alcotest.check iset (name ^ " input untouched") (Array.of_list l) a)
      shapes
  done

(* The one-write delta codeword and the binary-search bit width against
   the two-write codeword and the bit-at-a-time width: small values,
   every power of two and its neighbours, and the largest ints. *)
let test_codes_reference () =
  let rec ref_bit_width v = if v = 0 then 0 else 1 + ref_bit_width (v lsr 1) in
  let powers = List.concat_map (fun e -> [ (1 lsl e) - 1; 1 lsl e; (1 lsl e) + 1 ]) (List.init 62 Fun.id) in
  List.iter
    (fun n ->
      let name = Printf.sprintf "n=%d" n in
      if n >= 1 then check_int (name ^ " bit_width") (ref_bit_width n) (Bitio.Codes.bit_width n);
      let fused = Bitio.Pool.payload (fun buf -> Bitio.Codes.write_delta buf n) in
      let reference =
        Bitio.Pool.payload (fun buf ->
            let m = n + 1 in
            let w = ref_bit_width m in
            Bitio.Codes.write_gamma buf (w - 1);
            Bitio.Bitbuf.write_bits buf ~width:(w - 1) (m land ((1 lsl (w - 1)) - 1)))
      in
      Alcotest.check bits_t (name ^ " delta") reference fused;
      check_int (name ^ " read back") n (Bitio.Codes.read_delta (Bitio.Bitreader.create fused)))
    (List.init 5000 Fun.id @ powers @ [ max_int - 1 ])

(* Word-level bitmaps: the message is exactly [Bits.of_bools] of the
   flags, and reads back to them, at every width to 200 — word
   boundaries 55/56/57 and 112 included.  Streamed word by word, the
   same flags write the same bits and read back the same words. *)
let test_bitmap_round_trip () =
  let rng = Prng.Rng.of_int 10 in
  for width = 0 to 200 do
    let flags = Array.init width (fun _ -> Prng.Rng.bool rng) in
    let msg = Wire.bitmap_msg flags in
    let name = Printf.sprintf "width %d" width in
    Alcotest.check bits_t name (Bitio.Bits.of_bools (Array.to_list flags)) msg;
    Alcotest.(check (array bool)) (name ^ " read") flags (Wire.read_bitmap_msg msg ~width);
    let word first =
      let w = ref 0 in
      for i = first to Int.min width (first + Wire.bitmap_word) - 1 do
        if flags.(i) then w := !w lor Wire.bitmap_bit i
      done;
      !w
    in
    let firsts = List.filter (fun f -> f mod Wire.bitmap_word = 0) (List.init width Fun.id) in
    let streamed =
      Bitio.Pool.payload (fun buf ->
          List.iter (fun first -> Wire.write_bitmap_word buf ~width ~first (word first)) firsts)
    in
    Alcotest.check bits_t (name ^ " streamed") msg streamed;
    let reader = Bitio.Bitreader.create msg in
    List.iter
      (fun first ->
        Alcotest.(check int)
          (Printf.sprintf "%s word %d" name first)
          (word first)
          (Wire.read_bitmap_word reader ~width ~first))
      firsts
  done

(* Golden payload digests.  The gates above compare bits, rounds and
   message counts; these pin the payload contents — every tag, every
   codeword — by hashing each sent payload's length and bytes in send
   order.  The expected digests were computed before the tag pipeline and
   the bit I/O moved to word-at-a-time kernels, so any change to what
   goes on the wire fails here. *)
let tap log (chan : Commsim.Transport.t) =
  Commsim.Transport.make
    ~send:(fun payload ->
      Buffer.add_string log (Bitio.Bits.key payload);
      Buffer.add_char log ';';
      chan.send payload)
    ~recv:chan.recv

let hex_of_string s = Digest.to_hex (Digest.string s)

let golden_pair ~seed ~universe ~k =
  Workload.Setgen.pair_with_overlap (Prng.Rng.of_int seed) ~universe ~size_s:k ~size_t:k
    ~overlap:(k / 2)

let two_party_digest ~seed ~universe ~k party =
  let pair = golden_pair ~seed ~universe ~k in
  let rng = Prng.Rng.of_int (seed + 1) in
  let log = Buffer.create 4096 in
  ignore
    (Commsim.Two_party.run
       ~alice:(fun chan -> party `Alice rng (tap log chan) pair.Workload.Setgen.s)
       ~bob:(fun chan -> party `Bob rng (tap log chan) pair.Workload.Setgen.t));
  hex_of_string (Buffer.contents log)

let golden_digests () =
  let universe = 1 lsl 20 in
  [
    ( "bucket k=1024",
      two_party_digest ~seed:11 ~universe ~k:1024 (fun role rng chan mine ->
          Bucket_protocol.run_party role rng ~universe ~k:1024 chan mine) );
    ( "tree log* k=4096",
      two_party_digest ~seed:12 ~universe ~k:4096 (fun role rng chan mine ->
          Tree_protocol.run_party role rng ~universe
            ~r:(Iterated_log.log_star 4096)
            ~k:4096 chan mine) );
    ( "one-round k=1024",
      two_party_digest ~seed:13 ~universe ~k:1024 (fun _ rng chan mine ->
          One_round_hash.run_party rng ~k:1024 chan mine) );
    ( "basic-intersection k=512",
      two_party_digest ~seed:14 ~universe ~k:512 (fun role rng chan mine ->
          match role with
          | `Alice -> Basic_intersection.run_alice rng ~failure:1e-3 chan mine
          | `Bob -> Basic_intersection.run_bob rng ~failure:1e-3 chan mine) );
    (* One guarded bucket attempt over a flipping, truncating link — the
       execution each Session.Machine attempt performs — tapped at the
       base protocol's transport ... *)
    ( "faulty attempt k=256",
      let k = 256 and universe = 1 lsl 16 in
      let pair = golden_pair ~seed:15 ~universe ~k in
      let log = Buffer.create 4096 in
      let tapped party rng ~universe mine chan = party rng ~universe mine (tap log chan) in
      let base = Resilient.bucket_base ~k () in
      let base = { base with Resilient.alice = tapped base.alice; bob = tapped base.bob } in
      let plan =
        Commsim.Faults.uniform ~seed:15 { Commsim.Faults.clean_link with flip = 1e-4; trunc = 2e-3 }
      in
      let verdict, cost, _ =
        Resilient.attempt_once base ~plan ~check_bits:64 ~attempt:1 (Prng.Rng.of_int 16) ~universe
          pair.Workload.Setgen.s pair.Workload.Setgen.t
      in
      Buffer.add_string log
        (Printf.sprintf "verdict=%s bits=%d"
           (match verdict with Ok _ -> "ok" | Error _ -> "error")
           cost.Commsim.Cost.total_bits);
      hex_of_string (Buffer.contents log) );
    (* ... and a whole faulty session, through its deterministic report. *)
    ( "faulty session k=256",
      let k = 256 in
      let pair = golden_pair ~seed:17 ~universe:(1 lsl 16) ~k in
      let plan =
        Commsim.Faults.uniform ~seed:17 { Commsim.Faults.clean_link with flip = 1e-5; trunc = 1e-2 }
      in
      let config =
        { (Session.Machine.default ~k ~plan) with seed = 18; deadline_bits = 4_000_000 }
      in
      let report = Session.Machine.run config ~s:pair.Workload.Setgen.s ~t:pair.Workload.Setgen.t in
      hex_of_string (Stats.Json.to_string (Session.Machine.For_testing.report_json report)) );
  ]

(* Batch equality run on its own, over a tapped channel; the verdicts of
   both sides follow the payloads into the digest. *)
let eq_batch_digest ?sequential ?max_iterations ~seed xs ys =
  let rng = Prng.Rng.of_int seed in
  let log = Buffer.create 4096 in
  let (va, vb), _ =
    Commsim.Two_party.run
      ~alice:(fun chan -> Eq_batch.run_alice ?sequential ?max_iterations rng (tap log chan) xs)
      ~bob:(fun chan -> Eq_batch.run_bob ?sequential ?max_iterations rng (tap log chan) ys)
  in
  Array.iter (fun v -> Buffer.add_char log (if v then '1' else '0')) (Array.append va vb);
  hex_of_string (Buffer.contents log)

(* 1024 instances of 24-bit words, one in three equal. *)
let fixed_width_instances ~seed =
  let rng = Prng.Rng.of_int seed in
  let word v = Bitio.Pool.payload (fun buf -> Bitio.Bitbuf.write_bits buf ~width:24 v) in
  let xs = Array.init 1024 (fun _ -> Prng.Rng.bits rng ~width:24) in
  let ys = Array.mapi (fun i x -> if i mod 3 = 0 then x else x lxor (1 + (i land 0xff))) xs in
  (Array.map word xs, Array.map word ys)

(* 200 bit strings of lengths 0 to 36, odd instances differing in one bit
   or in length. *)
let variable_length_instances () =
  let bits len salt = Bitio.Bits.of_bools (List.init len (fun j -> ((j * 5) + salt) mod 7 < 3)) in
  let xs = Array.init 200 (fun i -> bits (i mod 37) i) in
  let ys =
    Array.init 200 (fun i ->
        if i mod 2 = 0 then xs.(i)
        else if i mod 4 = 1 then bits ((i mod 37) + 1) i
        else if i mod 37 = 0 then bits 1 i
        else Bits_ref.flip xs.(i) (i mod (i mod 37)))
  in
  (xs, ys)

let carter_wegman_digest () =
  let log = Buffer.create 4096 in
  List.iter
    (fun (universe, range) ->
      let h =
        Hashing.Carter_wegman.create
          (Prng.Rng.with_label (Prng.Rng.of_int 20) (string_of_int universe))
          ~universe ~range
      in
      Buffer.add_string log (Printf.sprintf "p=%d;" (Hashing.Carter_wegman.For_testing.modulus h));
      for i = 0 to 999 do
        let x = (i * 0x9E3779B97) land (universe - 1) in
        Buffer.add_string log (Printf.sprintf "%d;" (Hashing.Carter_wegman.hash h x))
      done)
    [ ((1 lsl 31) + 1, 1 lsl 20); (1 lsl 40, 1000); (1 lsl 61, 1 lsl 30) ];
  hex_of_string (Buffer.contents log)

(* Paths the protocol digests above do not reach: bucket's universe
   reduction (k^3 below the universe) at the small k the sweep cells run
   and over a 2^30 universe, pipelined batch equality, the
   verbatim-exchange fallback on strings of uneven lengths, and
   Carter-Wegman hashing over primes above 2^31. *)
let path_digests () =
  let universe = 1 lsl 20 in
  let bucket ~seed ~universe ~k =
    two_party_digest ~seed ~universe ~k (fun role rng chan mine ->
        Bucket_protocol.run_party role rng ~universe ~k chan mine)
  in
  [
    ("bucket k=64 reduced", bucket ~seed:19 ~universe ~k:64);
    ("bucket k=64 reduced from 2^30", bucket ~seed:43 ~universe:(1 lsl 30) ~k:64);
    ("bucket k=16 reduced", bucket ~seed:44 ~universe ~k:16);
    ( "eq-batch pipelined 1024",
      let xs, ys = fixed_width_instances ~seed:21 in
      eq_batch_digest ~sequential:false ~seed:22 xs ys );
    ( "eq-batch exact fallback",
      let xs, ys = variable_length_instances () in
      eq_batch_digest ~max_iterations:0 ~seed:23 xs ys );
    ("carter-wegman above 2^31", carter_wegman_digest ());
  ]

(* Tree paths the log* digest does not reach: one stage over 8 wide
   leaves, whose re-run tags are wider than 62 bits; two stages at
   k=1024; a fixed equality width; a budget that trips the trivial
   fallback after the first stage; and one guarded attempt over a
   flipping, truncating link. *)
let tree_digest ?buckets ?flat_eq_bits ?budget ~seed ~k ~r () =
  two_party_digest ~seed ~universe:(1 lsl 20) ~k (fun role rng chan mine ->
      Tree_protocol.run_party ?buckets ?flat_eq_bits ?budget role rng ~universe:(1 lsl 20) ~r ~k
        chan mine)

let tree_path_digests () =
  [
    ("tree r=1 8 buckets k=4096", tree_digest ~buckets:8 ~seed:24 ~k:4096 ~r:1 ());
    ("tree r=2 k=1024", tree_digest ~seed:25 ~k:1024 ~r:2 ());
    ("tree flat eq bits k=1024", tree_digest ~flat_eq_bits:6 ~seed:26 ~k:1024 ~r:3 ());
    ( "tree budgeted fallback k=1024",
      (* A budget of k * log^(r) k bits (the worst-case conversion at
         factor 1): the first stage alone exceeds it *)
      let k = 1024 and r = 2 and universe = 1 lsl 20 in
      let budget = k * max 1 (Iterated_log.ilog r k) in
      let pair = golden_pair ~seed:27 ~universe ~k in
      let s = pair.Workload.Setgen.s and t = pair.Workload.Setgen.t in
      let k_eff = max 1 (max (Array.length s) (Array.length t)) in
      let budget_eff = k_eff * max 1 (Iterated_log.ilog r k_eff) in
      let rng = Prng.Rng.of_int 28 in
      let (alice, bob), cost =
        Commsim.Two_party.run
          ~alice:(fun chan ->
            Tree_protocol.run_party ~budget:budget_eff `Alice rng ~universe ~r ~k:k_eff chan s)
          ~bob:(fun chan ->
            Tree_protocol.run_party ~budget:budget_eff `Bob rng ~universe ~r ~k:k_eff chan t)
      in
      hex_of_string
        (tree_digest ~budget ~seed:27 ~k ~r ()
        ^ Printf.sprintf "bits=%d;alice=%d;bob=%d" cost.Commsim.Cost.total_bits
            (Iset.cardinal alice) (Iset.cardinal bob)) );
    ( "tree faulty attempt k=1024",
      let k = 1024 and universe = 1 lsl 16 in
      let pair = golden_pair ~seed:29 ~universe ~k in
      let log = Buffer.create 4096 in
      let tapped party rng ~universe mine chan = party rng ~universe mine (tap log chan) in
      let base = Resilient.tree_base ~k () in
      let base = { base with Resilient.alice = tapped base.alice; bob = tapped base.bob } in
      let plan =
        Commsim.Faults.uniform ~seed:29 { Commsim.Faults.clean_link with flip = 2e-5; trunc = 5e-2 }
      in
      let verdict, cost, _ =
        Resilient.attempt_once base ~plan ~check_bits:64 ~attempt:1 (Prng.Rng.of_int 30) ~universe
          pair.Workload.Setgen.s pair.Workload.Setgen.t
      in
      Buffer.add_string log
        (Printf.sprintf "verdict=%s bits=%d"
           (match verdict with Ok _ -> "ok" | Error _ -> "error")
           cost.Commsim.Cost.total_bits);
      hex_of_string (Buffer.contents log) );
  ]

(* Faulty paths the attempt and session digests above do not reach.  The
   frame digests tap the raw faulty transport under [Resilient.guard]:
   every frame as sent and every copy as delivered, so they pin the frame
   bits, each flip position and truncation point, and — since the
   duplicate draw comes after the flip draws — how many draws the flips
   consumed.  The per-link tallies follow the frames into the digest. *)
let tap_both log (chan : Commsim.Transport.t) =
  let record dir payload =
    Buffer.add_string log dir;
    Buffer.add_string log (Bitio.Bits.key payload);
    Buffer.add_char log ';'
  in
  Commsim.Transport.make
    ~send:(fun payload ->
      record "s" payload;
      chan.send payload)
    ~recv:(fun () ->
      let payload = chan.recv () in
      record "r" payload;
      payload)

let tally_string (t : Commsim.Faults.tally) =
  Printf.sprintf
    "%d delivered, %d bits flipped in %d msgs, %d truncated (-%d bits), %d duplicated, %d \
     dropped (-%d bits)"
    t.deliveries t.flipped_bits t.flipped_messages t.truncated_messages t.truncated_bits
    t.duplicated_messages t.dropped_messages t.dropped_bits

let tallies_string (tallies : Commsim.Faults.tallies) =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat ","
              (Array.to_list (Array.map tally_string row)))
          tallies.Commsim.Faults.links))

let outcome_string = function
  | Commsim.Network.Completed _ -> "completed"
  | Commsim.Network.Lost d -> "lost: " ^ d.Commsim.Network.detail
  | Commsim.Network.Crashed { rank; exn; after_messages } ->
      Printf.sprintf "crashed %d after %d: %s" rank after_messages exn

let guarded_frames_digest ~plan ~seed ~k =
  let universe = 1 lsl 16 in
  let pair = golden_pair ~seed ~universe ~k in
  let rng = Prng.Rng.of_int (seed + 1) in
  let log = Buffer.create 4096 in
  let party role mine chan =
    let frame_rng = Prng.Rng.with_label rng "transport" in
    let chan = Resilient.guard frame_rng ~tag_bits:32 (tap_both log chan) in
    Bucket_protocol.run_party role (Prng.Rng.with_label rng "base") ~universe ~k chan mine
  in
  let outcome, cost, tallies =
    Commsim.Two_party.run_faulty ~plan
      ~alice:(party `Alice pair.Workload.Setgen.s)
      ~bob:(party `Bob pair.Workload.Setgen.t)
  in
  Buffer.add_string log
    (Printf.sprintf "%s bits=%d messages=%d %s" (outcome_string outcome)
       cost.Commsim.Cost.total_bits cost.Commsim.Cost.messages (tallies_string tallies));
  hex_of_string (Buffer.contents log)

let dup_drop_link =
  { Commsim.Faults.flip = 1e-4; trunc = 2e-3; dup = 0.3; drop = 2e-3 }

let asymmetric_plan ~seed =
  Commsim.Faults.For_testing.make ~seed (fun ~from_ ~to_:_ ->
      if from_ = 0 then { Commsim.Faults.clean_link with flip = 3e-4; dup = 0.2 }
      else { Commsim.Faults.clean_link with trunc = 2e-2; dup = 0.1 })

let faulty_path_digests () =
  [
    ( "guard frames dup+drop k=256",
      guarded_frames_digest ~plan:(Commsim.Faults.uniform ~seed:31 dup_drop_link) ~seed:31 ~k:256 );
    ( "guarded attempt dup+drop k=256",
      let k = 256 and universe = 1 lsl 16 in
      let pair = golden_pair ~seed:32 ~universe ~k in
      let log = Buffer.create 4096 in
      let tapped party rng ~universe mine chan = party rng ~universe mine (tap log chan) in
      let base = Resilient.bucket_base ~k () in
      let base = { base with Resilient.alice = tapped base.alice; bob = tapped base.bob } in
      let verdict, cost, tallies =
        Resilient.attempt_once base
          ~plan:(Commsim.Faults.uniform ~seed:32 dup_drop_link)
          ~check_bits:64 ~attempt:1 (Prng.Rng.of_int 33) ~universe pair.Workload.Setgen.s
          pair.Workload.Setgen.t
      in
      Buffer.add_string log
        (Printf.sprintf "verdict=%s bits=%d %s"
           (match verdict with Ok _ -> "ok" | Error _ -> "error")
           cost.Commsim.Cost.total_bits (tallies_string tallies));
      hex_of_string (Buffer.contents log) );
    ( "guard frames asymmetric plan k=256",
      guarded_frames_digest ~plan:(asymmetric_plan ~seed:41) ~seed:41 ~k:256 );
    ( "resilient budget fallback k=256",
      (* two attempts over a link that breaks every frame, then the
         trivial fallback *)
      let k = 256 and universe = 1 lsl 16 in
      let pair = golden_pair ~seed:35 ~universe ~k in
      let report =
        Resilient.run (Resilient.bucket_base ~k ())
          ~plan:(Commsim.Faults.uniform ~seed:35 (Commsim.Faults.flipping 1e-2))
          ~budget:{ Resilient.attempts = 2; bits = max_int }
          (Prng.Rng.of_int 36) ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t
      in
      let failure = function
        | Resilient.Check_rejected -> "rejected"
        | Resilient.Channel_lost d -> "lost: " ^ d
        | Resilient.Party_crashed d -> "crashed: " ^ d
      in
      hex_of_string
        (String.concat ";"
           ([
              String.concat "," (List.map string_of_int (Array.to_list report.Resilient.result));
              Printf.sprintf "verified=%b degraded=%b attempts=%d" report.verified report.degraded
                report.attempts;
              Printf.sprintf "faulty=%d fallback=%d total=%d rounds=%d" report.faulty_bits
                report.fallback_bits report.cost.Commsim.Cost.total_bits
                report.cost.Commsim.Cost.rounds;
              tallies_string report.tallies;
            ]
           @ List.map
               (fun (a : Resilient.attempt_info) ->
                 Printf.sprintf "#%d w=%d bits=%d %s" a.index a.width a.bits
                   (match a.failure with None -> "ok" | Some f -> failure f))
               report.attempt_log)) );
  ]

let expected_faulty_path_digests =
  [
    ("guard frames dup+drop k=256", "8bf011a72df7cf92447c6f6d51e18e5a");
    ("guarded attempt dup+drop k=256", "70800693f05f986cccc230f0fe6d8418");
    ("guard frames asymmetric plan k=256", "1ca0049951ed73b174574e365c2b5371");
    ("resilient budget fallback k=256", "5ada7ac54fb5be5704e8addbaca6e03b");
  ]

let expected_tree_path_digests =
  [
    ("tree r=1 8 buckets k=4096", "adea6ef004037094fa734b9bed036458");
    ("tree r=2 k=1024", "28e548ab33c3464244a38c67dcb97558");
    ("tree flat eq bits k=1024", "eeadf72d56baf2b4742f7c9c280bec3a");
    ("tree budgeted fallback k=1024", "8b902b4dfff2a7438d13406b0e07adf2");
    ("tree faulty attempt k=1024", "5eb8fbde83df096374ab99c5064751cb");
  ]

let expected_path_digests =
  [
    ("bucket k=64 reduced", "9db51fba416b0ee25d85c5ba8b9c3f21");
    ("bucket k=64 reduced from 2^30", "daebe9955bdd04bbced7a587e0b9ee36");
    ("bucket k=16 reduced", "ff63a9779656706415c43d7b90f29ea0");
    ("eq-batch pipelined 1024", "9cca3f02259e465ba74d654878e07668");
    ("eq-batch exact fallback", "3e60dd4db992cca7ea89bc1c9a1ae260");
    ("carter-wegman above 2^31", "a4130d159057d1e54f55035a1c14c129");
  ]

let expected_digests =
  [
    ("bucket k=1024", "707b72ebb3a5b38dab20ee8cc4714697");
    ("tree log* k=4096", "6c861c65c46ab343292268cc2ad0d0ad");
    ("one-round k=1024", "5910f0cab224777e5cc4bc2f67ff0415");
    ("basic-intersection k=512", "4c5835eac81437295cf1646d14f544e7");
    ("faulty attempt k=256", "add45d01591549c726e88342720143a7");
    ("faulty session k=256", "4bfdd78dbb90963ba1cd8681985fe781");
  ]

let check_digests got expected =
  List.iter2
    (fun (name, got) (name', want) ->
      Alcotest.(check string) "case" name' name;
      Alcotest.(check string) name want got)
    got expected

let test_golden_digests () =
  check_digests (golden_digests ()) expected_digests;
  check_digests (path_digests ()) expected_path_digests;
  check_digests (tree_path_digests ()) expected_tree_path_digests;
  check_digests (faulty_path_digests ()) expected_faulty_path_digests

(* Golden report digests: the smoke campaigns' JSON reports and their
   fleet-telemetry JSONL streams, hashed whole.  The tier1 gates compare
   these bytes only run-to-run and across domain counts; these pin them
   across commits, so a refactor of the campaign runners that moves any
   report field, number or stream line fails here. *)
let telemetry_stream run =
  let sink = Workload.Telemetry.create_sink () in
  run sink;
  String.concat "\n" (Workload.Telemetry.jsonl sink)

let report_digests () =
  let open Workload in
  List.map
    (fun (name, text) -> (name, hex_of_string text))
    [
      ( "soak smoke json",
        Stats.Json.to_string_pretty (Soak.to_json (Soak.run ~domains:1 Soak.smoke)) );
      ( "sweep smoke json",
        Stats.Json.to_string_pretty (Sweep.to_json (Sweep.run ~domains:1 Sweep.smoke)) );
      ( "soak smoke telemetry",
        telemetry_stream (fun sink -> ignore (Soak.run ~domains:1 ~sink Soak.smoke)) );
      ( "chaos smoke telemetry",
        telemetry_stream (fun sink -> ignore (Chaos.run ~domains:1 ~sink Chaos.smoke)) );
      ( "sweep smoke telemetry",
        telemetry_stream (fun sink -> ignore (Sweep.run ~domains:1 ~sink Sweep.smoke)) );
    ]

let expected_report_digests =
  [
    ("soak smoke json", "db9222f4c08a31cc0fa2ffade04d2fe7");
    ("sweep smoke json", "f801866bb13113c1598716950ff786f8");
    ("soak smoke telemetry", "1a078dbfda84c085ea413b9aacaeb4b0");
    ("chaos smoke telemetry", "c9f435ef3db05acd7290906841756edb");
    ("sweep smoke telemetry", "803583915921460941862125a449b35a");
  ]

let test_report_digests () = check_digests (report_digests ()) expected_report_digests

let () =
  Alcotest.run "hotpath"
    [
      ( "invariance",
        [
          Alcotest.test_case "registered suite, caches bypassed vs on" `Quick
            test_registered_suite_bypass_identical;
          Alcotest.test_case "wire payloads bit-identical" `Quick test_wire_payloads_bit_identical;
          Alcotest.test_case "binomial memo transparent" `Quick test_memo_transparent;
          Alcotest.test_case "faults damage, caches bypassed vs on" `Slow
            test_faults_damage_bypass_identical;
          Alcotest.test_case "domains 1 vs 2" `Quick test_domains_identical;
        ] );
      ( "prng",
        [
          Alcotest.test_case "splitmix64 vs reference" `Quick test_splitmix_reference;
          Alcotest.test_case "rng draws vs reference" `Quick test_rng_draws_reference;
          Alcotest.test_case "with_label vs reference" `Quick test_with_label_reference;
          Alcotest.test_case "label cell reuse = with_label" `Quick test_label_cell_reuse;
          Alcotest.test_case "label add_int = add string_of_int" `Quick test_label_add_int;
          Alcotest.test_case "label draws = int draws on finish" `Quick test_label_draws;
        ] );
      ( "strhash",
        [
          Alcotest.test_case "fused draw-and-tag = create + apply" `Quick
            test_fused_strhash;
          Alcotest.test_case "int-keyed tag tables" `Quick test_tag_tables;
          Alcotest.test_case "per-tag path allocates nothing" `Quick
            test_tag_pipeline_allocation_free;
          Alcotest.test_case "range form = whole form on the copy" `Quick test_range_strhash;
          Alcotest.test_case "range path allocates nothing" `Quick
            test_range_pipeline_allocation_free;
          Alcotest.test_case "forged re-run count underflows" `Quick test_forged_rerun_count;
          Alcotest.test_case "cell int fn = create + int_tag" `Quick test_cell_int_fn;
        ] );
      ( "tree stage",
        [
          QCheck_alcotest.to_alcotest prop_patch_leaves;
          Alcotest.test_case "grouped node labels = with_label" `Quick test_node_labels;
          Alcotest.test_case "truncated bitmap underflows" `Quick test_truncated_bitmap;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "carter-wegman native = Modarith reference" `Quick
            test_carter_wegman_reference;
          Alcotest.test_case "carter-wegman native path allocates nothing" `Quick
            test_carter_wegman_allocation_free;
          Alcotest.test_case "iset int sort = List.sort_uniq" `Quick test_iset_sort_reference;
          Alcotest.test_case "bitmap round trip = Bits.of_bools" `Quick test_bitmap_round_trip;
          Alcotest.test_case "delta codeword and bit width = references" `Quick
            test_codes_reference;
        ] );
      ( "golden",
        [
          Alcotest.test_case "payload digests" `Quick test_golden_digests;
          Alcotest.test_case "report digests" `Quick test_report_digests;
        ] );
    ]
