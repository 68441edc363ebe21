(* Tests for the core building blocks: iterated logs, string hashing, wire
   helpers, the Equality test (Fact 3.5), Basic-Intersection (Lemma 3.3)
   and the verification tree shape. *)

open Intersect

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let iset = Alcotest.testable (fun ppf s -> Iset.pp ppf s) Iset.equal

(* ---------- Iterated_log ---------- *)

let test_log2_ceil () =
  check "1" 0 (Iterated_log.log2_ceil 1);
  check "2" 1 (Iterated_log.log2_ceil 2);
  check "3" 2 (Iterated_log.log2_ceil 3);
  check "1024" 10 (Iterated_log.log2_ceil 1024);
  check "1025" 11 (Iterated_log.log2_ceil 1025)

let test_ilog () =
  check "ilog 0" 65536 (Iterated_log.ilog 0 65536);
  check "ilog 1" 16 (Iterated_log.ilog 1 65536);
  check "ilog 2" 4 (Iterated_log.ilog 2 65536);
  check "ilog 3" 2 (Iterated_log.ilog 3 65536);
  check "ilog 4" 1 (Iterated_log.ilog 4 65536);
  check "ilog clamps at 1" 1 (Iterated_log.ilog 10 65536)

let test_log_star () =
  check "log* 1" 0 (Iterated_log.log_star 1);
  check "log* 2" 1 (Iterated_log.log_star 2);
  check "log* 4" 2 (Iterated_log.log_star 4);
  check "log* 16" 3 (Iterated_log.log_star 16);
  check "log* 65536" 4 (Iterated_log.log_star 65536);
  check "log* 5" 3 (Iterated_log.log_star 5)

let test_tower () =
  check "tower 0" 1 (Iterated_log.For_testing.tower 0);
  check "tower 4" 65536 (Iterated_log.For_testing.tower 4);
  (* log* (tower i) = i *)
  for i = 0 to 4 do
    check "inverse" i (Iterated_log.log_star (Iterated_log.For_testing.tower i))
  done

(* ---------- Strhash ---------- *)

let rng label = Prng.Rng.with_label (Prng.Rng.of_int 4242) label

let test_strhash_deterministic () =
  let payload = Bitio.Bits.of_string "hello world" in
  let a = Strhash.apply (Strhash.create (rng "x") ~bits:32) payload in
  let b = Strhash.apply (Strhash.create (rng "x") ~bits:32) payload in
  check_bool "same rng, same tag" true (Bitio.Bits.equal a b);
  let c = Strhash.apply (Strhash.create (rng "y") ~bits:32) payload in
  check_bool "different rng, different tag (whp)" false (Bitio.Bits.equal a c)

let test_strhash_tag_width () =
  List.iter
    (fun bits ->
      let tag = Strhash.apply (Strhash.create (rng "w") ~bits) (Bitio.Bits.of_string "abc") in
      check (Printf.sprintf "width %d" bits) bits (Bitio.Bits.length tag))
    [ 1; 8; 30; 48; 61; 62; 100; 128 ]

let test_strhash_one_sided () =
  (* Equal inputs always produce equal tags, whatever the randomness. *)
  for seed = 0 to 99 do
    let r1 = Prng.Rng.with_label (Prng.Rng.of_int seed) "t" in
    let r2 = Prng.Rng.with_label (Prng.Rng.of_int seed) "t" in
    let x = Bitio.Bits.of_string "the same payload" in
    let y = Bitio.Bits.of_string "the same payload" in
    if not (Bitio.Bits.equal (Strhash.apply (Strhash.create r1 ~bits:16) x) (Strhash.apply (Strhash.create r2 ~bits:16) y)) then
      Alcotest.failf "tags differ on equal input, seed %d" seed
  done

let test_strhash_collision_rate () =
  (* 8-bit tags: unequal strings collide with probability about 2^-8. *)
  let trials = 5000 in
  let collisions = ref 0 in
  for i = 1 to trials do
    let r = Prng.Rng.with_label (Prng.Rng.of_int i) "c" in
    let fn = Strhash.create r ~bits:8 in
    let x = Bitio.Bits.of_string ("left" ^ string_of_int i) in
    let y = Bitio.Bits.of_string ("right" ^ string_of_int i) in
    if Bitio.Bits.equal (Strhash.apply fn x) (Strhash.apply fn y) then incr collisions
  done;
  (* expectation ~ 20; fail above 60 *)
  if !collisions > 60 then Alcotest.failf "too many collisions: %d" !collisions

let test_strhash_length_matters () =
  (* A string must not collide with its zero-extension (length prefixing). *)
  let fn = Strhash.create (rng "len") ~bits:32 in
  let x = Bitio.Bits.of_bools [ true; false ] in
  let y = Bitio.Bits.of_bools [ true; false; false ] in
  check_bool "different lengths" false (Bitio.Bits.equal (Strhash.apply fn x) (Strhash.apply fn y))

let test_strhash_int_range () =
  let fn = Strhash.create (rng "int") ~bits:16 in
  check_bool "int tag works at 2^60 - 1" true (Bitio.Bits.length (Strhash.apply_int fn ((1 lsl 60) - 1)) = 16);
  Alcotest.check_raises "negative" (Invalid_argument "Strhash.apply_int: out of range") (fun () ->
      ignore (Strhash.apply_int fn (-1)))

(* The sign-mask reduction every lane tag ends with, at the sums around
   its switch: 0, p - 1, p, p + 1 and the largest lane sum 2p - 2, with
   the values next to them. *)
let test_lane_canon () =
  let p = (1 lsl 61) - 1 in
  List.iter
    (fun x -> check (Printf.sprintf "x = %d" x) (x mod p) (Strhash.For_testing.canon_masked x))
    [ 0; 1; p - 2; p - 1; p; p + 1; p + 2; (2 * p) - 3; (2 * p) - 2; (2 * p) - 1 ]

(* The evaluation point and lane multiplier against their [mod] forms,
   at every draw where a masked subtraction could switch: 0, 1 and the
   top of the draw range, p - 6 to p - 2 (rejection keeps draws below
   p), plus p - 1 for the multiplier. *)
let test_point_and_multiplier () =
  let p = (1 lsl 61) - 1 in
  List.iter
    (fun v ->
      check (Printf.sprintf "point_of %d" v) (2 + (v mod (p - 4))) (Strhash.For_testing.point_of v);
      check (Printf.sprintf "a_of %d" v) (1 + (v mod (p - 1))) (Strhash.For_testing.a_of v))
    [ 0; 1; 2; p - 6; p - 5; p - 4; p - 3; p - 2 ];
  check "a_of (p - 1)" (1 + ((p - 1) mod (p - 1))) (Strhash.For_testing.a_of (p - 1))

let prop_strhash_equal_inputs =
  QCheck.Test.make ~name:"equal inputs, equal tags" ~count:300
    QCheck.(pair small_signed_int (small_list bool))
    (fun (seed, bools) ->
      let mk () = Strhash.create (Prng.Rng.with_label (Prng.Rng.of_int seed) "q") ~bits:24 in
      let x = Bitio.Bits.of_bools bools in
      Bitio.Bits.equal (Strhash.apply (mk ()) x) (Strhash.apply (mk ()) x))

(* A reference for the whole tag pipeline, written from the definition:
   [create]'s draws (point, then [a; b] per lane, each a 61-bit draw
   rejected at p), Horner over 24-bit chunks read bit by bit from
   [acc = len + 1], and each lane's [(a v + b) mod p] cut to its width, all
   in Int64 through [Hashing.Modarith].  [Strhash] shares none of it, so a
   wrong reduction, chunk boundary or fast-path bound shows as a tag
   mismatch. *)
module Ref_strhash = struct
  let p = Int64.sub (Int64.shift_left 1L 61) 1L
  let mulmod a b = Hashing.Modarith.mulmod a b p
  let addmod a b = Hashing.Modarith.addmod a b p

  let rec draw rng =
    let v = Prng.Rng.bits rng ~width:61 in
    if v < Int64.to_int p then Int64.of_int v else draw rng

  (* point, then [a; b] per 48-bit lane *)
  let create rng ~bits =
    let point = Int64.add 2L (Int64.rem (draw rng) (Int64.sub p 4L)) in
    let lanes =
      List.init ((bits + 47) / 48) (fun _ ->
          let a = Int64.add 1L (Int64.rem (draw rng) (Int64.sub p 1L)) in
          (a, draw rng))
    in
    (point, lanes)

  let fingerprint point payload ~pos ~len =
    let acc = ref (Int64.of_int (len + 1)) in
    let i = ref 0 in
    while !i < len do
      let width = min 24 (len - !i) in
      let chunk = ref 0 in
      for j = width - 1 downto 0 do
        chunk := (2 * !chunk) + Bool.to_int (Bitio.Bits.get payload (pos + !i + j))
      done;
      acc := addmod (mulmod !acc point) (Int64.of_int (!chunk + 1));
      i := !i + width
    done;
    !acc

  (* Tag bits in wire order, lane by lane, low bit first. *)
  let tag_bools (_, lanes) ~bits v =
    List.concat
      (List.mapi
         (fun i (a, b) ->
           let width = min 48 (bits - (48 * i)) in
           let lane = Int64.to_int (addmod (mulmod a v) b) in
           List.init width (fun j -> (lane lsr j) land 1 = 1))
         lanes)

  let tag_int fn ~bits v =
    List.fold_right (fun bit acc -> (2 * acc) + Bool.to_int bit) (tag_bools fn ~bits v) 0
end

(* Every length 0..200 (so every branch edge: 0, 1, 24, 25, 47, 48, 49,
   95, 96, 97) at every offset 0..7, over all-zero, all-one and random
   payloads: [apply] on the extracted bits, [range_int_tag] and
   [draw_write_range] in place, and [write_int] on the range's first 60
   bits, each against [Ref_strhash]. *)
let prop_strhash_reference =
  QCheck.Test.make ~name:"kernel = Modarith reference" ~count:6
    QCheck.(pair small_nat (int_range 1 150))
    (fun (seed, wide) ->
      let narrow = 1 + (wide mod 62) in
      let root = Prng.Rng.of_int seed in
      let fill = Prng.Rng.with_label root "payload" in
      let payloads =
        [
          Array.make 216 false;
          Array.make 216 true;
          Array.init 216 (fun _ -> Prng.Rng.bool fill);
        ]
      in
      let buf = Bitio.Bitbuf.create () in
      List.for_all
        (fun cells ->
          let payload = Bitio.Bits.of_bools (Array.to_list cells) in
          List.for_all
            (fun len ->
              List.for_all
                (fun pos ->
                  let label = Printf.sprintf "ref/%d/%d" len pos in
                  let fresh () = Prng.Rng.with_label root label in
                  let range = Bitio.Bits.of_bools (Array.to_list (Array.sub cells pos len)) in
                  let ((point, _) as wide_ref) = Ref_strhash.create (fresh ()) ~bits:wide in
                  let v = Ref_strhash.fingerprint point payload ~pos ~len in
                  let applied =
                    Bits_ref.to_bools (Strhash.apply (Strhash.create (fresh ()) ~bits:wide) range)
                  in
                  let ((npoint, _) as narrow_ref) = Ref_strhash.create (fresh ()) ~bits:narrow in
                  let ranged =
                    Strhash.For_testing.range_int_tag
                      (Strhash.create (fresh ()) ~bits:narrow)
                      payload ~pos ~len
                  in
                  let d = Prng.Rng.Label.start root in
                  Prng.Rng.Label.add d label;
                  Bitio.Bitbuf.reset buf;
                  Strhash.draw_write_range d ~bits:wide buf payload ~pos ~len;
                  let drawn = Bits_ref.to_bools (Bitio.Bitbuf.contents buf) in
                  let x = Bitio.Bits.extract payload ~pos ~width:(min len 60) in
                  Bitio.Bitbuf.reset buf;
                  Strhash.write_int (Strhash.create (fresh ()) ~bits:wide) buf x;
                  applied = Ref_strhash.tag_bools wide_ref ~bits:wide v
                  && ranged
                     = Ref_strhash.tag_int narrow_ref ~bits:narrow
                         (Ref_strhash.fingerprint npoint payload ~pos ~len)
                  && drawn = Ref_strhash.tag_bools wide_ref ~bits:wide v
                  && Bits_ref.to_bools (Bitio.Bitbuf.contents buf)
                     = Ref_strhash.tag_bools wide_ref ~bits:wide (Int64.of_int x))
                (List.init 8 Fun.id))
            (List.init 201 Fun.id))
        payloads)

(* A prefix is hashed in place: [prefixed_int_tag] with a [prefix_bits]-bit
   prefix over a range must give the tag of the materialised string
   [prefix ‖ range], at every prefix width 0-24, at range lengths that
   put the whole string on each side of the one-load and chunk-pair
   edges (24, 47, 48, 49 included) and at nonzero offsets. *)
let prop_prefixed_tag_is_concatenation =
  let edges = [ 0; 1; 23; 24; 25; 47; 48; 49; 72; 95; 96; 97; 299; 300 ] in
  QCheck.Test.make ~name:"prefixed tag = tag of the concatenation" ~count:2000
    (QCheck.make
       ~print:(fun (seed, pb, len, pos) ->
         Printf.sprintf "seed=%d prefix_bits=%d len=%d pos=%d" seed pb len pos)
       QCheck.Gen.(
         quad small_nat (int_bound 24) (oneof [ oneofl edges; int_bound 300 ]) (int_range 1 40)))
    (fun (seed, prefix_bits, len, pos) ->
      let root = Prng.Rng.of_int seed in
      let fill = Prng.Rng.with_label root "payload" in
      let cells = Array.init (pos + len + 17) (fun _ -> Prng.Rng.bool fill) in
      let payload = Bitio.Bits.of_bools (Array.to_list cells) in
      let prefix = Prng.Rng.bits fill ~width:prefix_bits in
      let concat =
        Bitio.Bits.of_bools
          (List.init prefix_bits (fun i -> (prefix lsr i) land 1 = 1)
          @ Array.to_list (Array.sub cells pos len))
      in
      List.for_all
        (fun bits ->
          let fn = Strhash.create (Prng.Rng.with_label root "fn") ~bits in
          Strhash.prefixed_int_tag fn ~prefix ~prefix_bits payload ~pos ~len
          = Strhash.For_testing.range_int_tag fn concat ~pos:0 ~len:(prefix_bits + len))
        [ 62; 20 ])

let test_prefixed_tag_rejects () =
  let fn = Strhash.create (Prng.Rng.of_int 1) ~bits:32 in
  let payload = Bitio.Bits.of_bools (List.init 40 (fun i -> i land 1 = 0)) in
  List.iter
    (fun (prefix, prefix_bits) ->
      Alcotest.check_raises
        (Printf.sprintf "prefix %d over %d bits" prefix prefix_bits)
        (Invalid_argument "Strhash.prefixed_int_tag: prefix")
        (fun () ->
          ignore (Strhash.prefixed_int_tag fn ~prefix ~prefix_bits payload ~pos:0 ~len:40)))
    [ (0, 25); (0, -1); (4, 2); (-1, 8) ];
  Alcotest.check_raises "range past the payload" (Invalid_argument "Strhash: range out of bounds")
    (fun () ->
      ignore (Strhash.prefixed_int_tag fn ~prefix:1 ~prefix_bits:20 payload ~pos:1 ~len:40))

(* ---------- Wire ---------- *)

let test_wire_set_roundtrip () =
  let set = Iset.of_list [ 3; 17; 17; 4; 1000000 ] in
  let payload = Wire.of_set set in
  let back = Bitio.Set_codec.read_gaps (Bitio.Bitreader.create payload) in
  Alcotest.check iset "roundtrip" set back

let test_wire_bitmap () =
  let flags = [| true; false; false; true; true |] in
  let back = Wire.read_bitmap_msg (Wire.bitmap_msg flags) ~width:5 in
  Alcotest.(check (array bool)) "roundtrip" flags back

(* ---------- Equality (Fact 3.5) ---------- *)

let run_equality seed ~bits x y =
  let shared = Prng.Rng.with_label (Prng.Rng.of_int seed) "eq" in
  Commsim.Two_party.run
    ~alice:(fun chan -> Equality.run_alice shared ~bits chan (Bitio.Bits.of_string x))
    ~bob:(fun chan -> Equality.run_bob shared ~bits chan (Bitio.Bits.of_string y))

let test_equality_equal () =
  let (a, b), cost = run_equality 1 ~bits:20 "same" "same" in
  check_bool "alice verdict" true a;
  check_bool "bob verdict" true b;
  check "bits = tag + verdict" 21 cost.Commsim.Cost.total_bits;
  check "two rounds" 2 cost.Commsim.Cost.rounds

let test_equality_unequal () =
  let agree = ref 0 in
  for seed = 1 to 200 do
    let (a, b), _ = run_equality seed ~bits:20 "left" "right" in
    check_bool "verdicts agree" true (a = b);
    if a then incr agree
  done;
  (* false positives should be about 200 * 2^-20 ~ 0 *)
  check "no false equal" 0 !agree

let test_equality_false_positive_rate () =
  (* With 2-bit tags, unequal inputs pass about 1/4 of the time. *)
  let passes = ref 0 in
  let trials = 2000 in
  for seed = 1 to trials do
    let (a, _), _ = run_equality seed ~bits:2 "x1" "x2" in
    if a then incr passes
  done;
  let rate = float_of_int !passes /. float_of_int trials in
  if rate > 0.40 then Alcotest.failf "false-positive rate too high: %f" rate

(* ---------- Basic_intersection (Lemma 3.3) ---------- *)

let run_basic seed ~failure s t =
  let shared = Prng.Rng.with_label (Prng.Rng.of_int seed) "bi" in
  Commsim.Two_party.run
    ~alice:(fun chan -> Basic_intersection.run_alice shared ~failure chan s)
    ~bob:(fun chan -> Basic_intersection.run_bob shared ~failure chan t)

let test_basic_exact_whp () =
  let rng = Prng.Rng.of_int 7 in
  let failures = ref 0 in
  for seed = 1 to 300 do
    let pair =
      Workload.Setgen.pair_with_overlap rng ~universe:100000 ~size_s:40 ~size_t:40 ~overlap:13
    in
    let (s', t'), _ = run_basic seed ~failure:0.01 pair.Workload.Setgen.s pair.Workload.Setgen.t in
    let expected = Iset.inter pair.Workload.Setgen.s pair.Workload.Setgen.t in
    (* sandwich always *)
    check_bool "S' subset S" true (Iset.subset s' pair.Workload.Setgen.s);
    check_bool "T' subset T" true (Iset.subset t' pair.Workload.Setgen.t);
    check_bool "S cap T subset S'" true (Iset.subset expected s');
    check_bool "S cap T subset T'" true (Iset.subset expected t');
    if not (Iset.equal s' expected && Iset.equal t' expected) then incr failures
  done;
  (* failure target 1%; allow 5% *)
  if !failures > 15 then Alcotest.failf "too many inexact runs: %d/300" !failures

let test_basic_empty_inputs () =
  let (s', t'), cost = run_basic 3 ~failure:0.1 Iset.empty Iset.empty in
  Alcotest.check iset "alice empty" Iset.empty s';
  Alcotest.check iset "bob empty" Iset.empty t';
  check "4 messages" 4 cost.Commsim.Cost.messages

let test_basic_rounds () =
  let (_, _), cost = run_basic 5 ~failure:0.05 [| 1; 2; 3 |] [| 2; 3; 4 |] in
  check "4 rounds" 4 cost.Commsim.Cost.rounds;
  check "4 messages" 4 cost.Commsim.Cost.messages

let test_basic_disjoint_never_intersect () =
  (* Property 2: on disjoint inputs, no element survives on both sides. *)
  for seed = 1 to 100 do
    let (s', t'), _ = run_basic seed ~failure:0.3 [| 1; 3; 5; 7 |] [| 0; 2; 4; 6 |] in
    Alcotest.check iset "no common survivors" Iset.empty (Iset.inter s' t')
  done

let prop_basic_sandwich =
  QCheck.Test.make ~name:"basic-intersection sandwich invariant" ~count:150
    QCheck.(triple small_signed_int (list (int_bound 200)) (list (int_bound 200)))
    (fun (seed, ls, lt) ->
      let s = Iset.of_list ls and t = Iset.of_list lt in
      let (s', t'), _ = run_basic seed ~failure:0.2 s t in
      let expected = Iset.inter s t in
      Iset.subset s' s && Iset.subset t' t && Iset.subset expected s' && Iset.subset expected t')

(* The flat int tag table against a Hashtbl of the peer's int tags:
   narrow widths (many duplicate tags), the full 62 bits, and count 0. *)
let test_flat_tag_table () =
  List.iter
    (fun (bits, count) ->
      let rng = Prng.Rng.of_int ((100 * bits) + count) in
      let fn = Strhash.create rng ~bits in
      (* repeated elements as well as repeated tags *)
      let theirs = Array.init count (fun i -> (i * 7919) mod (max 1 (count / 2 * 3))) in
      let sent = Bitio.Pool.payload (fun buf -> Basic_intersection.write_tags buf fn theirs) in
      let table = Basic_intersection.read_tag_keys (Bitio.Bitreader.create sent) ~bits ~count in
      let reference = Hashtbl.create 16 in
      Array.iter (fun x -> Hashtbl.replace reference (Strhash.int_tag fn x) ()) theirs;
      for x = 0 to 3000 do
        if
          Basic_intersection.tag_matches fn table x
          <> Hashtbl.mem reference (Strhash.int_tag fn x)
        then Alcotest.failf "%d-bit table, count %d: disagree at %d" bits count x
      done)
    [ (4, 0); (4, 1); (4, 40); (8, 300); (13, 1000); (40, 257); (62, 0); (62, 1); (62, 500) ]

(* A forged count fails before the flat table is sized: [Underflow], and
   no allocation beyond a few words. *)
let test_flat_tag_table_forged_count () =
  let payload = Bitio.Pool.payload (fun buf -> Bitio.Bitbuf.write_bits buf ~width:30 12345) in
  List.iter
    (fun count ->
      let reader = Bitio.Bitreader.create payload in
      Gc.minor ();
      let b0 = Gc.allocated_bytes () in
      (match Basic_intersection.read_tag_keys reader ~bits:20 ~count with
      | _ -> Alcotest.failf "forged count %d accepted" count
      | exception Bitio.Bitreader.Underflow -> ());
      Gc.minor ();
      let bytes = Gc.allocated_bytes () -. b0 in
      check_bool (Printf.sprintf "count %d: %.0f bytes" count bytes) true (bytes < 1024.0))
    [ 2; 1000; 1 lsl 40 ]

let test_tag_bits_monotone () =
  let b1 = Basic_intersection.tag_bits ~m:10 ~failure:0.1 in
  let b2 = Basic_intersection.tag_bits ~m:10 ~failure:0.001 in
  let b3 = Basic_intersection.tag_bits ~m:1000 ~failure:0.1 in
  check_bool "more confidence, more bits" true (b2 > b1);
  check_bool "more elements, more bits" true (b3 > b1)

(* ---------- Vtree ---------- *)

(* A level's boundaries rise strictly from 0 to k: its nodes partition
   the leaves into contiguous ranges. *)
let partitions ~k bounds =
  let n = Array.length bounds in
  let rising = ref true in
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then rising := false
  done;
  n >= 2 && bounds.(0) = 0 && bounds.(n - 1) = k && !rising

(* Level [level]'s boundaries, node 0's first leaf to the end. *)
let level_bounds tree ~level =
  Array.init (Vtree.nodes tree ~level + 1) (Vtree.first tree ~level)

let test_vtree_shape () =
  let tree = Vtree.build ~k:1024 ~r:3 in
  check_bool "levels" true
    (Vtree.nodes tree ~level:3 >= 1
    && match Vtree.nodes tree ~level:4 with _ -> false | exception Invalid_argument _ -> true);
  check "leaves" 1024 (Vtree.nodes tree ~level:0);
  check "single root" 1 (Vtree.nodes tree ~level:3);
  check "root covers all" 1024 (Vtree.first tree ~level:3 1);
  (* every level partitions the leaves *)
  for level = 0 to 3 do
    check_bool "partition" true (partitions ~k:1024 (level_bounds tree ~level))
  done

let test_vtree_degrees () =
  (* k = 2^16, r = 3: d1 = log^(2) k = 4, d2 = log k / log^(2) k = 4,
     d3 squashes. *)
  check "d1" 4 (Vtree.degree ~k:65536 ~r:3 ~level:1);
  check "d2" 4 (Vtree.degree ~k:65536 ~r:3 ~level:2);
  (* r = 2: d1 = log k = 16 *)
  check "r2 d1" 16 (Vtree.degree ~k:65536 ~r:2 ~level:1)

let test_vtree_small () =
  List.iter
    (fun (k, r) ->
      let tree = Vtree.build ~k ~r in
      check "root" 1 (Vtree.nodes tree ~level:r);
      check "leaves" k (Vtree.nodes tree ~level:0))
    [ (1, 1); (1, 3); (2, 1); (7, 2); (16, 4); (100, 5) ]

let prop_vtree_partitions =
  QCheck.Test.make ~name:"every vtree level partitions the leaves" ~count:150
    QCheck.(pair (int_range 1 2000) (int_range 1 7))
    (fun (k, r) ->
      let tree = Vtree.build ~k ~r in
      (match Vtree.nodes tree ~level:(r + 1) with _ -> false | exception Invalid_argument _ -> true)
      && Vtree.nodes tree ~level:r = 1
      && List.for_all (fun level -> partitions ~k (level_bounds tree ~level)) (List.init (r + 1) Fun.id))

(* The boundary construction [Vtree] replaced, kept as the reference:
   level [l]'s boundaries group the level below [deg] nodes at a time
   (every [deg]-th boundary, and the end), level 0 being the leaves. *)
let reference_bounds ~k ~r =
  let bounds = Array.make (r + 1) (Array.init (k + 1) Fun.id) in
  for level = 1 to r do
    let below = Array.length bounds.(level - 1) - 1 in
    let deg = if level = r then Int.max 2 below else Vtree.degree ~k ~r ~level in
    let count = (below + deg - 1) / deg in
    bounds.(level) <- Array.init (count + 1) (fun g -> if g = count then k else bounds.(level - 1).(g * deg))
  done;
  bounds

let same_as_reference ~k ~r =
  let tree = Vtree.build ~k ~r and bounds = reference_bounds ~k ~r in
  Array.for_all Fun.id
    (Array.mapi (fun level b -> b = level_bounds tree ~level) bounds)

(* Closed-form [nodes] and [first] against the reference at every
   level: every k in 1..2 000 at r = 1..5, and k = 4 096 and 65 536.
   At r = 64 and up every level has degree at least 2, so the span's
   product of degrees would overflow without its cap at k. *)
let test_vtree_reference () =
  let check ~k ~r =
    if not (same_as_reference ~k ~r) then Alcotest.failf "vtree k=%d r=%d differs" k r
  in
  for k = 1 to 2000 do
    for r = 1 to 5 do
      check ~k ~r
    done
  done;
  List.iter
    (fun k ->
      for r = 1 to 5 do
        check ~k ~r
      done)
    [ 4096; 65536 ];
  List.iter (fun (k, r) -> check ~k ~r) [ (1, 64); (2, 100); (1000, 64); (4096, 256) ]

(* ---------- Eq_batch ---------- *)

let bits_of_string s = Bitio.Bits.of_string s

let run_eqb ?sequential seed xs ys =
  let shared = Prng.Rng.with_label (Prng.Rng.of_int seed) "eqb" in
  Commsim.Two_party.run
    ~alice:(fun chan -> Eq_batch.run_alice ?sequential shared chan xs)
    ~bob:(fun chan -> Eq_batch.run_bob ?sequential shared chan ys)

let mixed_instances n seed =
  (* even indices equal, odd unequal *)
  let xs = Array.init n (fun i -> bits_of_string (Printf.sprintf "s%d/%d" seed i)) in
  let ys =
    Array.init n (fun i ->
        if i mod 2 = 0 then bits_of_string (Printf.sprintf "s%d/%d" seed i)
        else bits_of_string (Printf.sprintf "S%d|%d" seed i))
  in
  (xs, ys)

let test_eqb_mixed () =
  List.iter
    (fun n ->
      let xs, ys = mixed_instances n 11 in
      let (va, vb), _ = run_eqb 11 xs ys in
      Alcotest.(check (array bool)) "verdicts agree" va vb;
      Array.iteri
        (fun i v ->
          if v <> (i mod 2 = 0) then Alcotest.failf "n=%d instance %d wrong verdict" n i)
        va)
    [ 1; 2; 5; 16; 64; 200 ]

let test_eqb_all_equal () =
  let xs = Array.init 50 (fun i -> bits_of_string (string_of_int i)) in
  let (va, _), cost = run_eqb 13 xs (Array.copy xs) in
  Array.iter (fun v -> check_bool "equal" true v) va;
  (* all-equal batches should be cheap: roughly one tag round + joint tests *)
  check_bool "cheap" true (cost.Commsim.Cost.total_bits < 50 * 40)

let test_eqb_all_unequal () =
  let xs = Array.init 50 (fun i -> bits_of_string ("a" ^ string_of_int i)) in
  let ys = Array.init 50 (fun i -> bits_of_string ("b" ^ string_of_int i)) in
  let (va, _), _ = run_eqb 17 xs ys in
  Array.iter (fun v -> check_bool "unequal" false v) va

let test_eqb_empty () =
  let (va, vb), cost = run_eqb 19 [||] [||] in
  check "no verdicts" 0 (Array.length va);
  check "no verdicts b" 0 (Array.length vb);
  check "no communication" 0 cost.Commsim.Cost.total_bits

let test_eqb_parallel_matches_sequential () =
  let xs, ys = mixed_instances 80 23 in
  let (va, _), cost_seq = run_eqb ~sequential:true 23 xs ys in
  let (vp, _), cost_par = run_eqb ~sequential:false 23 xs ys in
  Alcotest.(check (array bool)) "same verdicts" va vp;
  check_bool "parallel uses fewer rounds" true
    (cost_par.Commsim.Cost.rounds < cost_seq.Commsim.Cost.rounds)

let test_eqb_linear_communication () =
  (* Bits per instance should not grow with n (the O(k) claim). *)
  let per_instance n =
    let xs, ys = mixed_instances n 29 in
    let _, cost = run_eqb 29 xs ys in
    float_of_int cost.Commsim.Cost.total_bits /. float_of_int n
  in
  let small = per_instance 64 and large = per_instance 1024 in
  if large > 2.0 *. small +. 16.0 then
    Alcotest.failf "per-instance cost grows: %.1f -> %.1f bits" small large

let test_eqb_fallback_exact () =
  (* max_iterations = 0 forces the verbatim-exchange fallback: verdicts
     must be exact (zero error) on every pattern. *)
  let xs, ys = mixed_instances 60 37 in
  let shared = Prng.Rng.with_label (Prng.Rng.of_int 37) "eqb" in
  let (va, vb), cost =
    Commsim.Two_party.run
      ~alice:(fun chan -> Eq_batch.run_alice ~max_iterations:0 shared chan xs)
      ~bob:(fun chan -> Eq_batch.run_bob ~max_iterations:0 shared chan ys)
  in
  Alcotest.(check (array bool)) "agree" va vb;
  Array.iteri (fun i v -> if v <> (i mod 2 = 0) then Alcotest.failf "instance %d" i) va;
  (* the fallback ships the strings, so cost reflects their lengths *)
  check_bool "paid for the strings" true (cost.Commsim.Cost.total_bits > 60 * 8)

let test_eqb_long_strings () =
  (* Communication should not depend on instance length (tags only). *)
  let long = String.concat "" (List.init 200 (fun i -> string_of_int i)) in
  let xs = Array.init 20 (fun i -> bits_of_string (long ^ string_of_int i)) in
  let ys = Array.init 20 (fun i -> bits_of_string (long ^ string_of_int (i + (i mod 2)))) in
  let (va, _), cost = run_eqb 31 xs ys in
  Array.iteri (fun i v -> if v <> (i mod 2 = 0) then Alcotest.failf "instance %d" i) va;
  check_bool "cost independent of string length" true
    (cost.Commsim.Cost.total_bits < 20 * 200)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "core-blocks"
    [
      ( "iterated_log",
        [
          Alcotest.test_case "log2_ceil" `Quick test_log2_ceil;
          Alcotest.test_case "ilog" `Quick test_ilog;
          Alcotest.test_case "log_star" `Quick test_log_star;
          Alcotest.test_case "tower" `Quick test_tower;
        ] );
      ( "strhash",
        [
          Alcotest.test_case "deterministic" `Quick test_strhash_deterministic;
          Alcotest.test_case "tag width" `Quick test_strhash_tag_width;
          Alcotest.test_case "one sided" `Quick test_strhash_one_sided;
          Alcotest.test_case "collision rate" `Quick test_strhash_collision_rate;
          Alcotest.test_case "length matters" `Quick test_strhash_length_matters;
          Alcotest.test_case "int range" `Quick test_strhash_int_range;
          Alcotest.test_case "lane sum reduction" `Quick test_lane_canon;
          Alcotest.test_case "point and multiplier" `Quick test_point_and_multiplier;
          qt prop_strhash_equal_inputs;
          qt prop_strhash_reference;
          qt prop_prefixed_tag_is_concatenation;
          Alcotest.test_case "prefixed tag rejects" `Quick test_prefixed_tag_rejects;
        ] );
      ( "wire",
        [
          Alcotest.test_case "set roundtrip" `Quick test_wire_set_roundtrip;
          Alcotest.test_case "bitmap" `Quick test_wire_bitmap;
        ] );
      ( "equality",
        [
          Alcotest.test_case "equal inputs" `Quick test_equality_equal;
          Alcotest.test_case "unequal inputs" `Quick test_equality_unequal;
          Alcotest.test_case "false-positive rate" `Quick test_equality_false_positive_rate;
        ] );
      ( "basic_intersection",
        [
          Alcotest.test_case "exact whp" `Quick test_basic_exact_whp;
          Alcotest.test_case "empty inputs" `Quick test_basic_empty_inputs;
          Alcotest.test_case "rounds" `Quick test_basic_rounds;
          Alcotest.test_case "disjoint stays disjoint" `Quick test_basic_disjoint_never_intersect;
          Alcotest.test_case "tag bits monotone" `Quick test_tag_bits_monotone;
          Alcotest.test_case "flat tag table" `Quick test_flat_tag_table;
          Alcotest.test_case "flat table forged count" `Quick test_flat_tag_table_forged_count;
          qt prop_basic_sandwich;
        ] );
      ( "vtree",
        [
          Alcotest.test_case "shape" `Quick test_vtree_shape;
          Alcotest.test_case "degrees" `Quick test_vtree_degrees;
          Alcotest.test_case "small trees" `Quick test_vtree_small;
          qt prop_vtree_partitions;
          Alcotest.test_case "closed form = boundary reference" `Quick test_vtree_reference;
        ] );
      ( "eq_batch",
        [
          Alcotest.test_case "mixed verdicts" `Quick test_eqb_mixed;
          Alcotest.test_case "all equal" `Quick test_eqb_all_equal;
          Alcotest.test_case "all unequal" `Quick test_eqb_all_unequal;
          Alcotest.test_case "empty" `Quick test_eqb_empty;
          Alcotest.test_case "parallel = sequential verdicts" `Quick test_eqb_parallel_matches_sequential;
          Alcotest.test_case "linear communication" `Quick test_eqb_linear_communication;
          Alcotest.test_case "fallback exact" `Quick test_eqb_fallback_exact;
          Alcotest.test_case "long strings" `Quick test_eqb_long_strings;
        ] );
    ]
