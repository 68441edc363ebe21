(* Unit and property tests for the bit-level encoding substrate. *)

open Bitio

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Bits ---------- *)

let test_bits_of_bools () =
  let b = Bits.of_bools [ true; false; true; true ] in
  check "length" 4 (Bits.length b);
  check_bool "bit 0" true (Bits.get b 0);
  check_bool "bit 1" false (Bits.get b 1);
  check_bool "bit 3" true (Bits.get b 3);
  Alcotest.(check (list bool)) "roundtrip" [ true; false; true; true ] (Bits_ref.to_bools b)

let test_bits_get_bounds () =
  let b = Bits.of_bools [ true ] in
  Alcotest.check_raises "negative" (Invalid_argument "Bits.get: index out of bounds") (fun () ->
      ignore (Bits.get b (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bits.get: index out of bounds") (fun () ->
      ignore (Bits.get b 1))

let test_bits_equal () =
  let a = Bits.of_bools [ true; false; true ] in
  let b = Bits.of_bools [ true; false; true ] in
  let c = Bits.of_bools [ true; false; false ] in
  let d = Bits.of_bools [ true; false ] in
  check_bool "equal" true (Bits.equal a b);
  check_bool "different bit" false (Bits.equal a c);
  check_bool "different length" false (Bits.equal a d);
  check_bool "empty" true (Bits.equal Bits.empty Bits.empty)

let test_bits_of_string () =
  let b = Bits.of_string "A" (* 0x41 = 0b01000001 *) in
  check "length" 8 (Bits.length b);
  check_bool "lsb set" true (Bits.get b 0);
  check_bool "bit 6 set" true (Bits.get b 6);
  check_bool "bit 7 clear" false (Bits.get b 7)

(* ---------- Bitbuf / Bitreader ---------- *)

let test_write_read_bits () =
  let buf = Bitbuf.create () in
  Bitbuf.write_bits buf ~width:5 19;
  Bitbuf.write_bits buf ~width:0 0;
  Bitbuf.write_bits buf ~width:13 4095;
  Bitbuf.write_bit buf true;
  let r = Bitreader.create (Bitbuf.contents buf) in
  check "first" 19 (Bitreader.read_bits r ~width:5);
  check "zero width" 0 (Bitreader.read_bits r ~width:0);
  check "second" 4095 (Bitreader.read_bits r ~width:13);
  check_bool "bit" true (Bitreader.read_bit r);
  check "remaining" 0 (Bitreader.remaining r)

let test_bitbuf_width_checks () =
  let buf = Bitbuf.create () in
  Alcotest.check_raises "too wide" (Invalid_argument "Bitbuf.write_bits: width") (fun () ->
      Bitbuf.write_bits buf ~width:63 0);
  Alcotest.check_raises "doesn't fit" (Invalid_argument "Bitbuf.write_bits: value does not fit width")
    (fun () -> Bitbuf.write_bits buf ~width:3 8)

let test_reader_underflow () =
  let r = Bitreader.create (Bits.of_bools [ true ]) in
  ignore (Bitreader.read_bit r);
  Alcotest.check_raises "underflow" Bitreader.Underflow (fun () -> ignore (Bitreader.read_bit r))

let test_bitbuf_growth () =
  let buf = Bitbuf.create ~capacity:1 () in
  for i = 0 to 999 do
    Bitbuf.write_bits buf ~width:10 (i mod 1024)
  done;
  let r = Bitreader.create (Bitbuf.contents buf) in
  for i = 0 to 999 do
    check "value" (i mod 1024) (Bitreader.read_bits r ~width:10)
  done

(* ---------- Codes ---------- *)

let test_bit_width () =
  check "1" 1 (Codes.bit_width 1);
  check "2" 2 (Codes.bit_width 2);
  check "255" 8 (Codes.bit_width 255);
  check "256" 9 (Codes.bit_width 256)

(* [read_ones], a word at a time, against a count of one bits read off
   the payload bit by bit: every run length 0..120 at every offset 0..7,
   the run followed by a zero and more bits, by a zero that ends the
   payload, or by the end of the payload.  The zero stays unread, and
   [read_ones] never raises; [read_unary] on the same stream raises
   [Underflow] exactly when [read_bit] would, when the run reaches the
   end, having consumed the whole run. *)
let test_read_ones_reference () =
  let rng = Prng.Rng.of_int 12 in
  for off = 0 to 7 do
    for run = 0 to 120 do
      List.iter
        (fun (tail_name, tail) ->
          let prefix = List.init off (fun _ -> Prng.Rng.bool rng) in
          let payload = Bits.of_bools (prefix @ List.init run (fun _ -> true) @ tail) in
          let len = Bits.length payload in
          let name = Printf.sprintf "off %d run %d, %s" off run tail_name in
          let rec ones i = if i < len && Bits.get payload i then ones (i + 1) else i - off in
          let want = ones off in
          let r = Bitreader.create payload in
          Bitreader.skip r off;
          check (name ^ ": ones") want (Bitreader.read_ones r);
          check (name ^ ": position") (len - off - want) (Bitreader.remaining r);
          let outcome read =
            let r = Bitreader.create payload in
            Bitreader.skip r off;
            let v = match read r with n -> Some n | exception Bitreader.Underflow -> None in
            (v, Bitreader.remaining r)
          in
          let rec unary r n = if Bitreader.read_bit r then unary r (n + 1) else n in
          Alcotest.(check (pair (option int) int))
            (name ^ ": read_unary")
            (outcome (fun r -> unary r 0))
            (outcome Codes.read_unary))
        [
          ("zero then bits", false :: List.init 70 (fun _ -> Prng.Rng.bool rng));
          ("zero at the end", [ false ]);
          ("payload end", []);
        ]
    done
  done

let roundtrip_code name write read cost values () =
  List.iter
    (fun v ->
      let buf = Bitbuf.create () in
      write buf v;
      (match cost with
      | Some cost -> check (Printf.sprintf "%s cost of %d" name v) (cost v) (Bitbuf.length buf)
      | None -> ());
      let r = Bitreader.create (Bitbuf.contents buf) in
      check (Printf.sprintf "%s roundtrip of %d" name v) v (read r);
      check "fully consumed" 0 (Bitreader.remaining r))
    values

let small_values = [ 0; 1; 2; 3; 7; 8; 100; 1 lsl 20; (1 lsl 40) + 17 ]

let test_gamma = roundtrip_code "gamma" Codes.write_gamma Codes.read_gamma (Some Codes.gamma_cost) small_values
let test_delta = roundtrip_code "delta" Codes.write_delta Codes.read_delta (Some Codes.delta_cost) small_values

(* One byte per started group of 7 value bits. *)
let test_varint =
  roundtrip_code "varint" Codes.write_varint Codes.read_varint
    (Some (fun v -> if v = 0 then 8 else 8 * ((Codes.bit_width v + 6) / 7)))
    small_values

let test_unary = roundtrip_code "unary" Codes.write_unary Codes.read_unary None [ 0; 1; 5; 63 ]

let test_gamma_cost_shape () =
  (* Gamma spends 2 log n + O(1): strictly less than 25 bits for n < 2^12. *)
  for n = 0 to 4095 do
    if Codes.gamma_cost n > 25 then Alcotest.failf "gamma cost %d too large for %d" (Codes.gamma_cost n) n
  done

let prop_gamma_roundtrip =
  QCheck.Test.make ~name:"gamma roundtrip (random)" ~count:500
    QCheck.(map abs small_signed_int)
    (fun v ->
      let buf = Bitbuf.create () in
      Codes.write_gamma buf v;
      let r = Bitreader.create (Bitbuf.contents buf) in
      Codes.read_gamma r = v)

let prop_mixed_stream =
  (* Interleave several codes in one stream; everything must read back in order. *)
  QCheck.Test.make ~name:"mixed code stream roundtrip" ~count:200
    QCheck.(list (pair (int_bound 2) (map abs small_signed_int)))
    (fun items ->
      let buf = Bitbuf.create () in
      List.iter
        (fun (code, v) ->
          match code with
          | 0 -> Codes.write_gamma buf v
          | 1 -> Codes.write_delta buf v
          | _ -> Codes.write_varint buf v)
        items;
      let r = Bitreader.create (Bitbuf.contents buf) in
      List.for_all
        (fun (code, v) ->
          let got =
            match code with
            | 0 -> Codes.read_gamma r
            | 1 -> Codes.read_delta r
            | _ -> Codes.read_varint r
          in
          got = v)
        items)

let test_extract_matches_get () =
  let b = Bits.of_bools (List.init 100 (fun i -> i mod 3 = 0 || i mod 7 = 1)) in
  for pos = 0 to 99 do
    for width = 0 to min 24 (100 - pos) do
      let v = Bits.extract b ~pos ~width in
      for j = 0 to width - 1 do
        if Bits.get b (pos + j) <> (v land (1 lsl j) <> 0) then
          Alcotest.failf "extract mismatch at pos=%d width=%d bit=%d" pos width j
      done
    done
  done

let test_read_blob_misaligned () =
  let buf = Bitbuf.create () in
  Bitbuf.write_bits buf ~width:3 5;
  let payload = Bits.of_bools (List.init 77 (fun i -> i mod 5 < 2)) in
  Bitbuf.append buf payload;
  Bitbuf.write_bits buf ~width:7 99;
  let r = Bitreader.create (Bitbuf.contents buf) in
  check "prefix" 5 (Bitreader.read_bits r ~width:3);
  let blob = Bitreader.read_blob r ~bits:77 in
  check_bool "blob equal" true (Bits.equal payload blob);
  check "suffix" 99 (Bitreader.read_bits r ~width:7)

let prop_append_concat_agree =
  QCheck.Test.make ~name:"Bitbuf.append = Bits.concat" ~count:300
    QCheck.(pair (list bool) (list bool))
    (fun (xs, ys) ->
      let a = Bits.of_bools xs and b = Bits.of_bools ys in
      let buf = Bitbuf.create () in
      Bitbuf.append buf a;
      Bitbuf.append buf b;
      Bits.equal (Bitbuf.contents buf) (Bits_ref.concat a b))

(* [append_range] against a bit-by-bit copy: for every [pos] and [len]
   in 0-200 of a 400-bit source (exactly sized, so the last loads take
   the tail path) and every destination offset 0-7 (a prefix of ones the
   range is ORed next to), the writer holds the prefix, then source bits
   [pos, pos + len), then a trailer written after it. *)
let check_append_range src =
  let dst = Bitbuf.create () and want = Bitbuf.create () in
  for offset = 0 to 7 do
    for pos = 0 to 200 do
      for len = 0 to 200 do
        Bitbuf.reset dst;
        Bitbuf.reset want;
        Bitbuf.write_bits dst ~width:offset ((1 lsl offset) - 1);
        for _ = 1 to offset do
          Bitbuf.write_bit want true
        done;
        Bitbuf.append_range dst src ~pos ~len;
        for i = pos to pos + len - 1 do
          Bitbuf.write_bit want (Bits.get src i)
        done;
        Bitbuf.write_bits dst ~width:3 5;
        List.iter (Bitbuf.write_bit want) [ true; false; true ];
        if not (Bits.equal (Bitbuf.view dst) (Bitbuf.view want)) then
          Alcotest.failf "append_range offset=%d pos=%d len=%d" offset pos len
      done
    done
  done

let source_bits f = Bits.of_bools (List.init 400 f)

let test_append_range_ones () = check_append_range (source_bits (fun _ -> true))

let prop_append_range =
  QCheck.Test.make ~name:"append_range = bit-by-bit copy (random payloads)" ~count:3 QCheck.int
    (fun seed ->
      let rng = Prng.Rng.of_int seed in
      check_append_range (source_bits (fun _ -> Prng.Rng.bool rng));
      true)

let test_append_range_bounds () =
  let src = source_bits (fun i -> i mod 3 = 0) and dst = Bitbuf.create () in
  List.iter
    (fun (pos, len) ->
      match Bitbuf.append_range dst src ~pos ~len with
      | () -> Alcotest.failf "append_range pos=%d len=%d accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 401); (400, 1); (201, 200) ]

(* The unchecked load reads what [extract] reads at every in-range
   position and width, up to the last bytes of exactly sized payloads. *)
let test_unsafe_extract () =
  for length = 0 to 130 do
    let b = Bits.of_bools (List.init length (fun i -> (i * 7) mod 5 < 2)) in
    for pos = 0 to length do
      for width = 0 to Int.min 56 (length - pos) do
        if Bits.unsafe_extract b ~pos ~width <> Bits.extract b ~pos ~width then
          Alcotest.failf "unsafe_extract length=%d pos=%d width=%d" length pos width
      done
    done
  done

(* ---------- word-level writer/reader vs a bit-list reference ---------- *)

type op = Bit of bool | Word of int * int | Blob of bool list

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun b -> Bit b) bool);
        ( 5,
          int_range 0 62 >>= fun width ->
          map (fun v -> Word (width, if width = 0 then 0 else v land ((1 lsl width) - 1))) int );
        (1, map (fun l -> Blob l) (list_size (int_bound 150) bool));
      ])

let print_op = function
  | Bit b -> Printf.sprintf "Bit %b" b
  | Word (w, v) -> Printf.sprintf "Word (%d, %d)" w v
  | Blob l -> Printf.sprintf "Blob <%d bits>" (List.length l)

let bools_of_word width v = List.init width (fun i -> v land (1 lsl i) <> 0)

(* Every bit of the backing bytes at index >= [length] must be zero. *)
let tail_zero bits =
  let data = Bits.bytes bits and n = Bits.length bits in
  let ok = ref true in
  for i = n to (8 * Bytes.length data) - 1 do
    if Char.code (Bytes.get data (i lsr 3)) land (1 lsl (i land 7)) <> 0 then ok := false
  done;
  !ok

(* A random op sequence after a random-length prefix (so every op lands at
   every bit offset across runs): the writer's bytes must equal
   [Bits.of_bools] of the reference bit list byte for byte, nothing may be
   set at or past [length], and an exactly sized payload must read back
   op by op, ending with [Underflow]. *)
let prop_bitio_differential =
  QCheck.Test.make ~name:"word-level bit I/O = bit-list reference" ~count:500
    QCheck.(
      pair (int_bound 70) (make ~print:(Print.list print_op) Gen.(list_size (int_bound 40) op_gen)))
    (fun (prefix, ops) ->
      let buf = Bitbuf.create ~capacity:1 () in
      let reference = ref (List.init prefix (fun i -> i mod 3 = 1)) in
      List.iter (Bitbuf.write_bit buf) !reference;
      List.iter
        (fun op ->
          let bits =
            match op with
            | Bit b ->
                Bitbuf.write_bit buf b;
                [ b ]
            | Word (width, v) ->
                Bitbuf.write_bits buf ~width v;
                bools_of_word width v
            | Blob l ->
                Bitbuf.append buf (Bits.of_bools l);
                l
          in
          reference := !reference @ bits)
        ops;
      let expected = Bits.of_bools !reference in
      let got = Bitbuf.contents buf in
      let n = Bits.length expected in
      Bits.length got = n
      && Bytes.equal (Bits.bytes got) (Bits.bytes expected)
      && tail_zero got
      && tail_zero (Bitbuf.view buf)
      &&
      let r = Bitreader.create got in
      for _ = 1 to prefix do
        ignore (Bitreader.read_bit r)
      done;
      List.for_all
        (function
          | Bit b -> Bitreader.read_bit r = b
          | Word (width, v) -> Bitreader.read_bits r ~width = v
          | Blob l -> Bits.equal (Bitreader.read_blob r ~bits:(List.length l)) (Bits.of_bools l))
        ops
      && Bitreader.remaining r = 0
      && match Bitreader.read_bit r with exception Bitreader.Underflow -> true | _ -> false)

(* [extract] at every position and width up to 62, including the tail of
   an exactly sized payload, against [get]. *)
let test_extract_tail () =
  for n = 0 to 140 do
    let b = Bits.of_bools (List.init n (fun i -> (i * 7) mod 5 < 2)) in
    for pos = 0 to n do
      for width = 0 to min 62 (n - pos) do
        let v = Bits.extract b ~pos ~width in
        for j = 0 to width - 1 do
          if Bits.get b (pos + j) <> (v land (1 lsl j) <> 0) then
            Alcotest.failf "extract n=%d pos=%d width=%d bit=%d" n pos width j
        done;
        if width < 62 && v lsr width <> 0 then Alcotest.failf "extract n=%d high bits set" n
      done
    done
  done

let underflows f = match f () with exception Bitreader.Underflow -> true | _ -> false

(* The unary-based decoders stay total: on all-ones input and on every
   truncation of a valid codeword they raise [Underflow] (and return). *)
let test_decoders_total () =
  for n = 0 to 300 do
    let ones = Bits.of_bools (List.init n (fun _ -> true)) in
    List.iter
      (fun (name, read) ->
        if not (underflows (fun () -> read (Bitreader.create ones))) then
          Alcotest.failf "%s on %d ones" name n)
      [
        ("unary", Codes.read_unary);
        ("gamma", Codes.read_gamma);
        ("delta", Codes.read_delta);
      ]
  done;
  let small = [ 0; 1; 5; 60; 61; 62; 100 ] in
  let large = small @ [ 1 lsl 20; (1 lsl 40) + 17 ] in
  List.iter
    (fun (name, write, read, values) ->
      List.iter
        (fun v ->
          let buf = Bitbuf.create () in
          write buf v;
          let full = Bits_ref.to_bools (Bitbuf.contents buf) in
          check (name ^ " roundtrip") v (read (Bitreader.create (Bits.of_bools full)));
          for len = 0 to List.length full - 1 do
            let cut = Bits.of_bools (List.filteri (fun i _ -> i < len) full) in
            if not (underflows (fun () -> read (Bitreader.create cut))) then
              Alcotest.failf "%s of %d cut to %d bits" name v len
          done)
        values)
    [
      ("unary", Codes.write_unary, Codes.read_unary, small);
      ("gamma", Codes.write_gamma, Codes.read_gamma, large);
      ("delta", Codes.write_delta, Codes.read_delta, large);
    ]

(* A gamma codeword by hand: [z] ones, the terminator, then [z] low bits
   — so prefixes [write_gamma] never emits can be built. *)
let raw_gamma buf ~prefix ~low =
  for _ = 1 to prefix do
    Bitbuf.write_bit buf true
  done;
  Bitbuf.write_bit buf false;
  for i = 0 to prefix - 1 do
    Bitbuf.write_bit buf (i < 62 && (low lsr i) land 1 = 1)
  done

(* A prefix of 61 is the longest [write_gamma] writes and decodes; 62, 63
   and 70 raise [Underflow] instead of wrapping or failing on a width —
   alone, behind a short codeword and ahead of a long tail (so the
   one-load window is tried first), and inside a delta codeword. *)
let test_gamma_overlong () =
  let stream ~prefix ~low ~pad =
    let buf = Bitbuf.create () in
    Codes.write_gamma buf 5;
    raw_gamma buf ~prefix ~low;
    for i = 1 to pad do
      Bitbuf.write_bit buf (i mod 3 = 0)
    done;
    Bitreader.create (Bitbuf.contents buf)
  in
  List.iter
    (fun pad ->
      List.iter
        (fun low ->
          let r = stream ~prefix:61 ~low ~pad in
          check "short code" 5 (Codes.read_gamma r);
          check (Printf.sprintf "prefix 61 low %d pad %d" low pad) ((low lor (1 lsl 61)) - 1)
            (Codes.read_gamma r);
          List.iter
            (fun prefix ->
              let r = stream ~prefix ~low ~pad in
              check "short code" 5 (Codes.read_gamma r);
              if not (underflows (fun () -> Codes.read_gamma r)) then
                Alcotest.failf "gamma prefix %d low %d pad %d" prefix low pad)
            [ 62; 63; 70 ])
        [ 0; 1; (1 lsl 61) - 1 ])
    [ 0; 7; 100 ];
  let largest = Bitbuf.create () in
  Codes.write_gamma largest (max_int - 1);
  check "largest gamma" (max_int - 1) (Codes.read_gamma (Bitreader.of_bitbuf largest));
  (* Delta: a gamma part over 61, and a width of 63 (a gamma value of 62). *)
  List.iter
    (fun (name, write) ->
      let buf = Bitbuf.create () in
      write buf;
      for _ = 1 to 80 do
        Bitbuf.write_bit buf true
      done;
      if not (underflows (fun () -> Codes.read_delta (Bitreader.create (Bitbuf.contents buf)))) then
        Alcotest.failf "delta %s" name)
    [
      ("gamma prefix 62", fun buf -> raw_gamma buf ~prefix:62 ~low:0);
      ("width 63", fun buf -> Codes.write_gamma buf 62);
    ]

(* The unary-plus-bits reference decoder, one bit at a time. *)
let reference_gamma r =
  let z = ref 0 in
  while Bitreader.read_bit r do
    incr z
  done;
  if !z > 61 then raise Bitreader.Underflow;
  let v = ref 0 in
  for i = 0 to !z - 1 do
    if Bitreader.read_bit r then v := !v lor (1 lsl i)
  done;
  (!v lor (1 lsl !z)) - 1

(* Decode codewords until the payload ends: each value with the position
   after it, then where decoding stopped and whether it underflowed. *)
let decode_all read payload =
  let r = Bitreader.create payload in
  let position () = Bits.length payload - Bitreader.remaining r in
  let rec go acc =
    if Bitreader.remaining r = 0 then List.rev (`End (position ()) :: acc)
    else
      let before = position () in
      match read r with
      | v -> go (`Value (v, position ()) :: acc)
      | exception Bitreader.Underflow -> List.rev (`Underflow before :: acc)
  in
  go []

(* Random gamma streams mixing short, window-crossing and 61-bit
   codewords, then damaged: cut short, bits flipped, or all ones. *)
let gamma_stream_gen =
  QCheck.Gen.(
    let value =
      frequency
        [
          (6, int_bound 40);
          (3, map (fun b -> 1 lsl b) (int_bound 30) >>= fun top -> int_bound top);
          (1, int_range 0 (max_int - 1));
        ]
    in
    let damage =
      frequency
        [
          (2, return `None);
          (3, map (fun f -> `Cut f) (float_bound_inclusive 1.0));
          (3, map (fun l -> `Flip l) (list_size (int_range 1 6) (int_bound 100_000)));
          (1, map (fun n -> `Ones n) (int_bound 300));
        ]
    in
    pair (list_size (int_bound 40) value) damage)

let print_stream (values, damage) =
  Printf.sprintf "%s %s" (QCheck.Print.(list int) values)
    (match damage with
    | `None -> "intact"
    | `Cut f -> Printf.sprintf "cut %g" f
    | `Flip l -> "flip " ^ QCheck.Print.(list int) l
    | `Ones n -> Printf.sprintf "%d ones" n)

let prop_gamma_differential =
  QCheck.Test.make ~name:"read_gamma = unary-plus-bits reference on damaged streams" ~count:1000
    (QCheck.make ~print:print_stream gamma_stream_gen)
    (fun (values, damage) ->
      let buf = Bitbuf.create () in
      List.iter (Codes.write_gamma buf) values;
      let intact = Bitbuf.contents buf in
      let n = Bits.length intact in
      let payload =
        match damage with
        | `None -> intact
        | `Cut f ->
            let len = int_of_float (f *. float_of_int n) in
            Bits.of_bools (List.filteri (fun i _ -> i < len) (Bits_ref.to_bools intact))
        | `Flip l -> if n = 0 then intact else List.fold_left (fun b i -> Bits_ref.flip b (i mod n)) intact l
        | `Ones len -> Bits.of_bools (List.init len (fun _ -> true))
      in
      let got = decode_all Codes.read_gamma payload in
      let decoded = List.filter_map (function `Value (v, _) -> Some v | _ -> None) got in
      (damage <> `None || decoded = values) && got = decode_all reference_gamma payload)

let sorted_set_gen =
  QCheck.Gen.(
    list_size (int_bound 50) (int_bound 10_000) >|= fun l ->
    Array.of_list (List.sort_uniq compare l))

let sorted_set = QCheck.make ~print:(fun a -> QCheck.Print.(array int) a) sorted_set_gen

(* ---------- Bignat ---------- *)

(* Native-int conversions, built from the bit-level interface. *)
let bignat_of_int n =
  if n < 0 then invalid_arg "bignat_of_int";
  if n = 0 then Bignat.zero else Bignat.of_bits (fun i -> (n lsr i) land 1 = 1) ~width:(Codes.bit_width n)

let bignat_to_int_opt t =
  let w = Bignat.bit_length t in
  if w > 62 then None
  else
    let v = ref 0 in
    for i = w - 1 downto 0 do
      v := (!v lsl 1) lor if Bignat.bit t i then 1 else 0
    done;
    Some !v

let bignat_equal a b = Bignat.compare a b = 0

let test_bignat_basic () =
  check_bool "zero" true (Bignat.is_zero Bignat.zero);
  Alcotest.(check (option int)) "roundtrip" (Some 123456789) (bignat_to_int_opt (bignat_of_int 123456789));
  Alcotest.(check (option int)) "max_int" (Some max_int) (bignat_to_int_opt (bignat_of_int max_int));
  check "compare" 0 (Bignat.compare (bignat_of_int 42) (bignat_of_int 42));
  check_bool "lt" true (Bignat.compare (bignat_of_int 41) (bignat_of_int 42) < 0)

let test_bignat_arithmetic () =
  let a = bignat_of_int 999_999_999_999 and b = bignat_of_int 123_456_789 in
  Alcotest.(check (option int)) "add" (Some 1_000_123_456_788) (bignat_to_int_opt (Bignat.add a b));
  Alcotest.(check (option int)) "sub" (Some 999_876_543_210) (bignat_to_int_opt (Bignat.sub a b));
  Alcotest.(check (option int)) "mul_small" (Some 2_999_999_999_997)
    (bignat_to_int_opt (Bignat.mul_small a 3));
  let q, r = Bignat.div_small a 7 in
  Alcotest.(check (option int)) "div q" (Some 142_857_142_857) (bignat_to_int_opt q);
  check "div r" 0 r

let test_bignat_big () =
  (* 2^200 via repeated doubling: bit_length must be 201 and only bit 200
     set. *)
  let v = ref Bignat.one in
  for _ = 1 to 200 do
    v := Bignat.mul_small !v 2
  done;
  check "bit length" 201 (Bignat.bit_length !v);
  check_bool "top bit" true (Bignat.bit !v 200);
  check_bool "low bit" false (Bignat.bit !v 0);
  Alcotest.(check (option int)) "too big" None (bignat_to_int_opt !v);
  (* divide back down *)
  let w = ref !v in
  for _ = 1 to 200 do
    let q, r = Bignat.div_small !w 2 in
    check "even" 0 r;
    w := q
  done;
  check_bool "back to one" true (bignat_equal !w Bignat.one)

let test_bignat_binomial () =
  let check_binom n k expected =
    Alcotest.(check (option int))
      (Printf.sprintf "C(%d,%d)" n k)
      (Some expected)
      (bignat_to_int_opt (Bignat.binomial n k))
  in
  check_binom 10 5 252;
  check_binom 52 5 2_598_960;
  check_binom 7 0 1;
  check_binom 7 7 1;
  check_binom 3 5 0;
  (* C(1000, 500) has about 995 bits *)
  let big = Bignat.binomial 1000 500 in
  check_bool "big binomial size" true (Bignat.bit_length big > 980 && Bignat.bit_length big < 1000)

let prop_pascal =
  QCheck.Test.make ~name:"Pascal identity C(n,k)=C(n-1,k-1)+C(n-1,k)" ~count:200
    QCheck.(pair (int_range 1 300) (int_range 0 300))
    (fun (n, k) ->
      bignat_equal (Bignat.binomial n k)
        (Bignat.add (Bignat.binomial (n - 1) (k - 1)) (Bignat.binomial (n - 1) k)))

(* ---------- Enum_codec ---------- *)

(* Exact encoded size of a k-subset of [0, n): the gamma cardinality, then
   ceil(log2 C(n, k)) rank bits. *)
let enum_cost ~universe ~k = Codes.gamma_cost k + Memo.binomial_bits ~n:universe ~k

let prop_enum_roundtrip =
  QCheck.Test.make ~name:"enumerative codec roundtrip" ~count:150 sorted_set (fun s ->
      let universe = 10_001 in
      let buf = Bitbuf.create () in
      Enum_codec.write buf ~universe s;
      let r = Bitreader.create (Bitbuf.contents buf) in
      Enum_codec.read r ~universe = s && Bitbuf.length buf = enum_cost ~universe ~k:(Array.length s))

let test_enum_exactly_entropy () =
  (* The payload is exactly ceil(log2 C(n,k)) bits. *)
  let universe = 4096 and k = 128 in
  let entropy = Set_codec.log2_binomial universe k in
  let cost = enum_cost ~universe ~k - Codes.gamma_cost k in
  check "ceil entropy" (int_of_float (Float.ceil entropy)) cost

let test_enum_beats_gaps () =
  (* On a dense set the enumerative code is strictly tighter than gaps. *)
  let universe = 1024 and k = 256 in
  let s = Array.init k (fun i -> i * 4) in
  let gaps = Set_codec.gaps_cost s in
  let enum = enum_cost ~universe ~k in
  check_bool (Printf.sprintf "enum %d < gaps %d" enum gaps) true (enum < gaps)

let test_enum_extremes () =
  let roundtrip universe s =
    let buf = Bitbuf.create () in
    Enum_codec.write buf ~universe s;
    let r = Bitreader.create (Bitbuf.contents buf) in
    Alcotest.(check (array int)) "roundtrip" s (Enum_codec.read r ~universe)
  in
  roundtrip 100 [||];
  roundtrip 100 [| 0 |];
  roundtrip 100 [| 99 |];
  roundtrip 100 (Array.init 100 Fun.id);
  roundtrip 2 [| 0; 1 |]

(* ---------- Set_codec ---------- *)

let prop_gaps_roundtrip =
  QCheck.Test.make ~name:"set gaps roundtrip" ~count:300 sorted_set (fun s ->
      let buf = Bitbuf.create () in
      Set_codec.write_gaps buf s;
      let r = Bitreader.create (Bitbuf.contents buf) in
      Set_codec.read_gaps r = s)

let prop_gaps_cost_exact =
  QCheck.Test.make ~name:"gaps_cost matches written bits" ~count:300 sorted_set (fun s ->
      let buf = Bitbuf.create () in
      Set_codec.write_gaps buf s;
      Bitbuf.length buf = Set_codec.gaps_cost s)

let test_gaps_near_entropy () =
  (* The gap encoding of a k-subset of [n] should stay within a small
     constant factor of log2 (binom n k) for a dense-ish arithmetic set. *)
  let n = 1 lsl 16 and k = 1 lsl 10 in
  let s = Array.init k (fun i -> i * (n / k)) in
  let cost = float_of_int (Set_codec.gaps_cost s) in
  let entropy = Set_codec.log2_binomial n k in
  if cost > 3.0 *. entropy then
    Alcotest.failf "gap encoding too fat: %.0f bits vs entropy %.0f" cost entropy

let test_codec_validation () =
  Alcotest.check_raises "unsorted" (Invalid_argument "Set_codec: not strictly increasing") (fun () ->
      Set_codec.validate ~universe:10 [| 3; 2 |]);
  Alcotest.check_raises "out of universe" (Invalid_argument "Set_codec: element out of universe")
    (fun () -> Set_codec.validate ~universe:10 [| 3; 10 |])

let test_log2_binomial () =
  (* binom(10, 5) = 252 -> log2 = 7.977... *)
  let v = Set_codec.log2_binomial 10 5 in
  if abs_float (v -. 7.977) > 0.01 then Alcotest.failf "log2_binomial 10 5 = %f" v

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bitio"
    [
      ( "bits",
        [
          Alcotest.test_case "of_bools/get" `Quick test_bits_of_bools;
          Alcotest.test_case "get bounds" `Quick test_bits_get_bounds;
          Alcotest.test_case "equal" `Quick test_bits_equal;
          Alcotest.test_case "of_string" `Quick test_bits_of_string;
        ] );
      ( "bitbuf",
        [
          Alcotest.test_case "write/read widths" `Quick test_write_read_bits;
          Alcotest.test_case "width checks" `Quick test_bitbuf_width_checks;
          Alcotest.test_case "underflow" `Quick test_reader_underflow;
          Alcotest.test_case "growth" `Quick test_bitbuf_growth;
          Alcotest.test_case "read_ones = bit-by-bit count" `Quick test_read_ones_reference;
          Alcotest.test_case "extract matches get" `Quick test_extract_matches_get;
          Alcotest.test_case "read_blob misaligned" `Quick test_read_blob_misaligned;
          qt prop_append_concat_agree;
          qt prop_bitio_differential;
          Alcotest.test_case "extract at the tail" `Quick test_extract_tail;
          Alcotest.test_case "unsafe_extract = extract" `Quick test_unsafe_extract;
          Alcotest.test_case "append_range = bit-by-bit copy (all ones)" `Quick
            test_append_range_ones;
          qt prop_append_range;
          Alcotest.test_case "append_range bounds" `Quick test_append_range_bounds;
        ] );
      ( "bignat",
        [
          Alcotest.test_case "basics" `Quick test_bignat_basic;
          Alcotest.test_case "arithmetic" `Quick test_bignat_arithmetic;
          Alcotest.test_case "big values" `Quick test_bignat_big;
          Alcotest.test_case "binomial" `Quick test_bignat_binomial;
          qt prop_pascal;
        ] );
      ( "enum_codec",
        [
          qt prop_enum_roundtrip;
          Alcotest.test_case "exactly entropy" `Quick test_enum_exactly_entropy;
          Alcotest.test_case "beats gaps on dense sets" `Quick test_enum_beats_gaps;
          Alcotest.test_case "extremes" `Quick test_enum_extremes;
        ] );
      ( "codes",
        [
          Alcotest.test_case "bit_width" `Quick test_bit_width;
          Alcotest.test_case "gamma roundtrip+cost" `Quick test_gamma;
          Alcotest.test_case "delta roundtrip+cost" `Quick test_delta;
          Alcotest.test_case "varint roundtrip+cost" `Quick test_varint;
          Alcotest.test_case "unary roundtrip" `Quick test_unary;
          Alcotest.test_case "gamma cost shape" `Quick test_gamma_cost_shape;
          qt prop_gamma_roundtrip;
          qt prop_mixed_stream;
          Alcotest.test_case "decoders total on truncation" `Quick test_decoders_total;
          qt prop_gamma_differential;
          Alcotest.test_case "gamma prefix over 61 underflows" `Quick test_gamma_overlong;
        ] );
      ( "set_codec",
        [
          qt prop_gaps_roundtrip;
          qt prop_gaps_cost_exact;
          Alcotest.test_case "near entropy" `Quick test_gaps_near_entropy;
          Alcotest.test_case "validation" `Quick test_codec_validation;
          Alcotest.test_case "log2_binomial" `Quick test_log2_binomial;
        ] );
    ]
