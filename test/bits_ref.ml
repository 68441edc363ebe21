(* Reference bit-vector operations the suites check the library against:
   whole-vector rebuilds over [Bitio.Bits]'s public surface, with none of
   the pooled or in-place machinery of the code under test.  Shared by
   every suite in this directory. *)

let to_bools b = List.init (Bitio.Bits.length b) (Bitio.Bits.get b)

(* [a] followed by [b]. *)
let concat a b = Bitio.Bits.of_bools (to_bools a @ to_bools b)

(* [b] with bit [i] inverted, as a fresh vector: single-bit corruption. *)
let flip b i =
  let n = Bitio.Bits.length b in
  if i < 0 || i >= n then invalid_arg "Bits_ref.flip: index out of bounds";
  let data = Bytes.sub (Bitio.Bits.bytes b) 0 ((n + 7) / 8) in
  let j = i lsr 3 in
  Bytes.set data j (Char.chr (Char.code (Bytes.get data j) lxor (1 lsl (i land 7))));
  Bitio.Bits.unsafe_of_bytes data ~length:n

(* The length, then the first 64 bits as [01] characters. *)
let pp ppf b =
  let n = Bitio.Bits.length b in
  Format.fprintf ppf "%d'" n;
  for i = 0 to min (n - 1) 63 do
    Format.pp_print_char ppf (if Bitio.Bits.get b i then '1' else '0')
  done;
  if n > 64 then Format.pp_print_string ppf "..."
