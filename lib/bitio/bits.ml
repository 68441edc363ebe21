type t = { data : bytes; length : int }

let empty = { data = Bytes.empty; length = 0 }

let length b = b.length

let byte_count length = (length + 7) / 8

let get b i =
  if i < 0 || i >= b.length then invalid_arg "Bits.get: index out of bounds";
  let byte = Char.code (Bytes.get b.data (i lsr 3)) in
  byte land (1 lsl (i land 7)) <> 0

(* The bytes from [j] to the end of [data] (fewer than 8), little-endian;
   missing bytes read as zero.  Out of line: only the tail of an exactly
   sized payload comes here. *)
let[@inline never] load_tail data j =
  let w = ref 0 in
  for i = Bytes.length data - 1 downto j do
    w := (!w lsl 8) lor Char.code (Bytes.unsafe_get data i)
  done;
  !w

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The 64 bits starting at byte [j], little-endian, as a native int: bit 63
   falls off, which leaves 63 - off >= 56 usable bits after a shift by an
   in-byte offset.  One unchecked load, inline, when all 8 bytes exist
   (the test is what makes it safe; [Sys.big_endian] is a constant, so
   little-endian hosts compile no swap). *)
let[@inline] load data j =
  if j + 8 <= Bytes.length data then begin
    let w = get64u data j in
    Int64.to_int (if Sys.big_endian then swap64 w else w)
  end
  else load_tail data j

(* Bits [pos, pos + width) for [width <= 56]: one load. *)
let[@inline] field data ~pos ~width = (load data (pos lsr 3) lsr (pos land 7)) land ((1 lsl width) - 1)

let[@inline] unsafe_extract b ~pos ~width = field b.data ~pos ~width

let extract b ~pos ~width =
  if width < 0 || width > 62 then invalid_arg "Bits.extract: width";
  if pos < 0 || pos + width > b.length then invalid_arg "Bits.extract: out of bounds";
  if width <= 56 then field b.data ~pos ~width
  else field b.data ~pos ~width:32 lor (field b.data ~pos:(pos + 32) ~width:(width - 32) lsl 32)

let of_bools bools =
  let length = List.length bools in
  let data = Bytes.make (byte_count length) '\000' in
  List.iteri
    (fun i bit ->
      if bit then
        let j = i lsr 3 in
        let cur = Char.code (Bytes.get data j) in
        Bytes.set data j (Char.chr (cur lor (1 lsl (i land 7)))))
    bools;
  { data; length }

let to_bools b = List.init b.length (get b)

let of_string s = { data = Bytes.of_string s; length = 8 * String.length s }

let unsafe_of_bytes data ~length =
  if length < 0 || length > 8 * Bytes.length data then
    invalid_arg "Bits.unsafe_of_bytes: bad length";
  { data; length }

let bytes b = b.data

let equal a b =
  a.length = b.length
  &&
  let n = byte_count a.length in
  let rec loop i = i >= n || (Bytes.get a.data i = Bytes.get b.data i && loop (i + 1)) in
  loop 0

let key b = string_of_int b.length ^ ":" ^ Bytes.sub_string b.data 0 (byte_count b.length)

let concat a b =
  if a.length = 0 then b
  else if b.length = 0 then a
  else begin
    let length = a.length + b.length in
    let data = Bytes.make (byte_count length) '\000' in
    Bytes.blit a.data 0 data 0 (byte_count a.length);
    (* [a] may end mid-byte, so bits of [b] are re-packed one by one. *)
    for i = 0 to b.length - 1 do
      if get b i then begin
        let k = a.length + i in
        let j = k lsr 3 in
        let cur = Char.code (Bytes.get data j) in
        Bytes.set data j (Char.chr (cur lor (1 lsl (k land 7))))
      end
    done;
    { data; length }
  end

let flip b i =
  if i < 0 || i >= b.length then invalid_arg "Bits.flip: index out of bounds";
  let data = Bytes.sub b.data 0 (byte_count b.length) in
  let j = i lsr 3 in
  Bytes.set data j (Char.chr (Char.code (Bytes.get data j) lxor (1 lsl (i land 7))));
  { data; length = b.length }

let pp ppf b =
  Format.fprintf ppf "%d'" b.length;
  for i = 0 to min (b.length - 1) 63 do
    Format.pp_print_char ppf (if get b i then '1' else '0')
  done;
  if b.length > 64 then Format.pp_print_string ppf "..."
