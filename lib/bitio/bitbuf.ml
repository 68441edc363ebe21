(* Writes are read-OR-write cycles on the little-endian 64-bit word at the
   byte holding the current position.  [slack] spare bytes past the last
   byte in use keep that word in bounds, so no write ever splits into
   per-byte steps. *)
type t = { mutable data : bytes; mutable length : int }

let slack = 8

let create ?(capacity = 256) () =
  { data = Bytes.make (((capacity + 7) / 8) + slack) '\000'; length = 0 }

let length t = t.length

let ensure t extra_bits =
  let needed = ((t.length + extra_bits + 7) / 8) + slack in
  if needed > Bytes.length t.data then begin
    let capacity = Int.max needed (2 * Bytes.length t.data) in
    let data = Bytes.make capacity '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end

(* OR [v] (below 2^56) into the buffer at bit [pos]: shifted by the
   in-byte offset it still fits the 64-bit word. *)
let or_word data pos v =
  let j = pos lsr 3 in
  Bytes.set_int64_le data j
    (Int64.logor (Bytes.get_int64_le data j) (Int64.shift_left (Int64.of_int v) (pos land 7)))

let write_bit t bit =
  ensure t 1;
  if bit then or_word t.data t.length 1;
  t.length <- t.length + 1

let write_bits_unchecked t ~width v =
  ensure t width;
  if width <= 56 then or_word t.data t.length v
  else begin
    or_word t.data t.length (v land 0xFFFFFFFF);
    or_word t.data (t.length + 32) (v lsr 32)
  end;
  t.length <- t.length + width

let write_bits t ~width v =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.write_bits: width";
  if v < 0 || (width < 62 && v lsr width <> 0) then
    invalid_arg "Bitbuf.write_bits: value does not fit width";
  write_bits_unchecked t ~width v

(* One capacity check for the whole range, then one 56-bit load and one
   word write per step. *)
let append_range t bits ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bits.length bits then
    invalid_arg "Bitbuf.append_range: out of bounds";
  ensure t len;
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let take = Int.min 56 (stop - !i) in
    or_word t.data t.length (Bits.extract bits ~pos:!i ~width:take);
    t.length <- t.length + take;
    i := !i + take
  done

let append t bits = append_range t bits ~pos:0 ~len:(Bits.length bits)

let contents t =
  let data = Bytes.sub t.data 0 ((t.length + 7) / 8) in
  Bits.unsafe_of_bytes data ~length:t.length

(* The writer's invariant — every bit at index >= length is zero — is what
   makes both [reset] (zero only the used prefix) and [view] (alias the
   backing bytes directly) sound. *)
let reset t =
  Bytes.fill t.data 0 ((t.length + 7) / 8) '\000';
  t.length <- 0

let view t = Bits.unsafe_of_bytes t.data ~length:t.length
