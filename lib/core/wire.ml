let of_set set = Bitio.Pool.payload (fun buf -> Bitio.Set_codec.write_gaps buf set)

let gamma_msg v = Bitio.Pool.payload (fun buf -> Bitio.Codes.write_gamma buf v)

let read_gamma_msg payload = Bitio.Codes.read_gamma (Bitio.Bitreader.create payload)

let bit_msg b = Bitio.Bits.of_bools [ b ]

let read_bit_msg payload = Bitio.Bits.get payload 0

(* Flags travel 56 to a word: flag [i] of a bitmap is bit [i mod 56] of
   word [i / 56], and the last word carries only the flags left. *)
let bitmap_word = 56

let[@inline] bitmap_bit i = 1 lsl (i mod bitmap_word)

let[@inline] word_width ~width first = Int.min bitmap_word (width - first)

let write_bitmap_word buf ~width ~first word =
  Bitio.Bitbuf.write_bits buf ~width:(word_width ~width first) word

let read_bitmap_word reader ~width ~first =
  Bitio.Bitreader.read_bits reader ~width:(word_width ~width first)

let bitmap_msg flags =
  let n = Array.length flags in
  Bitio.Pool.payload (fun buf ->
      let first = ref 0 in
      while !first < n do
        let w = ref 0 in
        for i = !first to !first + word_width ~width:n !first - 1 do
          if flags.(i) then w := !w lor bitmap_bit i
        done;
        write_bitmap_word buf ~width:n ~first:!first !w;
        first := !first + bitmap_word
      done)

let read_bitmap_msg payload ~width =
  if Bitio.Bits.length payload < width then invalid_arg "Wire.read_bitmap_msg";
  let flags = Array.make width false in
  let first = ref 0 in
  while !first < width do
    let take = word_width ~width !first in
    let w = Bitio.Bits.extract payload ~pos:!first ~width:take in
    for i = !first to !first + take - 1 do
      flags.(i) <- w land bitmap_bit i <> 0
    done;
    first := !first + bitmap_word
  done;
  flags
