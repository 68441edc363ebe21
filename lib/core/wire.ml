let of_set set = Bitio.Pool.payload (fun buf -> Bitio.Set_codec.write_gaps buf set)

let of_sets sets =
  Bitio.Pool.payload (fun buf -> List.iter (fun set -> Bitio.Set_codec.write_gaps buf set) sets)

let gamma_msg v = Bitio.Pool.payload (fun buf -> Bitio.Codes.write_gamma buf v)

let read_gamma_msg payload = Bitio.Codes.read_gamma (Bitio.Bitreader.create payload)

let bit_msg b = Bitio.Bits.of_bools [ b ]

let read_bit_msg payload = Bitio.Bits.get payload 0

(* Flags travel 56 to a word: flag [i] of a chunk is bit [i] of the word
   written (or extracted) at the chunk's position. *)
let bitmap_word = 56

let bitmap_msg flags =
  let n = Array.length flags in
  Bitio.Pool.payload (fun buf ->
      let pos = ref 0 in
      while !pos < n do
        let width = min bitmap_word (n - !pos) in
        let w = ref 0 in
        for i = width - 1 downto 0 do
          w := (!w lsl 1) lor Bool.to_int flags.(!pos + i)
        done;
        Bitio.Bitbuf.write_bits buf ~width !w;
        pos := !pos + width
      done)

let read_bitmap_msg payload ~width =
  if Bitio.Bits.length payload < width then invalid_arg "Wire.read_bitmap_msg";
  let flags = Array.make width false in
  let pos = ref 0 in
  while !pos < width do
    let take = min bitmap_word (width - !pos) in
    let w = Bitio.Bits.extract payload ~pos:!pos ~width:take in
    for i = 0 to take - 1 do
      flags.(!pos + i) <- (w lsr i) land 1 = 1
    done;
    pos := !pos + take
  done;
  flags
