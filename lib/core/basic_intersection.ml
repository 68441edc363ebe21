let tag_bits_for ~failure =
  if failure <= 0.0 || failure >= 1.0 then invalid_arg "Basic_intersection.tag_bits: failure";
  let failure_bits = int_of_float (Float.ceil (-.log failure /. log 2.0)) in
  fun ~m -> Int.max 4 ((2 * Iterated_log.log2_ceil (Int.max 2 m)) + failure_bits)

let tag_bits ~m ~failure = tag_bits_for ~failure ~m

let write_tags buf fn set = Array.iter (fun x -> Strhash.write_int fn buf x) set

(* Tags of at most 62 bits are keyed by their native-int value (what
   [Strhash.int_tag] computes) in one flat open-addressing table: a
   power-of-two capacity at least twice the count, [-1] (never a tag) in
   the empty slots, linear probing from a multiplicative slot that takes
   the top [63 - shift] bits of [tag * odd constant].  Wider tags are
   keyed by the canonical string of the tag bits. *)
type tag_table = Ints of { slots : int array; shift : int } | Keys of (string, unit) Hashtbl.t

(* The slot holding [tag], or the empty slot where it would go. *)
let probe slots ~shift tag =
  let mask = Array.length slots - 1 in
  let i = ref ((tag * 0x2545F4914F6CDD1D) lsr shift) in
  while
    let v = slots.(!i) in
    v <> tag && v <> -1
  do
    i := (!i + 1) land mask
  done;
  !i

(* A count read off the wire must fail fast, not size a table: [count]
   tags of [bits] bits each must still be in the payload. *)
let read_tag_keys reader ~bits ~count =
  if count > Bitio.Bitreader.remaining reader / Int.max 1 bits then raise Bitio.Bitreader.Underflow;
  if bits <= 62 then begin
    let log_cap = ref 1 in
    while 1 lsl !log_cap < 2 * count do
      incr log_cap
    done;
    let slots = Array.make (1 lsl !log_cap) (-1) and shift = 63 - !log_cap in
    for _ = 1 to count do
      let tag = Bitio.Bitreader.read_bits reader ~width:bits in
      slots.(probe slots ~shift tag) <- tag
    done;
    Ints { slots; shift }
  end
  else begin
    let table = Hashtbl.create (2 * count) in
    for _ = 1 to count do
      Hashtbl.replace table (Bitio.Bits.key (Bitio.Bitreader.read_blob reader ~bits)) ()
    done;
    Keys table
  end

let tag_matches fn table x =
  match table with
  | Ints { slots; shift } ->
      let tag = Strhash.int_tag fn x in
      slots.(probe slots ~shift tag) = tag
  | Keys table -> Hashtbl.mem table (Bitio.Bits.key (Strhash.apply_int fn x))

let filter_by_tags fn table set = Iset.filter (tag_matches fn table) set

(* The standalone 4-message exchange.  [mine]/[theirs] differ only in who
   talks first, so both runners share this body. *)
let run rng ~failure chan ~first mine =
  let open Commsim.Transport in
  let my_size = Array.length mine in
  let their_size =
    Obsv.Trace.span Obsv.Phases.Bi_sizes (fun () ->
        if first then begin
          chan.send (Wire.gamma_msg my_size);
          Wire.read_gamma_msg (chan.recv ())
        end
        else begin
          let n = Wire.read_gamma_msg (chan.recv ()) in
          chan.send (Wire.gamma_msg my_size);
          n
        end)
  in
  let m = my_size + their_size in
  let bits = tag_bits ~m ~failure in
  let fn = Strhash.create (Prng.Rng.with_label rng "basic-intersection/fn") ~bits in
  let my_tags = Bitio.Pool.payload (fun buf -> write_tags buf fn mine) in
  Obsv.Metrics.observe "bi/tag_bits" bits;
  let their_tags =
    Obsv.Trace.span Obsv.Phases.Bi_tags (fun () ->
        Obsv.Trace.attr "bits" bits;
        if first then begin
          chan.send my_tags;
          chan.recv ()
        end
        else begin
          let t = chan.recv () in
          chan.send my_tags;
          t
        end)
  in
  let table = read_tag_keys (Bitio.Bitreader.create their_tags) ~bits ~count:their_size in
  filter_by_tags fn table mine

let run_alice rng ~failure chan s = run rng ~failure chan ~first:true s

let run_bob rng ~failure chan t = run rng ~failure chan ~first:false t

let protocol ~failure =
  {
    Protocol.name = Printf.sprintf "basic-intersection(failure=%g)" failure;
    sandwich = true;
    run =
      (fun rng ~universe s t ->
        Protocol.validate_inputs ~universe s t;
        let (alice, bob), cost =
          Commsim.Two_party.run
            ~alice:(fun chan -> run_alice rng ~failure chan s)
            ~bob:(fun chan -> run_bob rng ~failure chan t)
        in
        { Protocol.alice; bob; cost });
  }
