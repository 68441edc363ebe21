open Intersect

(* Sketch = the [size] smallest 48-bit images, kept sorted ascending.
   [complete] records that nothing was truncated, making estimates exact. *)
type t = { values : int array; complete : bool }

let hash_bits = 48

let int_of_tag tag =
  Bitio.Bits.extract tag ~pos:0 ~width:24 lor (Bitio.Bits.extract tag ~pos:24 ~width:24 lsl 24)

let create rng ~size set =
  if size < 1 then invalid_arg "Sketch.create: size";
  let fn = Strhash.create (Prng.Rng.with_label rng "sketch/hash") ~bits:hash_bits in
  let images = Array.map (fun x -> int_of_tag (Strhash.apply_int fn x)) set in
  Array.sort compare images;
  (* collisions between distinct elements are ~k^2/2^48 and only bias the
     estimate, never break it *)
  let distinct = Iset.of_array images in
  {
    values = Array.sub distinct 0 (min size (Array.length distinct));
    complete = Array.length distinct <= size;
  }

let cardinal t = Array.length t.values

let encode t =
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bit buf t.complete;
  Bitio.Set_codec.write_gaps buf t.values;
  Bitio.Bitbuf.contents buf

let decode reader =
  let complete = Bitio.Bitreader.read_bit reader in
  { values = Bitio.Set_codec.read_gaps reader; complete }

let estimate ~size_a ~size_b a b =
  if size_a = 0 || size_b = 0 then (0.0, 0.0)
  else if a.complete && b.complete then begin
    (* nothing truncated: the sketches are the full image sets *)
    let shared = Array.length (Iset.inter a.values b.values) in
    let union = Array.length (Iset.union a.values b.values) in
    (float_of_int shared /. float_of_int union, float_of_int shared)
  end
  else begin
    let k = max 1 (min (cardinal a) (cardinal b)) in
    let union = Iset.union a.values b.values in
    let merged = Array.sub union 0 (min k (Array.length union)) in
    let shared =
      Array.fold_left
        (fun acc v -> if Iset.mem a.values v && Iset.mem b.values v then acc + 1 else acc)
        0 merged
    in
    let j = float_of_int shared /. float_of_int (Array.length merged) in
    let intersection = j /. (1.0 +. j) *. float_of_int (size_a + size_b) in
    (j, intersection)
  end

let exchange rng ~sketch_size s t =
  let message mine =
    let sketch = create rng ~size:sketch_size mine in
    let buf = Bitio.Bitbuf.create () in
    Bitio.Codes.write_gamma buf (Array.length mine);
    Bitio.Bitbuf.append buf (encode sketch);
    (sketch, Bitio.Bitbuf.contents buf)
  in
  let parse payload =
    let reader = Bitio.Bitreader.create payload in
    let size = Bitio.Codes.read_gamma reader in
    (size, decode reader)
  in
  let party mine chan =
    let my_sketch, my_message = message mine in
    Obsv.Trace.span Obsv.Phases.app_sketch (fun () -> Commsim.Transport.send chan my_message);
    let their_size, their_sketch = parse (Commsim.Transport.recv chan) in
    estimate ~size_a:(Array.length mine) ~size_b:their_size my_sketch their_sketch
  in
  let (estimate_a, estimate_b), cost = Commsim.Two_party.run ~alice:(party s) ~bob:(party t) in
  (* both directions compute the same merged statistic up to the role swap
     of the size arguments, which is symmetric *)
  assert (estimate_a = estimate_b);
  (estimate_a, cost)
