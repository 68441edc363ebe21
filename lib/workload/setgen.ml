type pair = { s : int array; t : int array }

(* Floyd's sampling: a uniform [size]-subset of [0, universe) in O(size)
   expected time, independent of the universe.  Membership lives in a flat
   linear-probing table (power-of-two capacity, load <= 1/2, -1 empty) —
   one scratch array instead of Hashtbl's per-entry buckets.  The home
   slot is the top bits of [x], monotone in [x], so the table read in
   slot order is already sorted but for the order inside a run and a run
   that wraps: the sort that follows meets nearly sorted input, where its
   insertion runs barely move and its merges are skipped.  Same draw
   sequence, same sorted output as the Hashtbl formulation. *)
let random_set rng ~universe ~size =
  if size < 0 || size > universe then invalid_arg "Setgen.random_set";
  if size = 0 then [||]
  else begin
    let log_cap = ref 4 in
    while 1 lsl !log_cap < 2 * size do
      incr log_cap
    done;
    let value_bits = ref 1 in
    while (universe - 1) lsr !value_bits <> 0 do
      incr value_bits
    done;
    let shift = max 0 (!value_bits - !log_cap) in
    let cap = 1 lsl !log_cap in
    let mask = cap - 1 in
    let table = Array.make cap (-1) in
    let slot x =
      let i = ref ((x lsr shift) land mask) in
      while table.(!i) <> -1 && table.(!i) <> x do
        i := (!i + 1) land mask
      done;
      !i
    in
    for j = universe - size to universe - 1 do
      let t = Prng.Rng.int rng (j + 1) in
      let s = slot t in
      if table.(s) = -1 then table.(s) <- t else table.(slot j) <- j
    done;
    let out = Array.make size 0 in
    let pos = ref 0 in
    for i = 0 to cap - 1 do
      let x = table.(i) in
      if x >= 0 then begin
        out.(!pos) <- x;
        incr pos
      end
    done;
    Iset.of_array out
  end

(* Shuffling [elements] and splitting the shuffled prefix would leave [s]
   and [t] to be sorted again.  The shuffle's swaps depend only on the
   draws, so the same draws shuffle an index permutation of the sorted
   support instead: position [p] of the shuffle holds [elements.(perm.(p))].
   The positions [s] takes (the first [size_s]) and [t] takes (the first
   [overlap], then the [size_t - overlap] after [size_s]) mark their
   indices, and reading [elements] in index order yields both sets
   sorted. *)
let pair_with_overlap rng ~universe ~size_s ~size_t ~overlap =
  if overlap < 0 || overlap > min size_s size_t then invalid_arg "Setgen.pair_with_overlap: overlap";
  let support = size_s + size_t - overlap in
  if support > universe then invalid_arg "Setgen.pair_with_overlap: universe too small";
  let elements = random_set rng ~universe ~size:support in
  let perm = Array.init support Fun.id in
  Prng.Rng.shuffle rng perm;
  (* bit 0: in [s]; bit 1: in [t] *)
  let owner = Bytes.make support '\000' in
  for p = 0 to size_s - 1 do
    Bytes.unsafe_set owner perm.(p) (if p < overlap then '\003' else '\001')
  done;
  for p = size_s to support - 1 do
    Bytes.unsafe_set owner perm.(p) '\002'
  done;
  let s = Array.make size_s 0 and t = Array.make size_t 0 in
  let si = ref 0 and ti = ref 0 in
  for x = 0 to support - 1 do
    let o = Char.code (Bytes.unsafe_get owner x) in
    if o land 1 <> 0 then begin
      s.(!si) <- elements.(x);
      incr si
    end;
    if o land 2 <> 0 then begin
      t.(!ti) <- elements.(x);
      incr ti
    end
  done;
  { s; t }

let zipf_cumulative ~universe ~exponent =
  let cumulative = Array.make universe 0.0 in
  let acc = ref 0.0 in
  for r = 1 to universe do
    acc := !acc +. (1.0 /. Float.pow (float_of_int r) exponent);
    cumulative.(r - 1) <- !acc
  done;
  cumulative

let zipf_pair rng ~universe ~size ~exponent =
  if size > universe / 2 then invalid_arg "Setgen.zipf_pair: size too large for rejection sampling";
  let cumulative = zipf_cumulative ~universe ~exponent in
  let total = cumulative.(universe - 1) in
  let sample_rank () =
    let u = Prng.Rng.float rng *. total in
    (* first index with cumulative >= u *)
    let lo = ref 0 and hi = ref (universe - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let draw_set () =
    let chosen = Hashtbl.create (2 * size) in
    while Hashtbl.length chosen < size do
      Hashtbl.replace chosen (sample_rank ()) ()
    done;
    Iset.of_array (Array.of_seq (Hashtbl.to_seq_keys chosen))
  in
  { s = draw_set (); t = draw_set () }

let family_with_core rng ~universe ~players ~size ~core =
  if core > size then invalid_arg "Setgen.family_with_core: core > size";
  if players < 1 then invalid_arg "Setgen.family_with_core: players";
  let support = core + (players * (size - core)) in
  if support > universe then invalid_arg "Setgen.family_with_core: universe too small";
  let elements = random_set rng ~universe ~size:support in
  Prng.Rng.shuffle rng elements;
  let shared = Array.sub elements 0 core in
  Array.init players (fun p ->
      let private_part = Array.sub elements (core + (p * (size - core))) (size - core) in
      Iset.of_array (Array.append shared private_part))

type shape = { shape : string; universe : int; pair : pair }

let intersect = Iset.inter

module For_testing = struct
  (* The corner cases protocols historically get wrong: empty inputs (no
     tags to exchange), full overlap (every pair is a hit), singletons
     (k = 1 degenerates most size-derived widths), nesting (one-sided
     sandwich), and a dense universe n = 2k where universe reduction and
     bucketing have no slack.  Property tests run every protocol across all
     of these; sizes are exact, so |S ∩ T| is known by construction. *)
  let adversarial rng ~k =
    if k < 2 then invalid_arg "Setgen.adversarial: k >= 2";
    let u = max (4 * k) 64 in
    let draw label ~universe ~size_s ~size_t ~overlap =
      pair_with_overlap (Prng.Rng.with_label rng label) ~universe ~size_s ~size_t ~overlap
    in
    let identical =
      let s = random_set (Prng.Rng.with_label rng "identical") ~universe:u ~size:k in
      { s; t = Array.copy s }
    in
    let nested =
      let outer = random_set (Prng.Rng.with_label rng "nested") ~universe:u ~size:k in
      { s = Array.sub outer 0 (k / 2); t = outer }
    in
    [
      { shape = "empty-both"; universe = u; pair = { s = [||]; t = [||] } };
      {
        shape = "empty-s";
        universe = u;
        pair = draw "empty-s" ~universe:u ~size_s:0 ~size_t:k ~overlap:0;
      };
      {
        shape = "empty-t";
        universe = u;
        pair = draw "empty-t" ~universe:u ~size_s:k ~size_t:0 ~overlap:0;
      };
      { shape = "identical"; universe = u; pair = identical };
      { shape = "nested"; universe = u; pair = nested };
      {
        shape = "singleton-equal";
        universe = u;
        pair = draw "singleton-equal" ~universe:u ~size_s:1 ~size_t:1 ~overlap:1;
      };
      {
        shape = "singleton-disjoint";
        universe = u;
        pair = draw "singleton-disjoint" ~universe:u ~size_s:1 ~size_t:1 ~overlap:0;
      };
      {
        shape = "disjoint";
        universe = u;
        pair = draw "disjoint" ~universe:u ~size_s:k ~size_t:k ~overlap:0;
      };
      {
        shape = "dense-universe";
        universe = 2 * k;
        pair = draw "dense-universe" ~universe:(2 * k) ~size_s:k ~size_t:k ~overlap:(k / 2);
      };
    ]
end
