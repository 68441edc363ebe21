(* rank(S) = sum_i C(c_i, i), the combinatorial number system of degree k
   (indices i = 1..k over the sorted elements). *)
let rank set =
  let acc = ref Bignat.zero in
  Array.iteri (fun i c -> acc := Bignat.add !acc (Memo.binomial c (i + 1))) set;
  !acc

let payload_bits ~universe ~k =
  if universe < 1 || universe >= 1 lsl 26 then
    invalid_arg "Enum_codec: universe must be below 2^26";
  Memo.binomial_bits ~n:universe ~k

let write buf ~universe set =
  Set_codec.validate ~universe set;
  let k = Array.length set in
  Codes.write_gamma buf k;
  let r = rank set in
  let width = payload_bits ~universe ~k in
  for i = 0 to width - 1 do
    Bitbuf.write_bit buf (Bignat.bit r i)
  done

(* Greedy unranking: for i = k downto 1, the i-th largest element is the
   largest c with C(c, i) <= rank.  Binary search on c keeps the decoder at
   O(k * log n) binomial evaluations instead of walking the universe. *)
let read reader ~universe =
  let k = Codes.read_gamma reader in
  let width = payload_bits ~universe ~k in
  let r = ref (Bignat.of_bits (fun _ -> Bitreader.read_bit reader) ~width) in
  let out = Array.make k 0 in
  let hi = ref (universe - 1) in
  for i = k downto 1 do
    (* invariant: C(i-1, i) = 0 <= r, so the search space is never empty *)
    let lo = ref (i - 1) and high = ref !hi in
    while !lo < !high do
      let mid = (!lo + !high + 1) / 2 in
      if Bignat.compare (Memo.binomial mid i) !r <= 0 then lo := mid else high := mid - 1
    done;
    out.(i - 1) <- !lo;
    r := Bignat.sub !r (Memo.binomial !lo i);
    hi := !lo - 1
  done;
  out
