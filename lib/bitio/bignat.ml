let limb_bits = 26

let base = 1 lsl limb_bits

(* Invariant: no trailing zero limbs; zero is the empty array. *)
type t = int array

let zero = [||]

let one = [| 1 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero t = Array.length t = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)
  end

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = 1 + max la lb in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land (base - 1);
    carry := s lsr limb_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul_small t x =
  if x < 0 || x >= base then invalid_arg "Bignat.mul_small";
  if x = 0 || is_zero t then zero
  else begin
    let n = Array.length t in
    let out = Array.make (n + 2) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (t.(i) * x) + !carry in
      out.(i) <- p land (base - 1);
      carry := p lsr limb_bits
    done;
    let i = ref n in
    while !carry > 0 do
      out.(!i) <- !carry land (base - 1);
      carry := !carry lsr limb_bits;
      incr i
    done;
    normalize out
  end

let div_small t x =
  if x < 1 || x >= base then invalid_arg "Bignat.div_small";
  let n = Array.length t in
  let out = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor t.(i) in
    out.(i) <- cur / x;
    rem := cur mod x
  done;
  (normalize out, !rem)

let bit_length t =
  let n = Array.length t in
  if n = 0 then 0 else ((n - 1) * limb_bits) + Codes.bit_width t.(n - 1)

let bit t i =
  if i < 0 then invalid_arg "Bignat.bit";
  let limb = i / limb_bits in
  limb < Array.length t && t.(limb) land (1 lsl (i mod limb_bits)) <> 0

let of_bits f ~width =
  if width < 0 then invalid_arg "Bignat.of_bits";
  let n = (width + limb_bits - 1) / limb_bits in
  let out = Array.make n 0 in
  for i = 0 to width - 1 do
    if f i then out.(i / limb_bits) <- out.(i / limb_bits) lor (1 lsl (i mod limb_bits))
  done;
  normalize out

(* C(n, k) by the multiplicative formula; each intermediate
   prod_{j<=i} (n-k+j)/j is an exact integer, so small divisions never
   truncate.  Factors must fit a limb, which holds for any n < 2^26. *)
let binomial n k =
  if n < 0 then invalid_arg "Bignat.binomial";
  if k < 0 || k > n then zero
  else begin
    if n >= base then invalid_arg "Bignat.binomial: n too large";
    let k = min k (n - k) in
    let acc = ref one in
    for i = 1 to k do
      acc := mul_small !acc (n - k + i);
      let q, r = div_small !acc i in
      assert (r = 0);
      acc := q
    done;
    !acc
  end
