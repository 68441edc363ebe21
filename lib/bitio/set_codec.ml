let universe_width n =
  if n < 1 then invalid_arg "Set_codec.universe_width";
  if n <= 2 then 1 else Codes.bit_width (n - 1)

let validate ~universe s =
  Array.iteri
    (fun i x ->
      if x < 0 || x >= universe then invalid_arg "Set_codec: element out of universe";
      if i > 0 && s.(i - 1) >= x then invalid_arg "Set_codec: not strictly increasing")
    s

(* A corrupted cardinality prefix must fail fast, not size an allocation:
   every element costs at least one bit, so a count beyond the remaining
   payload cannot belong to a well-formed stream. *)
let check_count r count =
  if count > Bitreader.remaining r then raise Bitreader.Underflow

let write_gaps buf s =
  Codes.write_gamma buf (Array.length s);
  Array.iteri
    (fun i x ->
      let gap = if i = 0 then x else x - s.(i - 1) - 1 in
      Codes.write_delta buf gap)
    s

let read_gaps r =
  let count = Codes.read_gamma r in
  check_count r count;
  let out = Array.make count 0 in
  for i = 0 to count - 1 do
    let gap = Codes.read_delta r in
    out.(i) <- (if i = 0 then gap else out.(i - 1) + 1 + gap)
  done;
  out

let gaps_cost s =
  let cost = ref (Codes.gamma_cost (Array.length s)) in
  Array.iteri
    (fun i x ->
      let gap = if i = 0 then x else x - s.(i - 1) - 1 in
      cost := !cost + Codes.delta_cost gap)
    s;
  !cost

let log2_binomial n k =
  if k < 0 || k > n then invalid_arg "Set_codec.log2_binomial";
  (* log2 binom = sum log2 ((n - i) / (k - i)); numerically stable enough for
     the bench-table comparisons this feeds. *)
  let acc = ref 0.0 in
  for i = 0 to k - 1 do
    acc := !acc +. log ((float_of_int (n - i)) /. float_of_int (k - i)) /. log 2.0
  done;
  !acc
