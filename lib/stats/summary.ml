type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let idx = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = min (n - 1) (lo + 1) in
    let frac = idx -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let of_floats values =
  let a = Array.of_list values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.of_floats: empty";
  Array.sort compare a;
  let sum = Array.fold_left ( +. ) 0.0 a in
  let mean = sum /. float_of_int n in
  let sq = Array.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0 a in
  let stddev = if n < 2 then 0.0 else sqrt (sq /. float_of_int (n - 1)) in
  {
    count = n;
    mean;
    stddev;
    min = a.(0);
    max = a.(n - 1);
    p50 = percentile a 0.5;
    p95 = percentile a 0.95;
  }

let of_ints values = of_floats (List.map float_of_int values)
