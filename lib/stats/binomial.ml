let wilson ~failures ~trials ~z =
  if trials < 1 then invalid_arg "Binomial.wilson: trials";
  if failures < 0 || failures > trials then invalid_arg "Binomial.wilson: failures";
  if z <= 0.0 then invalid_arg "Binomial.wilson: z";
  let n = float_of_int trials in
  let p = float_of_int failures /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = p +. (z2 /. (2.0 *. n)) in
  let spread = z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) in
  (Float.max 0.0 ((center -. spread) /. denom), Float.min 1.0 ((center +. spread) /. denom))

let upper95 ~failures ~trials = snd (wilson ~failures ~trials ~z:1.96)
