(* Level [l] groups the level below [deg l] nodes at a time, so its node
   [i] starts at leaf [i * span l], [span l] being the product of the
   degrees up to [l] (capped at [k]: a level whose span reaches [k] is the
   single root), and its last node ends at leaf [k]. *)
type t = { k : int; span : int array; count : int array }

let degree ~k ~r ~level =
  if level < 1 || level > r then invalid_arg "Vtree.degree";
  let d =
    if level = 1 then Iterated_log.ilog (r - 1) k
    else begin
      let top = Iterated_log.ilog (r - level) k in
      let bottom = Iterated_log.ilog (r - level + 1) k in
      (top + bottom - 1) / bottom
    end
  in
  Int.max 2 d

let nodes t ~level =
  if level < 0 || level >= Array.length t.count then invalid_arg "Vtree.nodes";
  t.count.(level)

let[@inline] first t ~level i = Int.min t.k (i * t.span.(level))

let build ~k ~r =
  if k < 1 || r < 1 then invalid_arg "Vtree.build";
  let span = Array.make (r + 1) 1 and count = Array.make (r + 1) k in
  for level = 1 to r do
    let below = count.(level - 1) in
    let deg =
      if level = r then Int.max 2 below (* squash into a single root *)
      else degree ~k ~r ~level
    in
    count.(level) <- (below + deg - 1) / deg;
    span.(level) <- Int.min k (span.(level - 1) * deg)
  done;
  assert (count.(r) = 1);
  { k; span; count }
