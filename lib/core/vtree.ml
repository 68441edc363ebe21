type t = { k : int; r : int; bounds : int array array }

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
  max 2 d

(* Group the level below [deg] nodes at a time: keep every [deg]-th
   boundary, and the end. *)
let group_level (below : int array) ~deg =
  let n = Array.length below - 1 in
  let count = (n + deg - 1) / deg in
  let level = Array.make (count + 1) below.(n) in
  for g = 0 to count - 1 do
    level.(g) <- below.(g * deg)
  done;
  level

let build ~k ~r =
  if k < 1 || r < 1 then invalid_arg "Vtree.build";
  let bounds = Array.make (r + 1) [||] in
  let leaves = Array.make (k + 1) 0 in
  for i = 0 to k do
    leaves.(i) <- i
  done;
  bounds.(0) <- leaves;
  for level = 1 to r do
    let deg =
      if level = r then max 2 (Array.length bounds.(level - 1) - 1) (* squash into a single root *)
      else degree ~k ~r ~level
    in
    bounds.(level) <- group_level bounds.(level - 1) ~deg
  done;
  assert (Array.length bounds.(r) = 2);
  { k; r; bounds }

let nodes t ~level = Array.length t.bounds.(level) - 1
