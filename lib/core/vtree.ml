(* [bounds.(l)] for level [l >= 1]; level 0 is the leaves themselves,
   node [i] covering leaf [i], and is not stored ([bounds.(0)] is
   empty), which saves a [k + 1]-cell identity array per build. *)
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
  Int.max 2 d

let nodes t ~level =
  if level < 0 || level > t.r then invalid_arg "Vtree.nodes";
  if level = 0 then t.k else Array.length t.bounds.(level) - 1

let[@inline] first t ~level i = if level = 0 then i else t.bounds.(level).(i)

(* Group the level below [deg] nodes at a time: keep every [deg]-th
   boundary, and the end. *)
let build ~k ~r =
  if k < 1 || r < 1 then invalid_arg "Vtree.build";
  let t = { k; r; bounds = Array.make (r + 1) [||] } in
  for level = 1 to r do
    let below = nodes t ~level:(level - 1) in
    let deg =
      if level = r then Int.max 2 below (* squash into a single root *)
      else degree ~k ~r ~level
    in
    let count = (below + deg - 1) / deg in
    let bounds = Array.make (count + 1) k in
    for g = 0 to count - 1 do
      bounds.(g) <- first t ~level:(level - 1) (g * deg)
    done;
    t.bounds.(level) <- bounds
  done;
  assert (nodes t ~level:r = 1);
  t
