let log2_ceil x =
  if x < 1 then invalid_arg "Iterated_log.log2_ceil";
  if x = 1 then 0 else Bitio.Codes.bit_width (x - 1)

let ilog i k =
  if i < 0 then invalid_arg "Iterated_log.ilog";
  if k < 1 then invalid_arg "Iterated_log.ilog: k";
  let rec loop i k = if i = 0 then k else loop (i - 1) (Int.max 1 (log2_ceil k)) in
  loop i k

let log_star k =
  let rec loop i k = if k <= 1 then i else loop (i + 1) (log2_ceil k) in
  loop 0 k

let tower i =
  if i < 0 || i > 4 (* tower 5 = 2^65536 *) then invalid_arg "Iterated_log.tower";
  let rec loop i acc = if i = 0 then acc else loop (i - 1) (1 lsl acc) in
  loop i 1
