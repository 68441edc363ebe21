let fnv1a64 s =
  let open Int64 in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := logxor !h (of_int (Char.code c));
      h := mul !h 0x100000001B3L)
    s;
  !h

let shingles ~w ~universe_bits text =
  if w < 1 || universe_bits < 1 || universe_bits > 60 then invalid_arg "Scenarios.shingles";
  let words = String.split_on_char ' ' text |> List.filter (fun s -> s <> "") in
  let arr = Array.of_list words in
  let hash s = Int64.to_int (Int64.shift_right_logical (fnv1a64 s) (64 - universe_bits)) in
  List.init
    (max 0 (Array.length arr - w + 1))
    (fun i -> hash (String.concat " " (List.init w (fun j -> arr.(i + j)))))
  |> Iset.of_list
