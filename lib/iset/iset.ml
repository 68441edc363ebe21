type t = int array

let empty = [||]

(* The one int sort: a top-down merge sort on [a.(lo .. hi-1)], insertion
   sort below 16 elements, the left half staged in [tmp] for each merge.
   Every comparison is on [int]s, so none goes through polymorphic
   [compare]. *)
let rec sort_range (a : int array) (tmp : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_range a tmp lo mid;
    sort_range a tmp mid hi;
    if a.(mid - 1) > a.(mid) then begin
      let left = mid - lo in
      Array.blit a lo tmp 0 left;
      let i = ref 0 and j = ref mid and out = ref lo in
      while !i < left && !j < hi do
        if tmp.(!i) <= a.(!j) then begin
          a.(!out) <- tmp.(!i);
          incr i
        end
        else begin
          a.(!out) <- a.(!j);
          incr j
        end;
        incr out
      done;
      Array.blit tmp !i a !out (left - !i)
    end
  end

(* Sorts [a] in place and returns its distinct elements: [a] itself when
   there are no duplicates, else a fresh prefix copy. *)
let sort_uniq_in_place (a : int array) =
  let n = Array.length a in
  sort_range a (Array.make (n / 2) 0) 0 n;
  let distinct = ref (min n 1) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!distinct - 1) then begin
      a.(!distinct) <- a.(i);
      incr distinct
    end
  done;
  if !distinct = n then a else Array.sub a 0 !distinct

let of_list l = sort_uniq_in_place (Array.of_list l)

let of_array a = sort_uniq_in_place (Array.copy a)

let is_valid a =
  let n = Array.length a in
  let rec loop i = i >= n || (a.(i - 1) < a.(i) && loop (i + 1)) in
  loop 1

let cardinal = Array.length

let mem a x =
  let rec search lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true else if a.(mid) < x then search (mid + 1) hi else search lo mid
    end
  in
  search 0 (Array.length a)

let equal a b = a = b

(* Generic sorted merge; [keep] decides membership in the result from
   (in_a, in_b).  Two passes over the inputs — count, then fill an
   exactly-sized array — instead of accumulating a list: set algebra runs
   inside every trial, and the cons-cell churn was a measurable slice of
   the per-trial allocation profile. *)
let merge keep a b =
  let la = Array.length a and lb = Array.length b in
  let scan fill out =
    let n = ref 0 and i = ref 0 and j = ref 0 in
    let push x =
      if fill then out.(!n) <- x;
      incr n
    in
    while !i < la || !j < lb do
      if !i >= la then begin
        if keep false true then push b.(!j);
        incr j
      end
      else if !j >= lb then begin
        if keep true false then push a.(!i);
        incr i
      end
      else if a.(!i) = b.(!j) then begin
        if keep true true then push a.(!i);
        incr i;
        incr j
      end
      else if a.(!i) < b.(!j) then begin
        if keep true false then push a.(!i);
        incr i
      end
      else begin
        if keep false true then push b.(!j);
        incr j
      end
    done;
    !n
  in
  let n = scan false empty in
  if n = 0 then empty
  else begin
    let out = Array.make n 0 in
    ignore (scan true out);
    out
  end

let inter a b = merge (fun in_a in_b -> in_a && in_b) a b
let union a b = merge (fun in_a in_b -> in_a || in_b) a b
let diff a b = merge (fun in_a in_b -> in_a && not in_b) a b

let subset a b = Array.length (diff a b) = 0

(* [p] runs once per element (it may be a hash-and-lookup): the verdicts
   go to a byte mask, then the survivors to an exactly sized array. *)
let filter p a =
  let n = Array.length a in
  let keep = Bytes.make n '\000' in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if p a.(i) then begin
      Bytes.unsafe_set keep i '\001';
      incr count
    end
  done;
  if !count = 0 then empty
  else begin
    let out = Array.make !count 0 in
    let pos = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get keep i <> '\000' then begin
        out.(!pos) <- a.(i);
        incr pos
      end
    done;
    out
  end

let partition_by f ~bins a =
  (* Evaluate the (possibly costly) key function once per element, count
     per bin, then fill exactly-sized bins; the input is sorted, so
     in-order filling keeps each bin sorted. *)
  let keys = Array.map f a in
  let counts = Array.make bins 0 in
  Array.iter
    (fun b ->
      if b < 0 || b >= bins then invalid_arg "Iset.partition_by: key out of range";
      counts.(b) <- counts.(b) + 1)
    keys;
  let out = Array.map (fun c -> if c = 0 then empty else Array.make c 0) counts in
  let cursors = counts in
  Array.fill cursors 0 bins 0;
  Array.iteri
    (fun i x ->
      let b = keys.(i) in
      out.(b).(cursors.(b)) <- x;
      cursors.(b) <- cursors.(b) + 1)
    a;
  out

let inter_many = function
  | [] -> invalid_arg "Iset.inter_many: empty list"
  | first :: rest -> List.fold_left inter first rest

let union_many sets = List.fold_left union empty sets

let pp ppf a =
  Format.fprintf ppf "{";
  Array.iteri (fun i x -> Format.fprintf ppf (if i = 0 then "%d" else ",%d") x) a;
  Format.fprintf ppf "}"
