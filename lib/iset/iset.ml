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

let is_valid (a : int array) =
  let n = Array.length a in
  let ok = ref true and i = ref 1 in
  while !ok && !i < n do
    ok := a.(!i - 1) < a.(!i);
    incr i
  done;
  !ok

let cardinal = Array.length

let mem (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
  done;
  !found

let equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* The set algebra below runs inside every trial.  Each operation is a
   direct int merge: one walk counts the common elements, which sizes the
   result exactly (|a ∩ b|, |a| + |b| - |a ∩ b|, |a| - |a ∩ b|), and a
   second walk fills it.  No per-element closure, no boxed cursor. *)
let common (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr n;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !n

let inter (a : int array) (b : int array) =
  let n = common a b in
  if n = 0 then empty
  else begin
    let out = Array.make n 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !k < n do
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin
        out.(!k) <- x;
        incr k;
        incr i;
        incr j
      end
      else if x < y then incr i
      else incr j
    done;
    out
  end

let union (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let n = la + lb - common a b in
  if n = 0 then empty
  else begin
    let out = Array.make n 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x <= y then begin
        out.(!k) <- x;
        incr i;
        if x = y then incr j
      end
      else begin
        out.(!k) <- y;
        incr j
      end;
      incr k
    done;
    Array.blit a !i out !k (la - !i);
    Array.blit b !j out (!k + la - !i) (lb - !j);
    out
  end

let diff (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let n = la - common a b in
  if n = 0 then empty
  else begin
    let out = Array.make n 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la do
      let x = a.(!i) in
      while !j < lb && b.(!j) < x do
        incr j
      done;
      if !j < lb && b.(!j) = x then incr j
      else begin
        out.(!k) <- x;
        incr k
      end;
      incr i
    done;
    out
  end

(* Every element of [a] occurs in [b]: one merge walk, no allocation. *)
let subset (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb && a.(!i) >= b.(!j) do
    if a.(!i) = b.(!j) then incr i;
    incr j
  done;
  !i = la

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

let inter_many = function
  | [] -> invalid_arg "Iset.inter_many: empty list"
  | first :: rest -> List.fold_left inter first rest

let union_many sets = List.fold_left union empty sets

let pp ppf a =
  Format.fprintf ppf "{";
  Array.iteri (fun i x -> Format.fprintf ppf (if i = 0 then "%d" else ",%d") x) a;
  Format.fprintf ppf "}"
