(* Domain-local memo tables for derived codec values.

   Binomial coefficients drive the enumerative set codec: ranking touches
   O(k) of them and the unranking decoder's binary search touches
   O(k log n), each recomputed from the multiplicative formula at bignum
   cost.  The coefficients are pure functions of (n, k), so caching them
   in a Domain.DLS hashtable is observationally invisible — same values,
   same transcripts — while turning repeated decodes from bignum-bound
   into lookup-bound.

   Keys pack (n, k) into one int: n < 2^26 (a precondition Bignat.binomial
   already enforces) and k <= n, so [n lsl 26 lor k] is injective.  Out-of
   -range arguments fall through to Bignat.binomial uncached, preserving
   its exact raise/zero behaviour.

   The table is capped: long multi-universe sweeps in one process touch
   unboundedly many distinct (n, k) pairs, and each entry pins a Bignat.
   Entries are pure and recomputable, so on overflow we simply reset the
   table and let the working set repopulate. *)

let max_entries = 1 lsl 16

let table : (int, Bignat.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let bypass : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let binomial n k =
  if n < 0 || n >= 1 lsl 26 || k < 0 || k > n || !(Domain.DLS.get bypass) then Bignat.binomial n k
  else begin
    let table = Domain.DLS.get table in
    let key = (n lsl 26) lor k in
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v = Bignat.binomial n k in
        if Hashtbl.length table >= max_entries then Hashtbl.reset table;
        Hashtbl.add table key v;
        v
  end

let binomial_bits ~n ~k = Bignat.bit_length (binomial n k)

module For_testing = struct
  let bypassed f =
    let flag = Domain.DLS.get bypass in
    let saved = !flag in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := saved) f
end
