(* The GC statistics are read outside the allocation bracket (before the
   opening minor collection, after the closing one), so their records do
   not count as allocation; the window's own two collections are taken
   out of the minor count. *)

type reading = { ns : int; alloc_bytes : int; minor_collections : int; major_collections : int }

let measure f =
  let s0 = Gc.quick_stat () in
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let t0 = Monotonic_clock.now () in
  let result = f () in
  let t1 = Monotonic_clock.now () in
  Gc.minor ();
  let b1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  ( result,
    {
      ns = Int64.to_int (Int64.sub t1 t0);
      alloc_bytes = int_of_float (b1 -. b0);
      minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections - 2;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )
