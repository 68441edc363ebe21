(** The measurement window: the one place outside [perf/] that reads a
    clock or the GC.

    Every bench loop that reports nanoseconds or bytes wraps the code it
    measures in {!measure}.  Party code never calls it: the simulator's
    costs are bits and rounds, metered exactly, and nothing replayed may
    depend on a reading taken here. *)

type reading = {
  ns : int;  (** monotonic clock, nanoseconds spent in the function *)
  alloc_bytes : int;
      (** bytes allocated in the window: the function's own, plus the
          window's one [Gc.allocated_bytes] read (96 bytes on 64-bit) *)
  minor_collections : int;  (** minor collections the function caused *)
  major_collections : int;  (** major cycles completed in the window *)
}

val measure : (unit -> 'a) -> 'a * reading
(** [measure f] runs [f ()] once and returns its result unchanged with
    the window's reading.  The minor heap is emptied at both ends,
    outside the timed span: OCaml 5.1's [Gc.allocated_bytes] takes in
    minor-heap words only at minor collections, so without that a window
    smaller than a minor heap reads nothing or a whole heap, depending
    on history.  The clock is Bechamel's [Monotonic_clock], the one
    [perf/] reads. *)
