(** SplitMix64: a fast 64-bit generator with provably full period, used as
    the root source of all randomness in the simulator (Steele, Lea &
    Flood, OOPSLA 2014 parameters). *)

type t

val create : int64 -> t

(** Next 64-bit output; advances the state. *)
val next : t -> int64

(** Advance the state one step without boxing the output; read the two
    32-bit halves with {!out_hi} / {!out_lo}.  Draw-for-draw identical to
    {!next}: [next t = (out_hi t << 32) | out_lo t] after the same step. *)
val step : t -> unit

(** High / low 32 bits of the output produced by the last {!step} (or
    {!next}), as non-negative native ints below [2^32]. *)
val out_hi : t -> int

val out_lo : t -> int

(** [scan_below t ~threshold ~limit] steps [t] until an output's top 53
    bits fall below [threshold], examining at most [limit] outputs.  It
    returns the 0-based index of that output, having consumed exactly
    [index + 1] steps, or [limit] (having consumed [limit] steps) when none
    of them qualifies.  Leaves [t] — state and {!out_hi}/{!out_lo} — as
    the same number of {!step}s would, and allocates nothing. *)
val scan_below : t -> threshold:int -> limit:int -> int

(** Stateless single-step mix, used for seed derivation. *)
val mix : int64 -> int64

(** [reseed_mixed t ~hi ~lo] puts [t] in the state [create (mix seed)]
    would have, for the 64-bit seed whose 32-bit halves are [hi]/[lo]
    (masked to 32 bits), in place and without boxing an [Int64].  Until
    the next {!step}, {!out_hi}/{!out_lo} hold the mixed seed itself, so a
    caller can record the derived root. *)
val reseed_mixed : t -> hi:int -> lo:int -> unit
