(** Domain-local pooling of {!Bitbuf} writers for allocation-lean payload
    assembly.

    Every buffer is handed out freshly {!Bitbuf.reset}, so the bits a
    caller writes are exactly what a newly created writer would produce:
    pooling changes allocation behaviour only, never transcripts.  The
    freelist lives in [Domain.DLS], so each domain pools independently and
    no synchronisation is involved (this module carries the lint R4
    allowlist entry for [Domain.DLS] outside lib/engine and lib/obsv).  It
    is a stack on a growable array: once it has grown to the deepest
    nesting of borrows, a warm {!with_buf} allocates nothing of its own
    and a warm {!payload} only its copy. *)

(** [with_buf f] runs [f] with a reset writer borrowed from the current
    domain's freelist and returns the writer on exit (also on exception).
    The writer — and any {!Bitbuf.view} or {!Bitreader.of_bitbuf} over it —
    must not escape [f]; results that outlive the call must be frozen with
    {!Bitbuf.contents}.  Nested calls borrow distinct writers. *)
val with_buf : (Bitbuf.t -> 'a) -> 'a

(** [payload f] assembles one payload: runs [f] on a borrowed writer and
    returns the frozen (copied, safe-to-keep) {!Bitbuf.contents}.  The
    common one-message case of {!with_buf}, calling [f] directly rather
    than through a closure around it. *)
val payload : (Bitbuf.t -> unit) -> Bits.t

(** Test instruments. *)
module For_testing : sig
  (** [bypassed f] runs [f] with pooling disabled on the current domain:
      every {!with_buf} inside allocates a fresh writer, to compare pooled
      and unpooled executions. *)
  val bypassed : (unit -> 'a) -> 'a
end
