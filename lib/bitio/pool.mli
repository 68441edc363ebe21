(** Domain-local pooling of {!Bitbuf} writers for allocation-lean payload
    assembly.

    Every buffer is handed out freshly {!Bitbuf.reset}, so the bits a
    caller writes are exactly what a newly created writer would produce:
    pooling changes allocation behaviour only, never transcripts.  The
    freelist lives in [Domain.DLS], so each domain pools independently and
    no synchronisation is involved (this module carries the lint R4
    allowlist entry for [Domain.DLS] outside lib/engine and lib/obsv). *)

(** [with_buf f] runs [f] with a reset writer borrowed from the current
    domain's freelist and returns the writer on exit (also on exception).
    The writer — and any {!Bitbuf.view} or {!Bitreader.of_bitbuf} over it —
    must not escape [f]; results that outlive the call must be frozen with
    {!Bitbuf.contents}.  Nested calls borrow distinct writers. *)
val with_buf : (Bitbuf.t -> 'a) -> 'a

(** [payload f] assembles one payload: runs [f] on a borrowed writer and
    returns the frozen (copied, safe-to-keep) {!Bitbuf.contents}.  The
    common one-message case of {!with_buf}. *)
val payload : (Bitbuf.t -> unit) -> Bits.t

(** [with_reader bits f] runs [f] with a {!Bitreader} over [bits] borrowed
    from the current domain's reader arena (rewound via {!Bitreader.reset},
    so reads are exactly those of a fresh reader).  The reader must not
    escape [f].  If [f] raises, the cell is dropped rather than recycled —
    correctness never depends on the pool's contents. *)
val with_reader : Bits.t -> (Bitreader.t -> 'a) -> 'a

(** Test instruments. *)
module For_testing : sig
  (** [bypassed f] runs [f] with pooling disabled on the current domain:
      every {!with_buf} inside allocates a fresh writer, to compare pooled
      and unpooled executions. *)
  val bypassed : (unit -> 'a) -> 'a
end
