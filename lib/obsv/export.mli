(** Exporters over a {!Trace.collector}: Chrome [trace_event] JSON, a JSONL
    event stream, and the per-phase cost breakdown.

    All exports are pure functions of the collected events, which are
    themselves deterministic under a fixed seed — re-running the same
    seeded execution yields byte-identical output. *)

(** Phase name used for messages sent outside any span. *)
val unattributed : string

(** Chrome [trace_event] JSON (load in [chrome://tracing] or Perfetto):
    spans as complete events on one track per player (plus an orchestrator
    track), messages as instant events, with bits/depth/span in [args].
    The deterministic event sequence number stands in for microseconds. *)
val chrome_trace : Trace.collector -> Stats.Json.t

(** One compact JSON object per line ([span_open] / [message] /
    [span_close]), merged in sequence order. *)
val jsonl : Trace.collector -> string list

type phase = {
  phase : string;  (** span name, or {!unattributed} *)
  bits : int;
  messages : int;
  max_depth : int;
  spans : int;  (** span instances carrying this name (0 for unattributed) *)
}

(** Per-phase ledger in order of first message: every message is counted
    exactly once (at its innermost span), so [bits] over all rows sums to
    the [Cost.total_bits] of the collected executions.  [spans] counts the
    span instances behind each row; rows are still created by messages
    only, keeping the bits-exactness property untouched. *)
val phases : Trace.collector -> phase list

(** [merge_phases ledgers] combines per-execution ledgers (e.g. one per
    engine trial) into one: rows with the same phase name add bits and
    messages and keep the deepest depth; row order is first appearance
    across [ledgers] in the order given.  Merged bits still sum to the sum
    of the inputs' bits, so the profile exactness check survives
    aggregation. *)
val merge_phases : phase list list -> phase list

(** A (possibly merged) ledger as a rendered {!Stats.Table} titled
    "per-phase communication", with a share column and a total row. *)
val phase_table_of : phase list -> Stats.Table.t

(** A (possibly merged) ledger as JSON, one object per row. *)
val phases_json_of : phase list -> Stats.Json.t
