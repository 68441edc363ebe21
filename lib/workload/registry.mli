(** The hypothesis-driven experiment registry.

    Every measured result in this repository lives as a numbered
    [experiments/NNN-slug.md] file: structured frontmatter (id, lifecycle
    status, hypothesis, theorem anchor, reproduce command, gating
    artifact) over a free-form markdown body.  This module parses those
    files and machine-checks the invariants that keep the collection
    honest as it grows:

    - ids are {e dense} (1..N) and unique, and each file's [NNN-slug]
      name matches its frontmatter;
    - every reproduce/smoke command names an executable target that still
      exists (and, for [intersect_cli], a subcommand the CLI still
      registers) — stale commands are found by the gate, not by a reader;
    - every declared [BENCH_*.json] artifact exists, carries the JSON
      keys the entry gates on, and passes its {!Schemas} mode; an
      artifact that embeds a top-level [reproduce] command passes the
      same command check as the entry's own;
    - every committed [BENCH_*.json] is claimed by some live entry, and
      the [EXPERIMENTS.md] index and [README.md] cross-links resolve;
    - every [Complete] entry is re-derivable: it either declares a
      seconds-scale self-gating smoke command or opts out explicitly
      ([regen: none]).  [Superseded] entries are exempt from all
      regeneration and artifact checks — they document history.

    Parsing and verification are pure over an {!env} of read callbacks,
    so the test suite can drive them from in-memory fixtures; report
    order is deterministic (entries sorted by id, violations in check
    order), so two runs over the same tree are byte-identical. *)

(** The lifecycle. [Draft] states a hypothesis, [Running] has a harness
    but no accepted numbers, [Complete] is measured and regenerable,
    [Superseded] records a result a later entry replaced. *)
type status = Draft | Running | Complete | Superseded

(** How [experiments verify --regen-smoke] treats a [Complete] entry's
    smoke command: [Gate] runs it once and requires exit 0 (the command
    is self-gating — conformance tiers, baseline comparisons); [Diff]
    runs it twice and additionally requires byte-identical stdout (for
    table printers with no internal gate); [No_regen] opts out. *)
type regen = Gate | Diff | No_regen

type entry = {
  id : int;  (** dense, 1-based; equals the filename's [NNN] prefix *)
  slug : string;  (** the filename's [slug] part, [[a-z0-9-]+] *)
  file : string;  (** repo-relative path, [experiments/NNN-slug.md] *)
  title : string;
  status : status;
  anchor : string;  (** theorem / paper-section anchor, e.g. ["Theorem 3.1"] *)
  roadmap : string;  (** ROADMAP linkage, e.g. ["item-1"], ["seed"], ["pr-5"] *)
  index_tag : string option;  (** legacy EXPERIMENTS.md tag ([T1], [R5], ...) *)
  hypothesis : string;  (** one line; the claim under test *)
  reproduce : string;  (** full regeneration command *)
  smoke : string option;  (** seconds-scale variant run by the regen gate *)
  regen : regen;
  artifact : string option;  (** committed [BENCH_*.json] this entry gates *)
  artifact_keys : string list;  (** top-level keys that must exist in it *)
  json_check : string option;  (** {!Schemas} bench mode the artifact must pass *)
  body : string;  (** the markdown below the frontmatter *)
}

(** A registry: entries sorted by id. *)
type t = { entries : entry list }

(** One check failure. [file] is the offending entry's path when the
    violation is entry-scoped ([None] for registry-wide checks). *)
type violation = { file : string option; what : string }

val status_name : status -> string
val status_of_string : string -> (status, string) result
val regen_name : regen -> string

(** [parse ~file contents] parses one [NNN-slug.md] file: a [---]-fenced
    frontmatter of [key: value] lines (unknown and duplicate keys are
    errors) followed by the body.  [file] must be the repo-relative path;
    its basename supplies [slug] and is checked against [id] by
    {!verify}, not here. *)
val parse : file:string -> string -> (entry, string) result

(** Canonical frontmatter rendering, in the field order {!parse} accepts
    and [_template.md] documents.  [parse (front_matter_of e ^ body)]
    round-trips. *)
val front_matter_of : entry -> string

(** Build a registry from [(file, contents)] pairs (any order; entries
    come back sorted by id).  Unparseable files surface as violations and
    are dropped from the registry, so verification can report every
    problem in one pass. *)
val of_sources : (string * string) list -> t * violation list

(** Load [root/experiments/*.md] from disk ([_template.md] and
    [README.md] are not entries and are skipped).  Directory order is
    sorted, so loading is deterministic. *)
val load : root:string -> t * violation list

(** Read callbacks for {!verify}: [read_file] takes a repo-relative path;
    [list_root] lists repo-root filenames (for [BENCH_*.json]
    discovery). *)
type env = { read_file : string -> string option; list_root : unit -> string list }

(** The real-filesystem {!env} rooted at [root]. *)
val repo_env : root:string -> env

(** Run every registry check.  [cli_subcommands] is the authoritative
    list of [intersect_cli] subcommand names (the CLI passes its own
    command list, so a renamed subcommand invalidates the entries that
    quote it).  Returns [[]] iff the registry is coherent. *)
val verify : env:env -> cli_subcommands:string list -> t -> violation list

(** The deduplicated regeneration plan: one [(command, mode, ids)] triple
    per distinct smoke command over the [Complete], non-opted-out
    entries, in first-use id order.  Entries sharing a command (the seed
    tables all regenerate via one [bench/main.exe --quick] run) are
    checked once. *)
val regen_plan : t -> (string * regen * int list) list

(** The [experiments.json] index: a pure function of the registry, keys
    in fixed order, optional fields emitted as [null] — byte-identical
    across exports. *)
val to_json : t -> Stats.Json.t

(** {!to_json}, pretty-printed with a trailing newline — exactly the
    committed [experiments.json] bytes. *)
val export : t -> string

(** Status counts [(Draft, Running, Complete, Superseded)]. *)
val census : t -> int * int * int * int

(** The [experiments list] table: id, status, anchor, artifact, title. *)
val table : t -> Stats.Table.t
