(** Walks a source tree, parses every [.ml]/[.mli] with compiler-libs,
    runs the {!Rules} catalogue, and applies the allowlist.

    Everything is deterministic by construction: files are discovered in
    sorted order, findings are sorted with {!Finding.compare}, and no
    wall clock or ambient randomness is consulted — two runs over the
    same tree produce byte-identical reports. *)

(** The directories scanned under the root, in order. *)
val scan_dirs : string list

(** The allowlist file name looked up at the root. *)
val allow_file : string

(** Lint one source held in memory (used by the test fixtures; no
    allowlist, no R5).  [path] selects the rules' structural scopes and
    the extension selects implementation vs interface parsing;
    [registry] defaults to {!Obsv.Phases.mem}. *)
val lint_source : ?registry:(string -> bool) -> path:string -> string -> Finding.t list

type report = {
  files : int;  (** number of source files scanned *)
  typed_modules : int;  (** modules the typed pass analysed; 0 when skipped *)
  findings : Finding.t list;  (** sorted, allowlist already applied *)
}

(** Lint the tree rooted at [root] (default ["."]).  [typed] (default
    [true]) additionally runs the cmt-based semantic rules R7..R11 over
    the build artifacts in [root/_build/default] (or [root] itself when
    already inside a build tree); the typed pass also loads [perf/] as
    call-graph roots for R11 and reports nothing in it.  [Error] means the linter could not
    run at all — missing root, malformed allowlist, or typed pass
    requested with no build artifacts — as opposed to a clean run with
    findings. *)
val run : ?root:string -> ?typed:bool -> unit -> (report, string) result
