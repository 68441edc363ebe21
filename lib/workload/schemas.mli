(** The schema catalogue for the repository's machine-checked JSON
    artifacts.

    Every committed artifact (the [BENCH_*.json] reports, the linter's
    report/SARIF exports, the [experiments.json] registry index) has a
    named schema mode here; [bin/json_check.exe --<mode>] and the
    experiment registry ({!Registry}) validate against the same
    implementations, so "the artifact passes its [json_check] mode" means
    the same thing on the command line and inside [experiments verify].

    {!check} parses the document once with {!Stats.Json.of_string} and
    hands the value to the mode's checker; {!check_json} takes a value a
    caller has already parsed.  No check touches the filesystem. *)

(** Every known mode name, sorted: ["bench-chaos"], ["bench-hotpath"],
    ["bench-sweep"], ["bench-telemetry"], ["experiments"],
    ["lint-report"], ["lint-sarif"]. *)
val modes : string list

(** The subset of {!modes} that validates committed [BENCH_*.json]
    artifacts — the only modes an experiment entry may name in its
    [json_check] frontmatter field. *)
val bench_modes : string list

(** [check ~mode contents] validates [contents] against the named schema.
    [Error] carries a one-line diagnosis prefixed ["<mode> schema: "]
    (["<mode> schema: unparseable: ..."] when [contents] is not JSON;
    unknown modes are an [Error] too, never an exception). *)
val check : mode:string -> string -> (unit, string) result

(** [check_json ~mode doc] is {!check} on a document already parsed:
    [check ~mode s] is [check_json ~mode v] whenever [s] parses to [v],
    error strings included. *)
val check_json : mode:string -> Stats.Json.t -> (unit, string) result
