#!/bin/sh
# Tier-1 gate: a build-profile guard, static analysis, full build + test
# suite, seconds-scale smokes of every seeded campaign (soak, chaos,
# sweep, conform — each
# exits non-zero on any violation, each report is byte-identical at 1
# and 2 worker domains, and each rejects invalid input with exit 2), an
# observability smoke: the trace subcommand must emit valid JSON and the
# profile subcommand must account for every metered bit (it exits
# non-zero on a phase-sum mismatch), the alloc gate, the trace-overhead
# and engine-scaling smokes, the hot-path and fleet-telemetry gates, and
# the experiment-registry gate (experiments/ coherence + regen smoke).
set -eu
cd "$(dirname "$0")"

# Profile guard: dune-workspace selects the release profile, whose own
# :standard flags would drop the dev warning set to -w -40.  The root
# dune file pins that set; every source tree must still carry it, and
# lib/ its -warn-error policy, so the profile can never silently turn
# warnings-as-errors off.
warnings='@1..3@5..28@30..39@43@46..47@49..57@61..62@67@69-40'
for dir in lib bin bench test; do
  if ! dune printenv "$dir" | grep -qF -- "$warnings"; then
    echo "tier1: dune printenv $dir lacks the pinned warning set $warnings" >&2
    exit 1
  fi
done
if ! dune printenv lib | grep -qF -- '+26+27+32+33+60'; then
  echo "tier1: dune printenv lib lacks -warn-error +26+27+32+33+60" >&2
  exit 1
fi

dune build
dune runtest

cli=./_build/default/bin/intersect_cli.exe
json_check=./_build/default/bin/json_check.exe
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Static invariant gate: the whole tree must lint clean — the syntactic
# rules (determinism, ambient state, phase registry, domain hygiene,
# interface coverage, flight-recorder writes — R1..R6) plus the typed
# cross-module pass over the .cmt artifacts (determinism taint,
# metered-transport accounting, cross-domain escape, dead phases —
# R7..R10; see DESIGN.md "Static analysis" and "Typed analysis").  The
# JSON report and the SARIF export must pass their schema validators,
# and the linter must be deterministic: two consecutive runs over the
# same tree are byte-identical, in both formats.
dune build @check @lint
dune exec bin/intersect_lint.exe -- --json | $json_check --lint-report
dune exec bin/intersect_lint.exe -- --sarif | $json_check --lint-sarif
for format in json sarif; do
  dune exec bin/intersect_lint.exe -- --$format > "$tmp/lint.a"
  dune exec bin/intersect_lint.exe -- --$format > "$tmp/lint.b"
  cmp "$tmp/lint.a" "$tmp/lint.b"
done

$cli trace --protocol bucket -k 64 --seed 1 | $json_check
$cli profile --protocol bucket -k 64 --seed 1 > /dev/null

# Campaign smokes and the engine's determinism contract: each smoke
# campaign exits non-zero on any violation (soak: a cell outside the
# paper's error bound; chaos: a wrong intersection, a non-partitioning
# outcome taxonomy or a diverging resume; sweep and conform: a cell
# outside its theorem envelope), and its report is byte-identical at 1
# and 2 worker domains.
for c in soak chaos sweep conform; do
  $cli $c --smoke --json --domains 1 > "$tmp/$c.d1"
  $cli $c --smoke --json --domains 2 > "$tmp/$c.d2"
  cmp "$tmp/$c.d1" "$tmp/$c.d2"
done

# Invalid campaign input is a usage error: the campaign runner rejects
# it before any cell runs and every campaign subcommand exits 2.
expect_usage_error() {
  status=0
  $cli "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "tier1: '$*' exited $status, expected 2" >&2
    exit 1
  fi
}
for c in soak chaos sweep conform health top bench-regress; do
  expect_usage_error $c --smoke --trials 0
done
expect_usage_error telemetry-overhead --smoke --sessions 0

# The committed BENCH_chaos.json and BENCH_sweep.json must be
# schema-valid (chaos: outcome taxonomy partitions the trials, zero
# wrong intersections, every resume replayed identically; sweep: Wilson
# bounds ordered, per-cell gate conjunction, trial counts summing to
# total_trials), the live sweep smoke must pass the same schema, and the
# committed chaos report must regenerate byte-for-byte from the
# reproduce command it embeds.  The alloc gate's four cases (bucket
# k=1024, tree-log-star k=4096, a guarded bucket k=256 attempt and the
# conform-smallk trial pair) must not allocate more than their committed
# baselines plus 2%.
$json_check --bench-chaos < BENCH_chaos.json
$json_check --bench-sweep < BENCH_sweep.json
$json_check --bench-sweep < "$tmp/sweep.d1"
chaos_reproduce=$(sed -n 's/^  "reproduce": "\(.*\)",$/\1/p' BENCH_chaos.json)
eval "$chaos_reproduce --json" > "$tmp/chaos.regen"
cmp "$tmp/chaos.regen" BENCH_chaos.json
dune exec bench/main.exe -- --alloc-gate

# Bench harness smokes, run in the scratch directory so the committed
# BENCH files stay untouched: the tracing-tax measurement, and the
# engine's throughput at 1/2/4 domains, which fails if the merged trial
# results differ across domain counts.  Each written report must parse.
bench=$(pwd)/_build/default/bench/main.exe
(cd "$tmp" && "$bench" --trace-overhead > /dev/null)
$json_check < "$tmp/BENCH_trace_overhead.json"
(cd "$tmp" && "$bench" --engine-scaling > /dev/null)
$json_check < "$tmp/BENCH_engine_scaling.json"

# Hot-path regression smoke: the committed BENCH_hotpath.json must be
# schema-valid, the k=64 sweep must reproduce its deterministic fields
# (bits / messages / rounds) exactly — timings get a generous 4x headroom
# so shared CI machines don't flake — and two runs of the same config must
# emit byte-identical deterministic reports.
$json_check --bench-hotpath < BENCH_hotpath.json
$cli bench-regress --smoke --baseline BENCH_hotpath.json --tolerance 3.0 > /dev/null
$cli bench-regress --smoke --deterministic-json > "$tmp/det.a"
$cli bench-regress --smoke --deterministic-json > "$tmp/det.b"
cmp "$tmp/det.a" "$tmp/det.b"

# Fleet telemetry smoke: the committed BENCH_telemetry.json must be
# schema-valid (including the 1.25x enabled/disabled overhead bound), a
# live seconds-scale overhead run must keep its deterministic fields
# identical between the passes (generous 3x timing headroom for shared CI
# machines), the chaos telemetry stream must be byte-identical run-to-run
# and across domain counts, and the health/top views must come back green
# on the default (deadline-squeeze-free) campaign set.
$json_check --bench-telemetry < BENCH_telemetry.json
$cli telemetry-overhead --smoke --max-ratio 3.0 > /dev/null
$cli chaos --smoke --trials 4 --telemetry "$tmp/tel.a" > /dev/null
$cli chaos --smoke --trials 4 --telemetry "$tmp/tel.b" > /dev/null
$cli chaos --smoke --trials 4 --telemetry "$tmp/tel.d2" --domains 2 > /dev/null
cmp "$tmp/tel.a" "$tmp/tel.b"
cmp "$tmp/tel.a" "$tmp/tel.d2"
$cli health --smoke --trials 4 > /dev/null
$cli top --smoke --trials 4 --no-ansi > /dev/null

# Experiment-registry gate: every experiments/NNN-slug.md must verify
# (dense ids, live reproduce commands, existing schema-valid BENCH
# artifacts whose own reproduce commands are live, resolving
# EXPERIMENTS.md/README.md cross-links), the committed experiments.json
# must be schema-valid and byte-identical to a fresh export (twice, so
# the export itself is deterministic), and the regen smoke must
# re-derive every Complete entry's deterministic fields unchanged (gate
# entries exit 0, diff entries emit byte-identical stdout across two
# runs).
dune build @experiments
$json_check --experiments < experiments.json
$cli experiments export > "$tmp/exp.a"
$cli experiments export > "$tmp/exp.b"
cmp "$tmp/exp.a" "$tmp/exp.b"
cmp "$tmp/exp.a" experiments.json
$cli experiments verify --regen-smoke > /dev/null

# Documentation gate, where odoc is installed (the CI image may not ship
# it): the API docs must build without warnings-as-errors regressions.
if command -v odoc > /dev/null 2>&1; then
  dune build @doc
fi

# Formatting gate, where the formatter is installed (the CI image may not
# ship ocamlformat; .ocamlformat pins the profile either way).
if command -v ocamlformat > /dev/null 2>&1; then
  dune build @fmt
fi
