#!/bin/sh
# Tier-1 gate: a build-profile guard, static analysis, full build + test
# suite, seconds-scale smokes of every seeded campaign (soak, chaos,
# sweep, conform — each
# exits non-zero on any violation, each report is byte-identical at 1
# and 2 worker domains, and each rejects invalid input with exit 2), an
# observability smoke: the trace subcommand must emit valid JSON and the
# profile subcommand must account for every metered bit of every named
# protocol (it exits 1 on a phase-sum mismatch, 2 on bad input), the
# hot-path gate (every field of BENCH_hotpath.json, allocation
# included, reproduced exactly), the fleet-telemetry gate, and the
# experiment-registry gate (experiments/ coherence + regen smoke).
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
# rules (determinism, ambient state, domain hygiene, interface
# coverage, flight-recorder writes — R1, R2, R4..R6; phase names are
# typed, so there is no R3) plus the typed cross-module pass over the
# .cmt artifacts (determinism taint, metered-transport accounting,
# cross-domain escape, dead phases, unreachable library code —
# R7..R11; see DESIGN.md "Static analysis" and "Typed analysis").  The
# JSON report and the SARIF export must pass their schema validators,
# and the linter must be deterministic: two consecutive runs over the
# same tree are byte-identical, in both formats.  It must also scan the
# same files from the source tree as from the build tree, where dune
# adds an interface stub for every executable.
dune build @check @lint
dune exec bin/intersect_lint.exe -- --json | $json_check --lint-report
dune exec bin/intersect_lint.exe -- --sarif | $json_check --lint-sarif
for format in json sarif; do
  dune exec bin/intersect_lint.exe -- --$format > "$tmp/lint.a"
  dune exec bin/intersect_lint.exe -- --$format > "$tmp/lint.b"
  cmp "$tmp/lint.a" "$tmp/lint.b"
done
lint_files() {
  ./_build/default/bin/intersect_lint.exe --root "$1" --json | sed -n 's/.*"files":\([0-9]*\).*/\1/p'
}
if [ "$(lint_files .)" != "$(lint_files _build/default)" ]; then
  echo "tier1: intersect_lint counts $(lint_files .) files from . but $(lint_files _build/default) from _build/default" >&2
  exit 1
fi

# [expect_status N cmd...] fails the gate unless cmd exits N.
expect_status() {
  want=$1
  shift
  status=0
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "tier1: '$*' exited $status, expected $want" >&2
    exit 1
  fi
}

# json_check parses with Stats.Json.of_string, with or without a schema
# mode: malformed JSON exits 1 either way, and an unknown mode is a usage
# error (exit 2).
printf '{"a":1,}' | expect_status 1 $json_check
printf '{"a":1,}' | expect_status 1 $json_check --bench-chaos
expect_status 2 $json_check --no-such-mode < /dev/null

$cli trace --protocol bucket -k 64 --seed 1 | $json_check

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
  expect_status 2 $cli "$@"
}
for c in soak chaos sweep conform health top bench-regress; do
  expect_usage_error $c --smoke --trials 0
done
expect_usage_error telemetry-overhead --smoke --sessions 0
# So is a file path the command cannot read or write.
expect_usage_error bench-regress --smoke --baseline "$tmp/no-such-baseline.json"
# An unwritable --out or --telemetry is refused before the first cell
# runs, so nothing reaches stdout.
for flag in --out --telemetry; do
  status=0
  $cli soak --smoke $flag "$tmp/no-such-dir/soak.json" > "$tmp/early.out" 2> /dev/null || status=$?
  if [ "$status" -ne 2 ] || [ -s "$tmp/early.out" ]; then
    echo "tier1: 'soak --smoke $flag' into a missing directory exited $status, or printed to stdout" >&2
    exit 1
  fi
done

# trace and profile share that rule: an unknown protocol name (the error
# line lists every accepted name) or input the library rejects exits 2.
# profile then runs every accepted name; each run exits 1 if its phase
# bits miss Cost.total_bits.
expect_usage_error profile --protocol no-such-protocol
expect_usage_error profile --protocol bucket -k 0
expect_usage_error profile --protocol resilient -k 0
protocols=$($cli profile --protocol no-such-protocol 2>&1 | sed -n 's/.*(one of: \(.*\))$/\1/p' | tr -d ,)
if [ -z "$protocols" ]; then
  echo "tier1: profile's unknown-protocol error lists no protocol names" >&2
  exit 1
fi
for p in $protocols; do
  $cli profile --protocol "$p" -k 16 --universe-bits 20 --seed 1 > /dev/null
done

# The committed BENCH_chaos.json and BENCH_sweep.json must be
# schema-valid (chaos: outcome taxonomy partitions the trials, zero
# wrong intersections, every resume replayed identically; sweep: Wilson
# bounds ordered, per-cell gate conjunction, trial counts summing to
# total_trials), the live sweep smoke must pass the same schema, and the
# committed chaos report must regenerate byte-for-byte from the
# reproduce command it embeds.
$json_check --bench-chaos < BENCH_chaos.json
$json_check --bench-sweep < BENCH_sweep.json
$json_check --bench-sweep < "$tmp/sweep.d1"
chaos_reproduce=$(sed -n 's/^  "reproduce": "\(.*\)",$/\1/p' BENCH_chaos.json)
eval "$chaos_reproduce --json" > "$tmp/chaos.regen"
cmp "$tmp/chaos.regen" BENCH_chaos.json

# Hot-path gate: the committed BENCH_hotpath.json must be schema-valid,
# and the full sweep must reproduce every field of every cell exactly:
# bits, messages and rounds, and the bytes one warm sweep allocates,
# which repeat as exactly as the bits.  The file is the repo's one
# allocation baseline; a change that moves bytes/run regenerates it
# (`bench-regress --out BENCH_hotpath.json`).
$json_check --bench-hotpath < BENCH_hotpath.json
$cli bench-regress --baseline BENCH_hotpath.json > /dev/null

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
