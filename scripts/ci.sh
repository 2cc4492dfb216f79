#!/usr/bin/env bash
# Tier-1 verification gate.
#
# Runs everything the repository promises in ROADMAP.md, fully offline:
# no step may reach a network, and `--offline` turns an accidental
# dependency on crates.io into a hard error instead of a hidden fetch.
# The workspace has zero external dependencies by policy (see
# DESIGN.md, "Hermetic builds"); scripts/ci.sh is the executable form
# of that policy.
#
# Usage: scripts/ci.sh [--workspace]
#
#   default       the tier-1 gate: build + root-package tests
#   --workspace   additionally run every member crate's test suite
#                 (slower; what CI runs nightly)

set -euo pipefail
cd "$(dirname "$0")/.."

test_scope=()
if [[ "${1:-}" == "--workspace" ]]; then
    test_scope=(--workspace)
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo build --release --offline --examples"
cargo build --release --offline --examples

echo "==> cargo doc --no-deps --offline"
RUSTDOCFLAGS="${RUSTDOCFLAGS:--D warnings}" cargo doc --no-deps --offline --quiet

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q --offline ${test_scope[*]:-}"
cargo test -q --offline "${test_scope[@]}"

# Static analysis: the workspace's determinism/hermeticity/safety
# invariants, enforced by the in-tree lint (see DESIGN.md, "Static
# analysis v2"). Both scopes must be clean — zero unsuppressed findings
# or dead suppressions; live suppressions are fine, they are reasoned
# and reported. The seeded fixture tree then proves the gate has teeth:
# a run over known violations (including the cross-file alias chain the
# semantic pass exists for) must exit nonzero in BOTH verbose and
# --quiet modes with byte-identical JSON artifacts, else the lint
# rotted into a yes-man or --quiet regressed the exit path again.
lint_dir=$(mktemp -d)
trap 'rm -rf "$lint_dir"' EXIT
echo "==> cargo build --release --offline -p streamsim-lint"
cargo build --release --offline -p streamsim-lint
echo "==> streamsim-lint --deny-warnings (root package)"
./target/release/streamsim-lint --deny-warnings
echo "==> streamsim-lint --deny-warnings --workspace"
./target/release/streamsim-lint --deny-warnings --workspace \
    --json "$lint_dir/workspace.jsonl" --bench-out "$lint_dir/BENCH_lint.json"
echo "==> streamsim-lint fixture smoke (must fail, verbose)"
if ./target/release/streamsim-lint --deny-warnings --workspace \
    --json "$lint_dir/fixture-verbose.jsonl" \
    --root crates/lint/tests/fixtures/violating; then
    echo "error: lint passed the seeded-violation fixture tree" >&2
    exit 1
fi
echo "==> streamsim-lint fixture smoke (must fail, --quiet)"
if ./target/release/streamsim-lint --deny-warnings --workspace --quiet \
    --json "$lint_dir/fixture-quiet.jsonl" \
    --root crates/lint/tests/fixtures/violating; then
    echo "error: lint passed the seeded-violation fixture tree under --quiet" >&2
    exit 1
fi
cmp "$lint_dir/fixture-verbose.jsonl" "$lint_dir/fixture-quiet.jsonl" \
    || { echo "error: --quiet changed the lint JSON artifact" >&2; exit 1; }
grep -q '"rule":"determinism-taint"' "$lint_dir/fixture-verbose.jsonl"
grep -q '"resolved_path":"FastMap' "$lint_dir/fixture-verbose.jsonl" \
    || { echo "error: cross-file alias chain missing from fixture findings" >&2; exit 1; }

# Lint coverage ledger: the workspace bench row must round-trip through
# --ledger and clear the files_scanned floor; a truncated scan (a tiny
# --root) appended after it must turn the check red — the floor is what
# keeps a wrong-directory lint run from reading as a clean workspace.
echo "==> lint bench row -> ledger round-trip (coverage floor)"
./target/release/streamsim-report \
    --ledger "$lint_dir/BENCH_lint.json" --ledger-file "$lint_dir/ledger.jsonl"
./target/release/streamsim-report --ledger-check "$lint_dir/ledger.jsonl"
echo "==> lint truncated-scan smoke (must fail the coverage floor)"
./target/release/streamsim-lint --quiet --root crates/lint \
    --bench-out "$lint_dir/BENCH_lint_truncated.json"
./target/release/streamsim-report \
    --ledger "$lint_dir/BENCH_lint_truncated.json" --ledger-file "$lint_dir/ledger.jsonl"
if ./target/release/streamsim-report --ledger-check "$lint_dir/ledger.jsonl"; then
    echo "error: ledger check passed a truncated lint scan" >&2
    exit 1
fi

# Observability smoke: one quick experiment with spans, counters, the
# event log and the trace timeline fully enabled (STREAMSIM_LOG=debug +
# --profile + STREAMSIM_TRACE_OUT). The JSON artifact must open with
# the run manifest, carry the per-phase profile rows (including the
# obs-v2 latency quantile columns) and the trailing run_steps row, and
# the drained event log must land beside it; diffing each file against
# itself parses every line through the in-tree flat JSON reader, so a
# malformed line is a hard failure here, not a surprise for a
# downstream consumer. The exported Chrome trace must survive
# --trace-check: well-formed flat JSON, every span's B matched by an E.
echo "==> observability smoke (--profile + trace export under STREAMSIM_LOG=debug)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$lint_dir"' EXIT
STREAMSIM_LOG=debug STREAMSIM_TRACE_OUT="$obs_dir/trace.json" \
    ./target/release/streamsim-report \
    --quick --profile --out /dev/null --json "$obs_dir/run.jsonl" table2
head -n 1 "$obs_dir/run.jsonl" | grep -q '"artifact":"manifest"'
grep -q '"artifact":"profile"' "$obs_dir/run.jsonl"
grep -q '"phase":"record"' "$obs_dir/run.jsonl"
grep -q '"p50_ms"' "$obs_dir/run.jsonl"
grep -q '"table":"run_steps"' "$obs_dir/run.jsonl"
grep -q '"run_seed"' "$obs_dir/run.jsonl"
grep -q '"event":"span"' "$obs_dir/run.jsonl.events.jsonl"
grep -q '"event":"counter"' "$obs_dir/run.jsonl.events.jsonl"
for f in "$obs_dir/run.jsonl" "$obs_dir/run.jsonl.events.jsonl"; do
    ./target/release/streamsim-report --diff "$f" "$f"
done
grep -q '"ph":"B"' "$obs_dir/trace.json"
./target/release/streamsim-report --trace-check "$obs_dir/trace.json"

# Quick-report golden: every default artifact at quick scale,
# regenerated and diffed against tests/golden/report-quick.jsonl (made by
# `streamsim-report --quick --json` before the trace store memoized
# replay results). --diff skips the manifest and ignores run_* keys, so
# thread count and provenance do not matter; a drifted, missing or
# extra row fails the gate. It pins the whole report, including the
# artifacts tests/paper_shapes.rs does not.
echo "==> quick report golden (--diff tests/golden/report-quick.jsonl)"
./target/release/streamsim-report --quick --out /dev/null \
    --json "$obs_dir/report-quick.jsonl"
./target/release/streamsim-report --diff tests/golden/report-quick.jsonl \
    "$obs_dir/report-quick.jsonl"

# Perf-regression ledger gate: the committed PERF_LEDGER.jsonl must
# clear every metric floor (recording/replay speedups, model pruning
# fraction — see DESIGN.md, "Perf-regression ledger"). The three
# BENCH_*.json artifacts must still round-trip through --ledger into a
# fresh ledger that also passes, proving the append path and the
# checked-in artifacts agree on the schema. Then the gate's teeth: a
# synthetic regressed row appended to a scratch copy must turn the
# check red, else the ledger rotted into a yes-man.
echo "==> perf ledger check (committed PERF_LEDGER.jsonl)"
./target/release/streamsim-report --ledger-check PERF_LEDGER.jsonl
echo "==> perf ledger round-trip (BENCH_*.json -> fresh ledger)"
./target/release/streamsim-report \
    --ledger BENCH_recording.json --ledger BENCH_replay.json \
    --ledger BENCH_model.json --ledger-file "$obs_dir/ledger.jsonl"
./target/release/streamsim-report --ledger-check "$obs_dir/ledger.jsonl"
echo "==> perf ledger smoke (must fail on a regressed row)"
cp PERF_LEDGER.jsonl "$obs_dir/regressed.jsonl"
printf '%s\n' '{"schema":"streamsim-ledger-v1","seq":9999,"benchmark":"recording","run_config":"ci-smoke","scale":"quick","samples":1,"run_steps":1,"speedup":1.01}' \
    >> "$obs_dir/regressed.jsonl"
if ./target/release/streamsim-report --ledger-check "$obs_dir/regressed.jsonl"; then
    echo "error: ledger check passed the seeded regression" >&2
    exit 1
fi

# Deterministic-simulation smoke: the full seed sweeps already ran as
# part of `cargo test` above; this re-runs the DST engine suite in
# single-seed replay mode twice. The pinned seed proves the
# STREAMSIM_DST_SEED replay path stays wired end to end; the fresh
# random seed gives every CI run one interleaving nobody has seen
# before, and logging it makes a red run reproducible from the
# transcript (see EXPERIMENTS.md, "Replaying a DST failure").
echo "==> DST replay smoke (pinned seed)"
STREAMSIM_DST_SEED=0xd575eed cargo test -q --offline --test dst_engine
dst_seed=$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')
echo "==> DST replay smoke (fresh seed: STREAMSIM_DST_SEED=$dst_seed)"
STREAMSIM_DST_SEED=$dst_seed cargo test -q --offline --test dst_engine

# Perf smoke: the recording bench asserts the chunked/SoA hot loop is
# byte-identical to the pre-PR reference implementation, then times
# both. The enforce floor is deliberately far below the recorded
# speedup (see BENCH_recording.json) so shared-machine noise cannot
# flake the gate; a drop below it means the fast path actually rotted.
# Observability is compiled into that loop (counter hooks on the
# reference-generation and L1-probe paths); CI leaves STREAMSIM_LOG
# unset, so this floor also pins the disabled-mode overhead contract.
echo "==> recording bench smoke (enforce >= 1.15x)"
STREAMSIM_BENCH_SAMPLES=3 STREAMSIM_BENCH_WARMUP=1 STREAMSIM_BENCH_ENFORCE=1.15 \
    cargo bench --offline -p streamsim-bench --bench recording

# Same contract for the replay hot loop: the bench pins byte-identity
# of the fused/SoA delivery path against the frozen pre-PR reference
# (per-event fan-out into `ReferenceStreamSystem`), then times both.
# The recorded aggregate speedup lives in BENCH_replay.json; the floor
# here sits well below it for the same noise-tolerance reason.
echo "==> replay bench smoke (enforce >= 1.3x)"
STREAMSIM_BENCH_SAMPLES=3 STREAMSIM_BENCH_WARMUP=1 STREAMSIM_BENCH_ENFORCE=1.3 \
    cargo bench --offline -p streamsim-bench --bench replay

# Model-validation smoke: the analytical fast path's contract, asserted
# before any timing inside the bench — the pre-screened sweep must
# reproduce the full sweep's Pareto frontier exactly (byte-identical
# measurements on every frontier cell) while simulating at most a
# quarter of the grid. One sample is enough: each sample replays the
# full thousand-cell sweep once. The recorded speedup lives in
# BENCH_model.json; the floor sits well below it for noise tolerance.
echo "==> model bench smoke (enforce >= 3x)"
STREAMSIM_BENCH_ENFORCE=3 \
    cargo bench --offline -p streamsim-bench --bench model

echo "==> tier-1 gate passed"
