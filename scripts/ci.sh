#!/usr/bin/env bash
# Tier-1 verification gate.
#
# Runs everything the repository promises in ROADMAP.md, fully offline:
# no step may reach a network, and `--offline` turns an accidental
# dependency on crates.io into a hard error instead of a hidden fetch.
# The workspace has zero external dependencies by policy (see
# DESIGN.md, "Dependencies & hermetic builds"); scripts/ci.sh is the executable form
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

# Hermeticity: no registry or git dependency reaches Cargo.lock, and no
# package builds a build script (see DESIGN.md, "Static analysis").
echo "==> hermetic: no non-path sources, no build scripts"
if grep -n '^source = ' Cargo.lock; then echo "error: Cargo.lock names a registry or git source" >&2; exit 1; fi
targets=$(cargo metadata --offline --no-deps --format-version 1)
if grep -o '"custom-build"' <<<"$targets"; then echo "error: a workspace package has a build script" >&2; exit 1; fi

# The clippy step's teeth: scripts/lint-fixture plants one violation per
# invariant in clippy.toml and the lint levels (a type alias, renamed
# re-exports across files, a raw thread spawn, an `expect` in a module
# that denies it, library output, a reasonless `#[allow]`, a stale
# `#[expect]`). It is a workspace of its own, so clippy reads the root
# clippy.toml by walking up from it. The run must fail, and its output
# must name every planted violation, else a check rotted into a yes-man.
echo "==> clippy fixture smoke (must fail on every planted violation)"
fixture_dir=$(mktemp -d)
trap 'rm -rf "$fixture_dir"' EXIT
if cargo clippy --offline --manifest-path scripts/lint-fixture/Cargo.toml \
    --target-dir "$fixture_dir/target" --message-format short -- -D warnings \
    > "$fixture_dir/clippy.txt" 2>&1; then
    echo "error: clippy passed the planted-violation fixture" >&2
    exit 1
fi
for expected in \
    'src/fast_map.rs:.*disallowed type `std::collections::HashMap`' \
    'src/stamp.rs:.*disallowed type `std::time::Instant`' \
    'src/config.rs:.*disallowed method `std::env::var`' \
    'src/fanout.rs:.*disallowed method `std::thread::spawn`' \
    'src/hot.rs:.*used `expect()`' \
    'src/lib.rs:.*use of `println!`' \
    'src/lib.rs:.*`allow` attribute without specifying a reason' \
    'src/lib.rs:.*this lint expectation is unfulfilled'; do
    grep -q -- "$expected" "$fixture_dir/clippy.txt" || {
        echo "error: fixture clippy output lacks: $expected" >&2
        cat "$fixture_dir/clippy.txt" >&2
        exit 1
    }
done

echo "==> cargo test -q --offline ${test_scope[*]:-}"
cargo test -q --offline "${test_scope[@]}"

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
trap 'rm -rf "$obs_dir" "$fixture_dir"' EXIT
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

# The same report under the paper's 10k-on/90k-off time sampling, against
# tests/golden/report-quick-sampled.jsonl (made by `streamsim-report
# --quick --sampling --json`). It is the only gate on the sampled paths:
# record_miss_trace's ChunkSampler window and traffic's sampled
# two-level pass.
echo "==> sampled quick report golden (--diff tests/golden/report-quick-sampled.jsonl)"
./target/release/streamsim-report --quick --sampling --out /dev/null \
    --json "$obs_dir/report-quick-sampled.jsonl"
./target/release/streamsim-report --diff tests/golden/report-quick-sampled.jsonl \
    "$obs_dir/report-quick-sampled.jsonl"

# Paper-scale golden: every default artifact at paper scale (about 15 s
# on two cores), diffed against perfbench's golden. It is the only CI
# step that pins the paper-scale scorecard (40 match / 20 close / 0 off;
# quick scale reads 38 / 21 / 1) and the replay of the full-size traces.
# The step only reads perfbench/golden/report-paper.jsonl.
echo "==> paper report golden (--diff perfbench/golden/report-paper.jsonl)"
./target/release/streamsim-report --out /dev/null \
    --json "$obs_dir/report-paper.jsonl"
./target/release/streamsim-report --diff perfbench/golden/report-paper.jsonl \
    "$obs_dir/report-paper.jsonl"

# Perf-regression ledger gate: the committed PERF_LEDGER.jsonl must
# clear every metric floor (recording/replay speedups, model pruning
# fraction — see DESIGN.md, "Perf-regression ledger"). The three
# BENCH_*.json artifacts must still round-trip through --ledger into a
# fresh ledger that also passes, proving the append path and the
# checked-in artifacts agree on the schema. Then the gate's teeth: a
# synthetic regressed row appended to a temporary copy, and a copy
# with the replay benchmark's row removed, must each turn the check red,
# else the ledger rotted into a yes-man.
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
echo "==> perf ledger smoke (must fail on a floored benchmark with no row)"
grep -v '"benchmark":"replay"' PERF_LEDGER.jsonl > "$obs_dir/no-replay.jsonl"
if ./target/release/streamsim-report --ledger-check "$obs_dir/no-replay.jsonl"; then
    echo "error: ledger check passed a ledger without a replay row" >&2
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
# Observability is compiled into that loop (the per-chunk
# reference-generation counter and chunk-size histogram); CI leaves
# STREAMSIM_LOG unset, so this floor also pins the disabled-mode
# overhead contract.
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
