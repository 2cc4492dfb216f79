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

# Layering: observability lives in the engine that composes the leaf
# crates. The trace, workload, cache and stream-buffer crates count
# their own events in their statistics and never link streamsim-obs.
echo "==> layering: leaf crates do not name streamsim-obs"
if grep -n 'streamsim-obs' crates/{trace,workloads,cache,streams}/Cargo.toml; then
    echo "error: a leaf crate depends on streamsim-obs" >&2
    exit 1
fi

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

# perfbench (the benchmark harness BENCHMARK.json runs) is a workspace
# of its own, so no step above compiles it, yet its harness imports
# about thirty workspace names. Check a copy with its path dependencies
# pointed back at this checkout, so a rename or deletion it relies on
# fails here rather than in the benchmark run. Checking the copy keeps
# cargo from rewriting perfbench/Cargo.lock in place.
echo "==> perfbench compiles against the workspace (cargo check --benches on a copy)"
perfbench_dir=$(mktemp -d)
trap 'rm -rf "$fixture_dir" "$perfbench_dir"' EXIT
cp -r perfbench "$perfbench_dir/perfbench"
sed -i "s|path = \"\.\.|path = \"$PWD|" "$perfbench_dir/perfbench/Cargo.toml"
cargo check --offline --benches --quiet \
    --manifest-path "$perfbench_dir/perfbench/Cargo.toml" \
    --target-dir "$perfbench_dir/target"

echo "==> cargo test -q --offline ${test_scope[*]:-}"
cargo test -q --offline "${test_scope[@]}"

# Observability smoke: two quick experiments with spans and the trace
# timeline enabled (STREAMSIM_LOG=info + --profile +
# STREAMSIM_TRACE_OUT). Table 3 replays Table 2's ten-stream cell over
# the same fifteen traces, so stderr must carry the trace store's memo
# line for exactly that: 15 cells served, 15 simulated. The JSON
# artifact must open with the run manifest, carry the per-phase profile
# rows (including the latency quantile columns) and the trailing
# run_steps row; diffing the file against itself parses every line
# through the in-tree flat JSON reader, so a malformed line is a hard
# failure here, not a surprise for a downstream consumer. The exported
# Chrome trace must survive --trace-check: well-formed flat JSON, every
# span's B matched by an E.
echo "==> observability smoke (--profile + trace export under STREAMSIM_LOG=info)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$fixture_dir" "$perfbench_dir"' EXIT
STREAMSIM_LOG=info STREAMSIM_TRACE_OUT="$obs_dir/trace.json" \
    ./target/release/streamsim-report \
    --quick --profile --out /dev/null --json "$obs_dir/run.jsonl" table2 table3 \
    2> "$obs_dir/run.stderr" || { cat "$obs_dir/run.stderr" >&2; exit 1; }
grep -q 'replay memo: 15 cells served, 15 simulated' "$obs_dir/run.stderr" || {
    echo "error: the observability smoke lacks the expected replay memo line" >&2
    cat "$obs_dir/run.stderr" >&2
    exit 1
}
head -n 1 "$obs_dir/run.jsonl" | grep -q '"artifact":"manifest"'
grep -q '"artifact":"profile"' "$obs_dir/run.jsonl"
grep -q '"phase":"record"' "$obs_dir/run.jsonl"
grep -q '"p50_ms"' "$obs_dir/run.jsonl"
grep -q '"table":"run_steps"' "$obs_dir/run.jsonl"
grep -q '"run_seed"' "$obs_dir/run.jsonl"
./target/release/streamsim-report --diff "$obs_dir/run.jsonl" "$obs_dir/run.jsonl"
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
# record_miss_trace's ChunkSampler window and the hierarchy-order L2
# cell traffic reads over the sampled recording.
echo "==> sampled quick report golden (--diff tests/golden/report-quick-sampled.jsonl)"
./target/release/streamsim-report --quick --sampling --out /dev/null \
    --json "$obs_dir/report-quick-sampled.jsonl"
./target/release/streamsim-report --diff tests/golden/report-quick-sampled.jsonl \
    "$obs_dir/report-quick-sampled.jsonl"

# Pre-screened sweep golden: the quick design-space sweep pruned by the
# model (about 4 s), diffed against perfbench's full-sweep golden. It is
# the only CI step that pins sweep rows. `--diff` passes a golden row
# absent behind the run's pre-screen marker as "skipped by model", but a
# pruned frontier cell is a wrong answer, so the run's `"frontier":1`
# cells must also equal the golden's, cell for cell. The step only
# reads perfbench/golden/sweep-full.jsonl.
echo "==> pre-screened sweep golden (--diff perfbench/golden/sweep-full.jsonl, same frontier)"
./target/release/streamsim-report --quick --prescreen --out /dev/null \
    --json "$obs_dir/sweep-prescreen.jsonl" sweep
./target/release/streamsim-report --diff perfbench/golden/sweep-full.jsonl \
    "$obs_dir/sweep-prescreen.jsonl" --summary
frontier_cells() {
    grep '"artifact":"sweep"' "$1" | grep '"frontier":1' | grep -o '"cell":"[^"]*"' | sort
}
if ! diff <(frontier_cells perfbench/golden/sweep-full.jsonl) \
    <(frontier_cells "$obs_dir/sweep-prescreen.jsonl"); then
    echo "error: the pre-screened sweep's frontier cells differ from the golden's" >&2
    exit 1
fi

# Paper-scale golden: every default artifact at paper scale (about 10 s
# on two cores), diffed against perfbench's golden. It is the only CI
# step that pins the paper-scale scorecard (40 match / 20 close / 0 off;
# quick scale reads 38 / 21 / 1) and the replay of the full-size traces.
# The step only reads perfbench/golden/report-paper.jsonl. It also caps
# the report's peak RSS, read by python3 from getrusage(RUSAGE_CHILDREN)
# (ru_maxrss is in KiB on Linux). The report peaks near 370 MiB on a
# two-core host, most of it the trace store's 8-byte miss events; the
# 512 MiB ceiling leaves room for run-to-run noise.
echo "==> paper report golden (--diff perfbench/golden/report-paper.jsonl, peak RSS <= 512 MiB)"
python3 - "$obs_dir/report-paper.jsonl" <<'PY'
import resource, subprocess, sys
subprocess.run(["./target/release/streamsim-report", "--out", "/dev/null",
                "--json", sys.argv[1]], check=True)
rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"paper report peak RSS: {rss_mib:.1f} MiB (ceiling 512 MiB)")
if rss_mib > 512:
    sys.exit(f"error: paper report peak RSS {rss_mib:.1f} MiB exceeds 512 MiB")
PY
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

# The same for the model's profile pass: the seeded cases of the
# dense-versus-reference profile property already ran under `cargo
# test`; one more case on a fresh seed gives every CI run an event
# stream nobody has seen before, and the logged seed replays it.
qc_seed=$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')
echo "==> profile equivalence (fresh seed: STREAMSIM_QC_SEED=0x$qc_seed)"
STREAMSIM_QC_SEED=0x$qc_seed cargo test -q --offline -p streamsim-model \
    --test profile_equivalence dense_profile_equals_the_reference_builder

# The hot-loop oracles: the SoA `SetAssocCache` and `StreamSystem` must
# match the frozen `ReferenceCache` and `ReferenceStreamSystem` outcome
# for outcome over every set (neither cache model samples sets), and the
# L2 replay must match its own oracles: the shared LRU recency stacks of
# `replay_l2` the per-cell reference, one `L2Observer` per cell driven
# event by event, and the hierarchy-order cells the coupled `TwoLevel`
# hierarchy. Those properties live in the cache, streams and core
# crates, whose suites the default gate's root-package `cargo test` does
# not run, so run them here, then once more on a fresh logged seed. The
# fresh seed also reaches `set_sampling_is_exact_per_set`, the one test
# that defines set sampling: a sampled `replay_l2` cell against a full
# cache counted over the sampled sets (the root suite above ran its
# pinned seeds).
l2_oracles=(multi_l2_replay_equals_independent_passes hierarchy_order_l2_equals_two_level)
echo "==> hot-loop oracle properties (cache and streams soa_equivalence, L2 replay)"
cargo test -q --offline -p streamsim-cache --test soa_equivalence
cargo test -q --offline -p streamsim-streams --test soa_equivalence
cargo test -q --offline -p streamsim-core --test replay_properties -- "${l2_oracles[@]}"
oracle_seed=$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')
echo "==> hot-loop oracle properties (fresh seed: STREAMSIM_QC_SEED=0x$oracle_seed)"
STREAMSIM_QC_SEED=0x$oracle_seed cargo test -q --offline -p streamsim-cache --test soa_equivalence
STREAMSIM_QC_SEED=0x$oracle_seed cargo test -q --offline -p streamsim-streams --test soa_equivalence
STREAMSIM_QC_SEED=0x$oracle_seed cargo test -q --offline -p streamsim-core --test replay_properties \
    -- "${l2_oracles[@]}"
STREAMSIM_QC_SEED=0x$oracle_seed cargo test -q --offline --test properties set_sampling_is_exact_per_set

# Perf smoke: the recording bench asserts the SoA hot loop is
# byte-identical to the frozen reference loop (the same chunks into the
# array-of-structs `ReferenceCache`), then times both. The enforce floor
# is deliberately far below the measured speedup (1.3-1.4x since the
# reference loop reads chunks; see EXPERIMENTS.md) so shared-machine
# noise cannot flake the gate; a drop below it means the fast path
# actually rotted.
# The only observability in the record path is the per-recording
# `record` span, opened once outside that loop, so no level gate sits
# on the per-reference or per-chunk path.
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
