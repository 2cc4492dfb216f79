#!/usr/bin/env python3
"""streamsim end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each is there):

    report-paper     the 16 default artifacts at paper scale, no sampling
    report-sampled   the same artifacts with the paper's 10k-on/90k-off sampling
    sweep-prescreen  the 975-cell quick-scale sweep, pre-screened by the model

The script builds `streamsim-report` and the harness in perfbench/
(`cargo --offline`, into $CARGO_TARGET_DIR, default .bench_build), then
runs the workload in fresh harness processes:

    --trace 0  repeats the workload until --seconds have passed (at
               least twice) and reports the median of each end-to-end
               metric;
    --trace 1  runs it once untraced, once with observability at info
               and once with harness spans plus per-layer timings, and
               reports the per-layer metrics.

Every run's artifact rows are compared with the committed golden by
`streamsim-report --diff`; each golden row is one operation, and a
drifted, missing or extra row is a failed one. The last stdout line is
the result as one JSON object.

The inputs are the paper's fifteen kernels, whose generators carry
fixed seeds; no driver takes a seed, so every --seed gives the same
inputs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = ROOT / ".bench_out"

# Golden rows per workload, generated by `streamsim-report --json`
# (README.md, "Regenerating the goldens").
GOLDENS = {
    "report-paper": "report-paper.jsonl",
    "report-sampled": "report-sampled.jsonl",
    "sweep-prescreen": "sweep-full.jsonl",
}

# A run must end within 180 s once the build is done; stop starting
# new harness processes well before that.
RUN_LIMIT_S = 160
BUILD_TIMEOUT_S = 850
# Set-ups each timed harness process measures (README.md, "setup_s").
SETUP_REPS = 5
# Harness processes a timed run makes at least, so that even a report
# at paper scale, longer than --seconds, reports a median of two.
MIN_RUNS = 2


class BenchError(Exception):
    pass


def child_env():
    """The environment for children: no STREAMSIM_* knob reaches them."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STREAMSIM_")}
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    return env


def cargo_executable(args, target_name):
    """Builds with cargo and returns the path of `target_name`'s executable."""
    cmd = ["cargo", *args, "--offline", "--message-format", "json"]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"build failed: {' '.join(cmd)}")
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        msg = json.loads(line)
        if (
            msg.get("reason") == "compiler-artifact"
            and msg["target"]["name"] == target_name
            and msg.get("executable")
        ):
            return msg["executable"]
    raise BenchError(f"cargo reported no executable for {target_name}")


def build():
    """Returns (streamsim-report, harness) executables."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        raise BenchError(f"no streamsim sources under {ROOT}; run from a full checkout")
    report = cargo_executable(["build", "--release", "--bin", "streamsim-report"], "streamsim-report")
    harness = cargo_executable(
        ["build", "--release", "--manifest-path", str(BENCH_DIR / "Cargo.toml"), "--bench", "pipeline"],
        "pipeline",
    )
    return report, harness


def run_harness(harness, workload, mode, out, timeout, spans=None, accuracy=None, setup_reps=0):
    cmd = [harness, "--workload", workload, "--mode", mode, "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    if accuracy:
        cmd += ["--accuracy", str(accuracy)]
    if setup_reps:
        cmd += ["--setup-reps", str(setup_reps)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} run of {workload} did not finish in {timeout:.0f} s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"harness failed ({mode}, {workload}), exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def is_compared(row):
    """Whether `--diff` compares this row (provenance and pre-screen
    marker rows are skipped by its rules)."""
    return row.get("artifact") not in ("manifest", "profile") and row.get("table") != "prescreen"


SUMMARY = re.compile(r"^\S+: (\d+) row\(s\) changed, (\d+) added, (\d+) removed")


def check(report, golden, run_file, result):
    """Compares one run's rows with `golden` through `streamsim-report
    --diff`. Returns (attempted, failed) operations."""
    golden_rows = [r for r in read_rows(golden) if is_compared(r)]
    proc = subprocess.run(
        [report, "--diff", str(golden), str(run_file), "--summary"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    changed = added = removed = 0
    for line in proc.stdout.splitlines():
        m = SUMMARY.match(line)
        if m:
            changed += int(m.group(1))
            added += int(m.group(2))
            removed += int(m.group(3))
    attempted = len(golden_rows) + added
    failed = changed + added + removed
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and failed == 0):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        failed = attempted
    # `--diff` reports a golden row absent behind the run's pre-screen
    # marker as "skipped by model" and passes; a pruned frontier cell is
    # a wrong answer, so it fails here.
    run_cells = {r.get("cell") for r in read_rows(run_file) if r.get("artifact") == "sweep"}
    failed += sum(
        1
        for r in golden_rows
        if r.get("artifact") == "sweep" and r.get("frontier") == 1 and r.get("cell") not in run_cells
    )
    if result.get("panicked"):
        sys.stderr.write(f"drivers panicked: {', '.join(result['panicked'])}\n")
    if failed:
        sys.stderr.write(proc.stdout[-2000:])
    return attempted, failed


def paper_err_pts(files):
    """Mean |measured - paper| in percentage points over the scorecard's
    verdict rows, from the first file that holds them."""
    for path in files:
        if path and Path(path).is_file():
            vals = [
                abs(r["measured"] - r["reported"])
                for r in read_rows(path)
                if r.get("artifact") == "scorecard" and r.get("table") == "verdicts"
            ]
            if vals:
                return statistics.fmean(vals)
    raise BenchError("no scorecard rows to compare with the paper")


def timed_run(report, harness, workload, seconds, tmp, deadline):
    """Repeats the workload for `seconds`; returns metrics and counts."""
    start = time.monotonic()
    samples, setups = [], []
    attempted = failed = 0
    first_rows = accuracy = None
    while True:
        i = len(samples)
        rows = tmp / f"rows-{i}.jsonl"
        acc = tmp / "accuracy.jsonl" if i == 0 else None
        res = run_harness(
            harness, workload, "timed", rows, deadline - time.monotonic(), accuracy=acc, setup_reps=SETUP_REPS
        )
        a, f = check(report, GOLDEN_DIR / GOLDENS[workload], rows, res)
        attempted += a
        failed += f
        samples.append(res["metrics"])
        setups += res["setup_samples"]
        if i == 0:
            first_rows, accuracy = rows, acc
        m = res["metrics"]
        print(
            f"# {workload} run {i}: wall {m['wall_s']:.3f} s, setup {m['setup_s']:.3f} s, "
            f"cpu {m['cpu_s']:.2f} s, peak {m['peak_rss_mib']:.1f} MiB, {f} failed of {a}",
            flush=True,
        )
        elapsed = time.monotonic() - start
        # Stop at the requested length, or before the next run could
        # overrun the per-run limit.
        if elapsed + m["wall_s"] * 2 > deadline - start:
            break
        if len(samples) >= MIN_RUNS and elapsed >= seconds:
            break
    med = lambda key: statistics.median(s[key] for s in samples)  # noqa: E731
    metrics = {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(setups),
        "cpu_s": med("cpu_s"),
        "peak_rss_mib": med("peak_rss_mib"),
        "paper_err_pts": paper_err_pts([first_rows, accuracy]),
    }
    return metrics, attempted, failed


def traced_run(report, harness, workload, tmp, deadline):
    """One untraced, one info-level and one traced run; returns the
    per-layer metrics."""
    attempted = failed = 0
    runs = {}
    for mode in ("timed", "info", "traced"):
        rows = tmp / f"rows-{mode}.jsonl"
        spans = OUT_DIR / f"spans-{workload}.jsonl" if mode == "traced" else None
        res = run_harness(harness, workload, mode, rows, deadline - time.monotonic(), spans=spans)
        a, f = check(report, GOLDEN_DIR / GOLDENS[workload], rows, res)
        attempted += a
        failed += f
        runs[mode] = res
    base, info, tr = runs["timed"]["metrics"], runs["info"]["metrics"], runs["traced"]
    threads = runs["timed"]["threads"]
    layers = dict(tr["metrics"])
    artifact_s = tr["artifact_s"]
    for name, secs in artifact_s.items():
        print(f"# experiments.{name}_s {secs:.4f} s", flush=True)
    print(f"# spans written to {OUT_DIR / f'spans-{workload}.jsonl'}", flush=True)
    layers.update(
        {
            "experiments.artifacts_s": sum(artifact_s.values()),
            "experiments.max_artifact_s": max(artifact_s.values()),
            "sink.krows_per_s": layers["sink.rows"] / max(layers["sink.render_s"], 1e-9) / 1e3,
            "runner.busy_frac": base["cpu_s"] / (threads * base["wall_s"]),
            "runner.idle_s": threads * base["wall_s"] - base["cpu_s"],
            "obs.trace_overhead_frac": (info["wall_s"] - base["wall_s"]) / base["wall_s"],
            "harness.trace_overhead_frac": (layers["wall_s"] - base["wall_s"]) / base["wall_s"],
            "harness.span_cover_frac": layers["harness.top_span_s"] / base["wall_s"],
        }
    )
    return layers, attempted, failed


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GOLDENS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        report, harness = build()
        deadline = time.monotonic() + RUN_LIMIT_S
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            tmp = Path(tmp)
            if args.trace:
                measured, attempted, failed = traced_run(report, harness, args.workload, tmp, deadline)
                wanted = spec["per_layer"]
            else:
                measured, attempted, failed = timed_run(
                    report, harness, args.workload, args.seconds, tmp, deadline
                )
                wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise BenchError(f"harness did not measure: {', '.join(missing)}")
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
