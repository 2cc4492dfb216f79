#!/usr/bin/env python3
"""Self-tests for the benchmark: python3 perfbench/selftest.py

They build what run.py builds and run the cheap quick-scale workload,
sweep-prescreen, twice (a few seconds each). They check that the golden
check has teeth and that the traced run does the same work as an
untraced one.
"""

import importlib.util
import re
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench_run", Path(__file__).with_name("run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

WORKLOAD = "sweep-prescreen"
GOLDEN = bench.GOLDEN_DIR / bench.GOLDENS[WORKLOAD]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report, cls.harness = bench.build()
        bench.OUT_DIR.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=bench.OUT_DIR)
        cls.dir = Path(cls.tmp.name)
        cls.rows = cls.dir / "timed.jsonl"
        cls.timed = bench.run_harness(cls.harness, WORKLOAD, "timed", cls.rows, 120)
        cls.traced = bench.run_harness(cls.harness, WORKLOAD, "traced", cls.dir / "traced.jsonl", 120)
        cls.survivors = {r["cell"] for r in bench.read_rows(cls.rows) if r.get("table") == "cells"}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check_with_golden_edit(self, edit):
        """Applies `edit` to the first golden line it changes and checks
        the run against the edited golden."""
        lines = GOLDEN.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            edited = edit(line)
            if edited != line:
                lines[i] = edited
                break
        else:
            self.fail("the edit matched no golden row")
        golden = self.dir / "edited-golden.jsonl"
        golden.write_text("".join(lines))
        return bench.check(self.report, golden, self.rows, self.timed)

    def test_run_matches_the_committed_golden(self):
        self.assertEqual(bench.check(self.report, GOLDEN, self.rows, self.timed), (975, 0))

    def test_one_perturbed_row_is_one_failed_operation(self):
        def bump_a_simulated_cell(line):
            cell = re.search(r'"cell":"([^"]+)"', line)
            if not cell or cell.group(1) not in self.survivors:
                return line
            return re.sub(r'"hit_pct":([0-9.]+)', lambda m: f'"hit_pct":{float(m.group(1)) + 1.0}', line)

        self.assertEqual(self.check_with_golden_edit(bump_a_simulated_cell), (975, 1))

    def test_a_pruned_frontier_cell_is_a_failed_operation(self):
        def mark_a_pruned_cell_frontier(line):
            cell = re.search(r'"cell":"([^"]+)"', line)
            if not cell or cell.group(1) in self.survivors:
                return line
            return line.replace('"frontier":0', '"frontier":1')

        self.assertEqual(self.check_with_golden_edit(mark_a_pruned_cell_frontier), (975, 1))

    def test_traced_counts_equal_untraced_counts(self):
        keys = [
            "workloads.refs",
            "miss_trace.events",
            "streams.deliveries",
            "cache.l2_deliveries",
            "model.survivor_frac",
        ]
        for key in keys:
            with self.subTest(key=key):
                self.assertEqual(self.traced["metrics"][key], self.timed["counts"][key])


if __name__ == "__main__":
    unittest.main()
