#!/usr/bin/env python3
"""Tests for check_perf_regression.py: the same-runner base/head checker.

Run: python3 bench/check_perf_regression_test.py (ctest runs it too).
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep __pycache__ out of the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf_regression  # noqa: E402


def run_doc(metrics, hardware_concurrency=4, mode="tiny"):
    """A BENCH_perf.json document; `metrics` maps name -> (value, higher)."""
    return {
        "bench": "perf_suite",
        "mode": mode,
        "hardware_concurrency": hardware_concurrency,
        "metrics": {name: {"value": value, "higher_is_better": higher}
                    for name, (value, higher) in metrics.items()},
    }


class CheckPerfRegressionTest(unittest.TestCase):

    def check(self, base_docs, head_docs):
        """Writes each side's runs to its own directory and runs the
        checker on them; returns (exit status, stdout, stderr)."""
        with tempfile.TemporaryDirectory() as root:
            dirs = []
            for side, docs in (("base", base_docs), ("head", head_docs)):
                directory = os.path.join(root, side)
                os.mkdir(directory)
                for i, doc in enumerate(docs):
                    with open(os.path.join(directory, f"{i}.json"), "w") as f:
                        json.dump(doc, f)
                dirs.append(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = check_perf_regression.main(dirs)
            return status, out.getvalue(), err.getvalue()

    def test_more_than_2x_worse_on_both_head_runs_fails_higher_is_better(self):
        base = [run_doc({"qps": (100.0, True)})] * 2
        head = [run_doc({"qps": (45.0, True)}),
                run_doc({"qps": (49.0, True)})]
        status, out, err = self.check(base, head)
        self.assertEqual(status, 1)
        self.assertIn("FAIL", out)
        self.assertIn("qps", err)

    def test_more_than_2x_worse_on_both_head_runs_fails_lower_is_better(self):
        base = [run_doc({"wall_s": (1.0, False)})] * 2
        head = [run_doc({"wall_s": (2.2, False)}),
                run_doc({"wall_s": (2.5, False)})]
        status, out, err = self.check(base, head)
        self.assertEqual(status, 1)
        self.assertIn("FAIL", out)
        self.assertIn("wall_s", err)

    def test_one_bad_head_run_out_of_two_passes(self):
        base = [run_doc({"qps": (100.0, True), "wall_s": (1.0, False)})] * 2
        head = [run_doc({"qps": (10.0, True), "wall_s": (9.0, False)}),
                run_doc({"qps": (90.0, True), "wall_s": (1.1, False)})]
        status, out, _ = self.check(base, head)
        self.assertEqual(status, 0)
        self.assertNotIn("FAIL", out)
        self.assertIn("no perf regressions", out)

    def test_better_base_run_is_the_reference(self):
        # Each side keeps its better run: base 100 (not 60) against head 45.
        base = [run_doc({"qps": (60.0, True)}),
                run_doc({"qps": (100.0, True)})]
        head = [run_doc({"qps": (45.0, True)})] * 2
        status, _, _ = self.check(base, head)
        self.assertEqual(status, 1)

    def test_metric_on_only_one_side_is_listed_and_passes(self):
        base = [run_doc({"qps": (100.0, True), "retired": (1.0, True)})] * 2
        head = [run_doc({"qps": (100.0, True), "added": (1.0, True)})] * 2
        status, out, _ = self.check(base, head)
        self.assertEqual(status, 0)
        self.assertIn("only at base (listed, not compared): retired", out)
        self.assertIn("only at head (listed, not compared): added", out)

    def test_hardware_concurrency_mismatch_fails(self):
        base = [run_doc({"qps": (100.0, True)}, hardware_concurrency=1)] * 2
        head = [run_doc({"qps": (100.0, True)}, hardware_concurrency=4)] * 2
        status, _, err = self.check(base, head)
        self.assertEqual(status, 1)
        self.assertIn("hardware_concurrency", err)

    def test_mode_mismatch_fails(self):
        base = [run_doc({"qps": (100.0, True)}, mode="tiny")] * 2
        head = [run_doc({"qps": (100.0, True)}, mode="full")] * 2
        status, _, err = self.check(base, head)
        self.assertEqual(status, 1)
        self.assertIn("mode", err)

    def test_non_positive_values_are_skipped(self):
        base = [run_doc({"allocs": (0.0, False), "wall_s": (1.0, False),
                         "qps": (0.0, True)})] * 2
        head = [run_doc({"allocs": (5.0, False), "wall_s": (0.0, False),
                         "qps": (100.0, True)})] * 2
        status, out, _ = self.check(base, head)
        self.assertEqual(status, 0)
        self.assertEqual(out.count("skipped"), 3)

    def test_empty_side_is_an_error(self):
        with self.assertRaises(SystemExit):
            self.check([], [run_doc({"qps": (1.0, True)})])


if __name__ == "__main__":
    unittest.main()
