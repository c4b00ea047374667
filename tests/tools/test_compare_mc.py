#!/usr/bin/env python3
"""Unit tests for tools/compare_mc.py.

Runs with the standard library only (unittest, no pytest): invoke as

  python3 tests/tools/test_compare_mc.py

or through CTest, which registers it when a Python3 interpreter is
found at configure time.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 os.pardir, os.pardir, "tools"))

import compare_mc  # noqa: E402


def cell(**overrides):
    """One scenario's bench_mc cell with sane defaults."""
    values = {key: 7 for key in compare_mc.COUNTERS}
    values.update(truncated=False, allocations=10_000, wall_ms=25.0,
                  executions_per_sec=4000.0)
    values.update(overrides)
    return values


def report(scenarios, depth=10, wall_ms=100.0):
    return {"depth": depth, "scenarios": scenarios,
            "totals": {"wall_ms": wall_ms}}


class CounterGateTest(unittest.TestCase):
    def test_identical_counters_pass(self):
        base = report({"quickstart": cell()})
        self.assertEqual(compare_mc.check_counters(base, base), [])

    def test_wall_time_is_not_a_counter(self):
        base = report({"quickstart": cell(wall_ms=25.0)})
        cur = report({"quickstart": cell(wall_ms=90.0)})
        self.assertEqual(compare_mc.check_counters(base, cur), [])

    def test_every_counter_is_gated(self):
        for key in compare_mc.COUNTERS:
            base = report({"quickstart": cell()})
            cur = report({"quickstart": cell(**{key: 8})})
            errors = compare_mc.check_counters(base, cur)
            self.assertEqual(len(errors), 1, key)
            self.assertIn(f"quickstart: {key} moved", errors[0])
            self.assertIn("-> 8", errors[0])

    def test_missing_scenario_is_an_error(self):
        base = report({"quickstart": cell(), "gone": cell()})
        cur = report({"quickstart": cell()})
        errors = compare_mc.check_counters(base, cur)
        self.assertEqual(errors, ["scenario gone missing from run"])

    def test_depth_mismatch_is_an_error(self):
        errors = compare_mc.check_counters(
            report({"quickstart": cell()}, depth=10),
            report({"quickstart": cell()}, depth=12))
        self.assertEqual(len(errors), 1)
        self.assertIn("depth 12", errors[0])


class AllocationGateTest(unittest.TestCase):
    def check(self, base_cell, cur_cell):
        return compare_mc.check_allocations(
            report({"quickstart": base_cell}),
            report({"quickstart": cur_cell}), compare_mc.ALLOC_THRESHOLD)

    def test_growth_within_two_percent_passes(self):
        self.assertEqual(self.check(cell(), cell(allocations=10_200)), [])

    def test_growth_beyond_two_percent_fails(self):
        errors = self.check(cell(), cell(allocations=10_201))
        self.assertEqual(len(errors), 1)
        self.assertIn("quickstart: allocations grew 10000 -> 10201",
                      errors[0])

    def test_fewer_allocations_pass(self):
        self.assertEqual(self.check(cell(), cell(allocations=5_000)), [])

    def test_allocations_are_not_an_exact_counter(self):
        self.assertNotIn("allocations", compare_mc.COUNTERS)
        base = report({"quickstart": cell()})
        cur = report({"quickstart": cell(allocations=10_100)})
        self.assertEqual(compare_mc.check_counters(base, cur), [])

    def test_missing_count_in_run_fails(self):
        cur = cell()
        del cur["allocations"]
        errors = self.check(cell(), cur)
        self.assertEqual(
            errors, ["scenario quickstart: allocations missing from run"])

    def test_baseline_without_counts_carries_no_gate(self):
        base = cell()
        del base["allocations"]
        self.assertEqual(self.check(base, cell(allocations=99_999)), [])


class WallAdvisoryTest(unittest.TestCase):
    def test_wall_within_threshold_is_silent(self):
        self.assertEqual(compare_mc.check_wall(
            report({}, wall_ms=100.0), report({}, wall_ms=120.0), 0.20), [])

    def test_wall_beyond_threshold_warns(self):
        warnings = compare_mc.check_wall(
            report({}, wall_ms=100.0), report({}, wall_ms=121.0), 0.20)
        self.assertEqual(len(warnings), 1)
        self.assertIn("advisory", warnings[0])

    def test_zero_baseline_wall_carries_no_signal(self):
        self.assertEqual(compare_mc.check_wall(
            report({}, wall_ms=0.0), report({}, wall_ms=10.0), 0.20), [])


class MainTest(unittest.TestCase):
    def run_main(self, baseline, current):
        """Write both reports to a tempdir and run main(); returns
        (exit_code, stdout_text)."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "current.json")
            if baseline is not None:
                with open(base_path, "w") as handle:
                    json.dump(baseline, handle)
            with open(cur_path, "w") as handle:
                json.dump(current, handle)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = compare_mc.main(
                    ["compare_mc.py", base_path, cur_path])
            return code, stdout.getvalue()

    def test_clean_run_exits_zero(self):
        code, out = self.run_main(report({"quickstart": cell()}),
                                  report({"quickstart": cell()}))
        self.assertEqual(code, 0)
        self.assertIn("match the baseline", out)

    def test_counter_drift_exits_one(self):
        code, out = self.run_main(report({"quickstart": cell()}),
                                  report({"quickstart": cell(executions=9)}))
        self.assertEqual(code, 1)
        self.assertIn("::error::", out)

    def test_allocation_growth_exits_one(self):
        code, out = self.run_main(
            report({"quickstart": cell()}),
            report({"quickstart": cell(allocations=11_000)}))
        self.assertEqual(code, 1)
        self.assertIn("::error::bench_mc scenario quickstart: allocations",
                      out)

    def test_slow_run_only_warns(self):
        code, out = self.run_main(
            report({"quickstart": cell()}, wall_ms=100.0),
            report({"quickstart": cell()}, wall_ms=500.0))
        self.assertEqual(code, 0)
        self.assertIn("::warning::", out)

    def test_missing_baseline_fails(self):
        code, out = self.run_main(None, report({"quickstart": cell()}))
        self.assertEqual(code, 1)
        self.assertIn("::error::", out)

    def test_too_few_arguments_prints_usage(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = compare_mc.main(["compare_mc.py"])
        self.assertEqual(code, 2)
        self.assertIn("Usage", stdout.getvalue())


if __name__ == "__main__":
    unittest.main()
