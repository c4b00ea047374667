#!/usr/bin/env python3
"""The benchmark's own tests, at reduced size (about a minute in total).

Run from the root of the checkout:

    python3 e2ebench/test_e2ebench.py

They build the benchmark through run.py, then drive the binary directly:
determinism of the counters and digest for one seed, different inputs for
different seeds, planted wrong expectations and digests turning into a
non-zero exit, strict flag parsing, and metric names that match
BENCHMARK.json.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build helper next to this file)

SIM_SMALL = ["--apps", "4"]
MC_SMALL = ["--scenarios", "3"]


def bench(*args):
    """Run the binary; returns (exit code, stdout, stderr)."""
    done = subprocess.run([run.BINARY] + list(args), capture_output=True,
                          text=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def result(stdout):
    """The JSON result line and the digest line of one run."""
    lines = stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest


def metric(data, name):
    return data["metrics"][name]["value"]


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_sim_counters(self):
        runs = []
        for _ in range(2):
            code, out, err = bench("--workload", "sim_rchdroid", "--seed", "7",
                                   "--seconds", "1", "--trace", "1",
                                   *SIM_SMALL)
            self.assertEqual(code, 0, out + err)
            runs.append(result(out))
        (first, digest_a), (second, digest_b) = runs
        self.assertEqual(digest_a, digest_b)
        code, out, err = bench("--workload", "sim_rchdroid", "--seed", "7",
                               "--seconds", "1", "--trace", "0", *SIM_SMALL)
        self.assertEqual(code, 0, out + err)
        self.assertEqual(result(out)[1], digest_a, "traced vs untraced")
        for name in ("os.events", "sim.episodes", "ams.coin_flips",
                     "rch.flip_ratio_base"):
            self.assertEqual(metric(first, name), metric(second, name), name)
        self.assertGreater(metric(first, "sim.episodes"), 0)

    def test_same_seed_repeats_mc_counters(self):
        runs = []
        for _ in range(2):
            code, out, err = bench("--workload", "mc_explore", "--seed", "7",
                                   "--seconds", "1", "--trace", "1",
                                   *MC_SMALL)
            self.assertEqual(code, 0, out + err)
            runs.append(result(out))
        (first, digest_a), (second, digest_b) = runs
        self.assertEqual(digest_a, digest_b)
        for name in ("mc.executions", "mc.schedules_covered",
                     "mc.scenarios"):
            self.assertEqual(metric(first, name), metric(second, name), name)
        self.assertEqual(metric(first, "mc.scenarios"), 7 + 3)

    def test_different_seeds_make_different_inputs(self):
        digests = set()
        for seed in ("1", "2"):
            code, out, err = bench("--workload", "sim_stock", "--seed", seed,
                                   "--seconds", "1", *SIM_SMALL)
            self.assertEqual(code, 0, out + err)
            digests.add(result(out)[1])
        self.assertEqual(len(digests), 2, "sim scripts ignore the seed")
        digests = set()
        for seed in ("1", "2"):
            code, out, err = bench("--workload", "mc_explore", "--seed", seed,
                                   "--seconds", "1", *MC_SMALL)
            self.assertEqual(code, 0, out + err)
            digests.add(result(out)[1])
        self.assertEqual(len(digests), 2, "mc sample ignores the seed")


class PlantedFailures(unittest.TestCase):
    def test_wrong_clean_expectation_fails_sim(self):
        # The §5.1 benchmark apps crash under stock handling; expecting
        # them clean must count failures and exit non-zero.
        code, out, _ = bench("--workload", "sim_stock", "--seconds", "1",
                             "--plant-wrong-expectation", *SIM_SMALL)
        self.assertEqual(code, 1)
        data, _ = result(out)
        self.assertFalse(data["correct"])
        self.assertGreater(data["failed"], 0)

    def test_wrong_clean_expectation_fails_mc(self):
        # seeded_gc's planted GC bug is then an unexpected violation.
        code, out, _ = bench("--workload", "mc_explore", "--seconds", "1",
                             "--scenarios", "0", "--plant-wrong-expectation")
        self.assertEqual(code, 1)
        self.assertIn("seeded_gc", out)
        self.assertGreater(result(out)[0]["failed"], 0)

    def test_wrong_digest_fails(self):
        code, out, _ = bench("--workload", "sim_stock", "--seconds", "1",
                             "--expect-digest", "0x1", *SIM_SMALL)
        self.assertEqual(code, 1)
        self.assertIn("MISMATCH", out)
        self.assertFalse(result(out)[0]["correct"])


class Flags(unittest.TestCase):
    BAD = [
        (["--seed", "12x"], "--seed: '12x' is not an unsigned integer"),
        (["--seed", "-1"], "--seed: '-1' is not an unsigned integer"),
        (["--seed", "99999999999999999999"], "not an unsigned integer"),
        (["--seconds", "0"], "--seconds: 0 is outside [1, 600]"),
        (["--trace", "2"], "--trace: '2' is not 0 or 1"),
        (["--trace"], "--trace: missing value"),
        (["--workload", "nope"], "unknown workload 'nope'"),
        (["--frobnicate", "1"], "unknown flag '--frobnicate'"),
        (["--seed", "1", "--seed", "2"], "--seed: given twice"),
        (["--expect-digest", "0xzz"], "not an unsigned hex integer"),
    ]

    def test_malformed_flags_exit_2_with_message(self):
        for extra, message in self.BAD:
            args = extra if "--workload" in extra else \
                ["--workload", "sim_stock"] + extra
            code, out, err = bench(*args)
            self.assertEqual(code, 2, args)
            self.assertIn(message, err, args)
            self.assertEqual(out, "", args)

    def test_workload_is_required(self):
        code, _, err = bench("--seed", "1")
        self.assertEqual(code, 2)
        self.assertIn("--workload is required", err)


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["sim_stock", "sim_rchdroid", "mc_explore"])
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out, err = bench("--workload", "sim_stock", "--seconds",
                                   "1", "--trace", trace, *SIM_SMALL)
            self.assertEqual(code, 0, out + err)
            printed = {name: value["unit"]
                       for name, value in result(out)[0]["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(printed, declared, key)

    def test_config_is_recorded(self):
        code, out, _ = bench("--workload", "sim_stock", "--seconds", "1",
                             *SIM_SMALL)
        self.assertEqual(code, 0)
        self.assertRegex(out, re.compile(
            r"build_type=\S+ RCHDROID_TRACING=[01] nproc=\d+ jobs=1"))


if __name__ == "__main__":
    if not run.build():
        sys.exit(1)
    unittest.main()
