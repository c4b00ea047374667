#!/usr/bin/env python3
"""Malformed command-line and file input to the C++ tools.

Every case must fail cleanly: exit code 2 (usage / input error), a
message on stderr that names the bad flag or input, and no death on a
signal. Runs with the standard library only; CTest passes the built
binaries' paths:

  python3 tests/tools/test_cli_bad_input.py RCHDROID_MC RCHDROID_PROFILE
"""

import os
import subprocess
import sys
import tempfile
import unittest

RCHDROID_MC = None
RCHDROID_PROFILE = None


class CliCase(unittest.TestCase):
    def assert_rejected(self, argv, message):
        """Run argv; it must exit 2 with `message` on stderr."""
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120)
        self.assertGreaterEqual(
            proc.returncode, 0,
            f"{argv} died on signal {-proc.returncode}")
        self.assertEqual(proc.returncode, 2,
                         f"{argv}: stdout={proc.stdout!r} "
                         f"stderr={proc.stderr!r}")
        self.assertIn(message, proc.stderr)


class RchdroidMcTest(CliCase):
    def reject(self, flag, message):
        self.assert_rejected([RCHDROID_MC, "--app=seeded_gc", flag],
                             message)

    def test_replay_entries_are_strict(self):
        # Used to run schedule 1,0,276447231 without a word.
        self.reject("--replay=1,x,99999999999999",
                    '--replay: expected an integer in [0, 2147483647], '
                    'got "x"')
        self.reject("--replay=1,0,99999999999999",
                    'got "99999999999999"')

    def test_max_states_is_strict(self):
        # "abc" used to become 0: one execution, then a clean exit 0.
        self.reject("--max-states=abc", '--max-states: expected an integer')
        self.reject("--max-states=-1", 'got "-1"')

    def test_depth_is_strict(self):
        self.reject("--depth=0", '--depth: expected an integer in [1, ')
        self.reject("--depth=abc", 'got "abc"')

    def test_unknown_flag(self):
        self.reject("--frobnicate", "unknown flag: --frobnicate")

    def test_removed_no_snapshot_flag(self):
        self.reject("--no-snapshot", "unknown flag: --no-snapshot")


class RchdroidProfileTest(CliCase):
    def test_deeply_nested_trace_is_a_parse_error(self):
        # Used to recurse once per '[' and die with SIGSEGV.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "deep.json")
            with open(path, "w") as handle:
                handle.write("[" * 200_000)
            self.assert_rejected(
                [RCHDROID_PROFILE, path],
                "nesting deeper than 64 at offset 64")

    def test_missing_trace_file(self):
        self.assert_rejected([RCHDROID_PROFILE, "/nonexistent/trace.json"],
                             "cannot open")

    def test_top_is_strict(self):
        self.assert_rejected([RCHDROID_PROFILE, "trace.json", "--top=3x"],
                             '--top: expected an integer')


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    RCHDROID_MC, RCHDROID_PROFILE = sys.argv[1], sys.argv[2]
    unittest.main(argv=[sys.argv[0]] + sys.argv[3:])
