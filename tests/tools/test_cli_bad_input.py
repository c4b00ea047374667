#!/usr/bin/env python3
"""Malformed command-line and file input to the C++ tools.

Every case must fail cleanly: exit code 2 (usage / input error), a
message on stderr that names the bad flag or input, and no death on a
signal. The shell is the exception: a bad command argument is a command
error, so the session goes on, prints an `error:` line on stdout and
exits 1. The examples share their flag parsing (examples/observability.h),
so quickstart stands for all five; bench_fig7 likewise stands for the
benches that parse `--jobs` with bench/parallel_runner.h. Runs with the
standard library only; CTest passes the built binaries' paths:

  python3 tests/tools/test_cli_bad_input.py RCHDROID_MC RCHDROID_PROFILE \
      RCHDROID_SHELL RCHDROID_SA QUICKSTART BENCH_FIG7 BENCH_SIMCORE \
      BENCH_TABLE2
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

RCHDROID_MC = None
RCHDROID_PROFILE = None
RCHDROID_SHELL = None
RCHDROID_SA = None
QUICKSTART = None
BENCH_FIG7 = None
BENCH_SIMCORE = None
BENCH_TABLE2 = None
QUICKSTART_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "observability_golden",
                                "quickstart.trace.json")


def strings_in(value):
    """Every string in a parsed JSON document, object keys included."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, list):
        items = value
    else:
        return set()
    return set().union(*map(strings_in, items))


class CliCase(unittest.TestCase):
    def run_checked(self, argv, expected_code, stdin=None, env=None):
        """Run argv; it must exit `expected_code`, not die on a signal."""
        proc = subprocess.run(argv, capture_output=True, text=True,
                              input=stdin, env=env, timeout=120)
        self.assertGreaterEqual(
            proc.returncode, 0,
            f"{argv} died on signal {-proc.returncode}")
        self.assertEqual(proc.returncode, expected_code,
                         f"{argv}: stdout={proc.stdout!r} "
                         f"stderr={proc.stderr!r}")
        return proc

    def assert_rejected(self, argv, message, env=None):
        """Run argv; it must exit 2 with `message` on stderr."""
        self.assertIn(message, self.run_checked(argv, 2, env=env).stderr)


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

    def test_oracles_must_be_known(self):
        # Used to die on SIGABRT from an uncaught std::invalid_argument.
        self.reject("--oracles=crash,bogus",
                    '--oracles: unknown oracle "bogus" (known: crash, '
                    'analysis, gc_live_async, saved_restore)')

    def test_removed_no_snapshot_flag(self):
        self.reject("--no-snapshot", "unknown flag: --no-snapshot")

    def test_oracles_list_must_not_be_empty(self):
        # Used to run all four oracles.
        self.reject("--oracles=", "--oracles: empty list (known: crash, ")

    def test_trace_out_needs_replay(self):
        # Used to explore, exit and write no file.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            self.reject(f"--trace-out={path}", "--trace-out needs --replay")
            self.assertFalse(os.path.exists(path))

    def test_trace_out_needs_a_file_name(self):
        # Used to replay, exit 0 and write nothing.
        self.assert_rejected(
            [RCHDROID_MC, "--app=seeded_gc", "--replay=0", "--trace-out="],
            "--trace-out needs a file name")

    def test_jobs_environment_variable_is_strict(self):
        # RCHDROID_JOBS sets the explorer's worker count; a malformed
        # value used to be ignored. No huge valid count is tried: it
        # would start that many threads.
        for value in ("zz", "-2", "0", ""):
            self.assert_rejected(
                [RCHDROID_MC, "--app=seeded_gc"],
                f'RCHDROID_JOBS: expected an integer in [1, 2147483647], '
                f'got "{value}"',
                env=dict(os.environ, RCHDROID_JOBS=value))


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

    def test_control_characters_in_span_names_stay_escaped(self):
        # --json used to copy "\n" and "\u0001" in a label out raw,
        # which no JSON parser accepts. The input is quickstart's pinned
        # trace, so the case runs in builds without tracing too.
        with open(QUICKSTART_TRACE) as handle:
            trace = handle.read()
        needle = '"name":"app.performLaunch"'
        self.assertIn(needle, trace)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as handle:
                handle.write(trace.replace(
                    needle, '"name":"app.performLaunch\\n\\u0001"'))
            proc = self.run_checked([RCHDROID_PROFILE, path, "--json"], 0)
            labels = strings_in(json.loads(proc.stdout))
            self.assertIn("app.performLaunch\n\u0001@com.example.notes.main",
                          labels)


class RchdroidShellTest(CliCase):
    def reject(self, command, message, effect,
               setup="install benchmark 4\nlaunch\n"):
        """After `setup`, `command` must fail with `message` and not do
        `effect`."""
        script = f"{setup}{command}\nquit\n"
        proc = self.run_checked([RCHDROID_SHELL], 1, stdin=script)
        _, _, output = proc.stdout.partition("launched ")
        errors = [line for line in output.splitlines()
                  if line.startswith("error: ")]
        self.assertEqual(len(errors), 1, output)
        self.assertIn(message, errors[0])
        self.assertNotIn(effect, output)

    def test_wm_size_is_strict(self):
        # Both used to resize: to 0x0 and to -100x50.
        self.reject("wm size abc def",
                    'wm size width: expected an integer in [1, 16384], '
                    'got "abc"', "resized")
        self.reject("wm size -100 50", 'got "-100"', "resized")
        self.reject("wm size 1080", 'wm size height: expected an integer',
                    "resized")

    def test_wait_is_strict(self):
        self.reject("wait -5", 'wait: expected an integer in [0, 86400000], '
                    'got "-5"', "now ")
        self.reject("wait", 'wait: expected an integer', "now ")

    def test_benchmark_view_count_is_strict(self):
        # "x4" used to install Benchmark0.
        self.reject("install benchmark x4",
                    'install benchmark: expected an integer in [0, 4096], '
                    'got "x4"', "installed")
        self.reject("install benchmark 5000", 'got "5000"', "installed")
        self.reject("install benchmark", 'install benchmark: expected',
                    "installed")

    def test_locale_needs_a_tag(self):
        # Used to switch to an empty locale.
        self.reject("locale", "locale: missing <tag>", "handling")

    def test_launch_needs_an_app_that_is_not_running(self):
        # Both used to die on SIGABRT: "launch of ... did not complete".
        self.reject("launch", "launch: Benchmark4 is already running",
                    "launched")
        self.reject("launch", "launch: Benchmark4 has crashed", "launched",
                    setup="mode android10\ninstall benchmark 4\nlaunch\n"
                          "click\nrotate\nwait 6000\n")


class RchdroidSaTest(CliCase):
    def test_unknown_flag(self):
        self.assert_rejected([RCHDROID_SA, "--frobnicate"],
                             "unknown flag: --frobnicate")

    def test_flag_without_value(self):
        self.assert_rejected([RCHDROID_SA, "--app"], "--app needs a value")
        self.assert_rejected([RCHDROID_SA, "--out"], "--out needs a value")

    def test_unknown_app(self):
        self.assert_rejected([RCHDROID_SA, "--app", "nosuch"],
                             "unknown app 'nosuch'")


class ExampleTest(CliCase):
    def test_unknown_flag(self):
        # Each used to run the whole example and exit 0.
        self.assert_rejected([QUICKSTART, "--bogus"], "unknown flag: --bogus")
        self.assert_rejected([QUICKSTART, "--check", "--bogus"],
                             "unknown flag: --bogus")
        self.assert_rejected([QUICKSTART, "stray"], "unknown flag: stray")

    def test_empty_file_name(self):
        self.assert_rejected([QUICKSTART, "--trace-out="],
                             "--trace-out needs a file name")
        self.assert_rejected([QUICKSTART, "--metrics-json="],
                             "--metrics-json needs a file name")

    def test_flag_value_needs_an_equals_sign(self):
        # Used to exit 0 without writing the trace.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            self.assert_rejected([QUICKSTART, "--trace-out", path],
                                 "unknown flag: --trace-out")
            self.assertFalse(os.path.exists(path))


class BenchTest(CliCase):
    # Every case used to run the whole bench with the default job count
    # (bench_table2 ignored its arguments) and exit 0. Only non-numeric,
    # negative, zero and missing counts are tried: a valid huge count
    # would start one thread per cell.
    def test_jobs_is_strict(self):
        for bench in (BENCH_FIG7, BENCH_SIMCORE):
            self.assert_rejected([bench, "--jobs=abc"],
                                 '--jobs: expected an integer in '
                                 '[1, 2147483647], got "abc"')
        self.assert_rejected([BENCH_FIG7, "--jobs=-4"], 'got "-4"')
        self.assert_rejected([BENCH_FIG7, "--jobs=0"], 'got "0"')
        self.assert_rejected([BENCH_FIG7, "--jobs", "x"], 'got "x"')
        self.assert_rejected([BENCH_FIG7, "--jobs"], 'got ""')

    def test_jobs_environment_variable_is_strict(self):
        for value in ("zz", "0"):
            self.assert_rejected(
                [BENCH_FIG7], f'RCHDROID_JOBS: expected an integer in '
                f'[1, 2147483647], got "{value}"',
                env=dict(os.environ, RCHDROID_JOBS=value))

    def test_unknown_flag(self):
        self.assert_rejected([BENCH_FIG7, "--bogus"],
                             "unknown flag: --bogus\n"
                             "usage: bench_fig7 [--jobs=N]")
        self.assert_rejected([BENCH_FIG7, "--jobs=2", "stray"],
                             "unknown flag: stray")
        self.assert_rejected([BENCH_SIMCORE, "--bogus"],
                             "usage: bench_simcore [--jobs=N] [--out=PATH]")
        self.assert_rejected([BENCH_TABLE2, "--jobs=2"],
                             "unknown flag: --jobs=2\nusage: bench_table2\n")


if __name__ == "__main__":
    if len(sys.argv) < 9:
        sys.exit(__doc__)
    (RCHDROID_MC, RCHDROID_PROFILE, RCHDROID_SHELL, RCHDROID_SA, QUICKSTART,
     BENCH_FIG7, BENCH_SIMCORE, BENCH_TABLE2) = sys.argv[1:9]
    unittest.main(argv=[sys.argv[0]] + sys.argv[9:])
