#!/usr/bin/env python3
"""The observability outputs, byte for byte.

Runs two programs and compares what they write with the goldens in
tests/tools/observability_golden/:

  - quickstart --trace-out=T --metrics-json=M --dumpsys: the trace
    file, the metrics file and stdout (quickstart.*);
  - rchdroid_shell --trace-out=T over tools/demo_script.txt with
    "metrics-json M" and "dumpsys" added before "quit": the trace
    file, the metrics file and stdout (shell.*).

Only the "... written to <path>" lines of stdout are normalised, since
the files go to a temporary directory. Each program runs twice, once
with no RCHDROID_* variable set and once with RCHDROID_ANALYSIS=1 and
RCHDROID_JOBS=3; both runs must match the same goldens.

  python3 tests/tools/observability_golden.py QUICKSTART SHELL \\
      tools/demo_script.txt tests/tools/observability_golden

To regenerate the goldens after a change that is meant to move these
outputs (say why in the change), run the same command with
RCHDROID_UPDATE_GOLDEN=1 set.
"""

import difflib
import os
import re
import subprocess
import sys
import tempfile
import unittest

QUICKSTART = SHELL = DEMO_SCRIPT = GOLDEN_DIR = None

WRITTEN_TO = re.compile(rb"^(.* written to )(\S+)", re.MULTILINE)

#: Extra environment of each run; every RCHDROID_* variable is unset
#: first, so "{}" is the plain run.
ENVIRONMENTS = [{}, {"RCHDROID_ANALYSIS": "1", "RCHDROID_JOBS": "3"}]


def clean_env(extra):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("RCHDROID_")}
    env.update(extra)
    return env


def normalise(stdout):
    return WRITTEN_TO.sub(rb"\1<path>", stdout)


def run_quickstart(workdir, env):
    trace = os.path.join(workdir, "trace.json")
    metrics = os.path.join(workdir, "metrics.json")
    proc = subprocess.run(
        [QUICKSTART, "--trace-out=" + trace, "--metrics-json=" + metrics,
         "--dumpsys"], capture_output=True, env=env, timeout=600)
    return proc, trace, metrics


def run_shell(workdir, env):
    trace = os.path.join(workdir, "trace.json")
    metrics = os.path.join(workdir, "metrics.json")
    script = os.path.join(workdir, "script.txt")
    with open(DEMO_SCRIPT, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    quit_at = lines.index("quit")
    lines[quit_at:quit_at] = ["metrics-json " + metrics, "dumpsys"]
    with open(script, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    proc = subprocess.run([SHELL, "--trace-out=" + trace, script],
                          capture_output=True, env=env, timeout=600)
    return proc, trace, metrics


class ObservabilityGolden(unittest.TestCase):
    def check(self, name, actual):
        path = os.path.join(GOLDEN_DIR, name)
        if os.environ.get("RCHDROID_UPDATE_GOLDEN") == "1":
            with open(path, "wb") as handle:
                handle.write(actual)
            return
        with open(path, "rb") as handle:
            golden = handle.read()
        if actual != golden:
            diff = difflib.unified_diff(
                golden.decode(errors="replace").splitlines(),
                actual.decode(errors="replace").splitlines(),
                "golden", name, lineterm="")
            self.fail("\n".join(list(diff)[:60]))

    def run_program(self, prefix, runner):
        for extra in ENVIRONMENTS:
            with self.subTest(program=prefix, env=extra), \
                    tempfile.TemporaryDirectory() as workdir:
                proc, trace, metrics = runner(workdir, clean_env(extra))
                self.assertEqual(proc.returncode, 0,
                                 proc.stderr.decode(errors="replace"))
                self.check(prefix + ".stdout.txt", normalise(proc.stdout))
                for suffix, path in ((".trace.json", trace),
                                     (".metrics.json", metrics)):
                    with open(path, "rb") as handle:
                        self.check(prefix + suffix, handle.read())

    def test_quickstart_outputs_match_golden(self):
        self.run_program("quickstart", run_quickstart)

    def test_shell_outputs_match_golden(self):
        self.run_program("shell", run_shell)


if __name__ == "__main__":
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    QUICKSTART, SHELL, DEMO_SCRIPT, GOLDEN_DIR = sys.argv[1:5]
    unittest.main(argv=[sys.argv[0]] + sys.argv[5:])
