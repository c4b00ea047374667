#!/usr/bin/env python3
"""Seeded malformed-input property tests for the two tools whose input
arrives from outside the program: rchdroid_shell scripts and
rchdroid_mc --replay lists.

Every case is generated from a fixed seed, and a failing case names its
seed and its input, so it reproduces exactly.

  rchdroid_shell: a mutated copy of the demo script (lines deleted,
  duplicated or inserted; a bit flipped; the script truncated; bad
  arguments and unknown commands spliced in) exits 0 or 1, never on a
  signal and never with a panic. It exits 1 exactly when it printed an
  `error:` line, and each spliced-in bad command prints one.

  rchdroid_mc --replay: a list over a catalogue scenario at small depth
  exits 0 or 1 when every entry is an integer in [0, 2147483647], and
  exits 2 with a message naming --replay otherwise; nothing dies on a
  signal.

Runs with the standard library only; CTest passes the binaries and the
demo script:

  python3 tests/tools/test_tool_input_properties.py RCHDROID_SHELL \
      RCHDROID_MC DEMO_SCRIPT
"""

import os
import random
import subprocess
import sys
import tempfile
import unittest

RCHDROID_SHELL = None
RCHDROID_MC = None
DEMO_SCRIPT = None

SHELL_SEEDS = range(1, 61)
REPLAY_SEEDS = range(1, 61)

#: Lines the shell accepts on their own; some are still rejected in
#: context (`launch` twice, anything before `install`).
WELL_FORMED_LINES = [
    b"launch", b"apply-state", b"verify-state", b"click", b"rotate",
    b"wm size 1080 1920", b"wm size reset", b"locale fr-FR", b"wait 500",
    b"handling", b"heap", b"stats", b"dumpsys", b"mode android10",
    b"mode rchdroid", b"install benchmark 2", b"install tp37 3",
    b"install top100 5", b"# a comment", b"",
]

#: Commands whose last argument is checked, with the bad values spliced
#: in after them.
ARGUMENT_COMMANDS = [b"wait", b"install benchmark", b"wm size",
                     b"wm size 1080", b"mode"]
BAD_ARGUMENTS = [b"", b"-5", b"abc", b"99999999999999999999", b"4x",
                 b"0x10"]

#: Lines the shell rejects in every state, one `error:` line each.
UNKNOWN_COMMANDS = [b"frobnicate", b"launchx", b"ROTATE", b"locale",
                    b"wm resize 1 2", b"install nosuch 1"]

SCENARIOS = ["quickstart", "login_form", "photo_gallery", "mail_navigation",
             "gc_tuning", "seeded_gc", "reduction_demo"]
VALID_ENTRIES = ["0", "1", "2", "3", "7", "007", "2147483647"]
INVALID_ENTRIES = ["", "x", "1x", "-1", "+1", " 1", "1.5", "0x1",
                   "2147483648", "99999999999999999999"]


def mutate_lines(rng, lines):
    """One structural mutation of the script's lines, in place."""
    kind = rng.randrange(5)
    at = rng.randrange(len(lines) + 1)
    if kind == 0 and lines:
        del lines[min(at, len(lines) - 1)]
    elif kind == 1 and lines:
        line = lines[min(at, len(lines) - 1)]
        lines.insert(at, line)
    elif kind == 2:
        lines.insert(at, rng.choice(WELL_FORMED_LINES))
    elif kind == 3:
        text = b"\n".join(lines)
        if text:
            pos = rng.randrange(len(text))
            flipped = bytes([text[pos] ^ (1 << rng.randrange(8))])
            lines[:] = (text[:pos] + flipped + text[pos + 1:]).split(b"\n")
    else:
        text = b"\n".join(lines)
        lines[:] = text[:rng.randrange(len(text) + 1)].split(b"\n")


def bad_line(rng):
    """A line every shell state rejects with exactly one `error:` line."""
    if rng.randrange(2):
        return rng.choice(UNKNOWN_COMMANDS)
    return rng.choice(ARGUMENT_COMMANDS) + b" " + rng.choice(BAD_ARGUMENTS)


def shell_case(seed, demo):
    """(script bytes, number of spliced-in bad lines the shell runs)."""
    rng = random.Random(seed)
    lines = demo.split(b"\n")
    for _ in range(rng.randrange(4)):
        mutate_lines(rng, lines)
    # Bad lines go in last and before the first `quit`, so each of them
    # is read and none is mutated afterwards.
    end = lines.index(b"quit") if b"quit" in lines else len(lines)
    spliced = rng.randrange(3)
    for _ in range(spliced):
        lines.insert(rng.randrange(end + 1), bad_line(rng))
        end += 1
    return b"\n".join(lines) + b"\n", spliced


def replay_case(seed):
    """(argv tail, whether every entry of the list is valid)."""
    rng = random.Random(seed)
    entries = [rng.choice(VALID_ENTRIES) for _ in range(rng.randint(1, 6))]
    valid = rng.randrange(3) != 0
    if not valid:
        for _ in range(rng.randint(1, 2)):
            entries[rng.randrange(len(entries))] = rng.choice(INVALID_ENTRIES)
    return [f"--app={rng.choice(SCENARIOS)}",
            f"--depth={rng.randint(1, 5)}",
            "--replay=" + ",".join(entries)], valid


class ShellScriptProperty(unittest.TestCase):
    def test_mutated_demo_scripts_fail_cleanly(self):
        with open(DEMO_SCRIPT, "rb") as handle:
            demo = handle.read().rstrip(b"\n")
        with tempfile.TemporaryDirectory() as cwd:
            for seed in SHELL_SEEDS:
                script, spliced = shell_case(seed, demo)
                with self.subTest(seed=seed, script=script):
                    proc = subprocess.run([RCHDROID_SHELL], input=script,
                                          capture_output=True, cwd=cwd,
                                          timeout=120)
                    stdout = proc.stdout.decode(errors="replace")
                    stderr = proc.stderr.decode(errors="replace")
                    self.assertGreaterEqual(
                        proc.returncode, 0,
                        f"died on signal {-proc.returncode}: {stderr}")
                    self.assertNotIn("panic", stderr)
                    errors = [line for line in stdout.splitlines()
                              if line.startswith("error: ")]
                    self.assertEqual(proc.returncode, 1 if errors else 0,
                                     stdout)
                    self.assertGreaterEqual(len(errors), spliced, stdout)


class ReplayListProperty(unittest.TestCase):
    def test_seeded_replay_lists(self):
        for seed in REPLAY_SEEDS:
            args, valid = replay_case(seed)
            with self.subTest(seed=seed, args=args):
                proc = subprocess.run([RCHDROID_MC, *args],
                                      capture_output=True, text=True,
                                      timeout=120)
                self.assertGreaterEqual(
                    proc.returncode, 0,
                    f"died on signal {-proc.returncode}: {proc.stderr}")
                if valid:
                    self.assertIn(proc.returncode, (0, 1), proc.stderr)
                    self.assertTrue(proc.stdout.startswith("replay "),
                                    proc.stdout)
                else:
                    self.assertEqual(proc.returncode, 2, proc.stdout)
                    self.assertIn("--replay", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    RCHDROID_SHELL, RCHDROID_MC, DEMO_SCRIPT = map(os.path.abspath,
                                                  sys.argv[1:4])
    unittest.main(argv=[sys.argv[0]] + sys.argv[4:])
