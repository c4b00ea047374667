#!/usr/bin/env python3
"""Unit tests for tools/lint_rules.py.

Each test builds a miniature repository tree in a tempdir and runs
main([root, "--json"]) over it, so the rules are exercised end to end —
table parsing, tree walk, violation records — without touching the real
repo. The real repo is checked too (it must be clean, or the lint_rules
CTest entry would already be failing).

Runs with the standard library only (unittest, no pytest): invoke as

  python3 tests/tools/test_lint_rules.py

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

import lint_rules  # noqa: E402

TELEMETRY_CC = """\
const char *kSeed[] = {
    "",
    "atms.configChange",
    "rch.snapshot",
};
"""

CHECKERS_CC = """\
const std::vector<CheckerInfo> kCheckers = {
    {"data_loss", "may-lose verdicts", checkDataLoss},
    {"stale_reference", "crash prediction", checkStaleReference},
};
"""


class FakeRepo:
    """Minimal tree the rules can parse: seed table + checker registry."""

    def __init__(self, root):
        self.root = root
        self.write("src/platform/telemetry.cc", TELEMETRY_CC)
        self.write("src/sa/checkers.cc", CHECKERS_CC)
        self.write("tests/sa/checker_data_loss_test.cc", "// TP/TN\n")
        self.write("tests/sa/checker_stale_reference_test.cc", "// TP/TN\n")

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)

    def lint(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = lint_rules.main([self.root, "--json"])
        return code, json.loads(stdout.getvalue())


class LintRulesTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.repo = FakeRepo(self._tmp.name)

    def rules(self, errors):
        return [e["rule"] for e in errors]

    def test_clean_tree_passes(self):
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)
        self.assertEqual(errors, [])

    def test_json_records_carry_file_line_rule_message(self):
        self.repo.write("src/rch/bad.cc",
                        'void f() { emit("atms.configChange"); }\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertEqual(len(errors), 1)
        record = errors[0]
        self.assertEqual(sorted(record),
                         ["file", "line", "message", "rule"])
        self.assertEqual(record["rule"], "interned-kinds")
        self.assertEqual(record["file"], os.path.join("src", "rch",
                                                      "bad.cc"))
        self.assertEqual(record["line"], 1)

    def test_raw_kind_in_comment_is_exempt(self):
        self.repo.write("src/rch/doc.cc",
                        '// emits "atms.configChange" downstream\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)

    def test_analysis_seam_rule_fires_on_framework_include(self):
        self.repo.write("src/ams/bad.cc",
                        '#include "analysis/analyzer.h"\n')
        code, errors = self.repo.lint()
        self.assertIn("analysis-seam", self.rules(errors))

    def test_sa_seam_rule_blocks_simulator_includes(self):
        self.repo.write("src/sa/bad.cc",
                        '#include "sim/simulator.h"\n'
                        '#include "os/activity.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertEqual(self.rules(errors), ["sa-seam", "sa-seam"])

    def test_sa_seam_rule_allows_spec_and_platform_headers(self):
        self.repo.write("src/sa/good.cc",
                        '#include "sa/model_ir.h"\n'
                        '#include "platform/logging.h"\n'
                        '#include "apps/app_spec.h"\n'
                        '#include "apps/corpus.h"\n'
                        '#include "apps/spec_traits.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)

    def test_sa_seam_rule_blocks_other_apps_headers(self):
        # Only the three declarative headers are allowed, not all of
        # apps/ — e.g. a hypothetical apps/runner.h stays out of reach.
        self.repo.write("src/sa/bad.cc",
                        '#include "apps/runner.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(self.rules(errors), ["sa-seam"])

    def test_profiling_seam_rule_blocks_simulator_includes(self):
        self.repo.write("src/profiling/bad.cc",
                        '#include "os/looper.h"\n'
                        '#include "sim/dumpsys.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertEqual(self.rules(errors),
                         ["profiling-seam", "profiling-seam"])

    def test_profiling_seam_rule_allows_own_and_platform_headers(self):
        self.repo.write("src/profiling/good.cc",
                        '#include "profiling/critical_path.h"\n'
                        '#include "platform/tracing.h"\n'
                        '#include "platform/time.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)

    def test_profiling_seam_rule_blocks_app_and_apps_headers(self):
        # apps/ spec headers are an sa/ privilege, not a profiling one:
        # the profiler's whole world is the trace.
        self.repo.write("src/profiling/bad.h",
                        '#include "apps/app_spec.h"\n'
                        '#include "app/activity.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(self.rules(errors),
                         ["profiling-seam", "profiling-seam"])

    def test_profiling_seam_include_in_comment_is_exempt(self):
        self.repo.write("src/profiling/doc.cc",
                        '// #include "sim/dumpsys.h" would be a leak\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)

    def test_mc_seam_rule_blocks_framework_internals(self):
        self.repo.write("src/mc/bad.cc",
                        '#include "app/activity_thread.h"\n'
                        '#include "rch/policy.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertEqual(self.rules(errors), ["mc-seam", "mc-seam"])

    def test_mc_seam_rule_allows_the_bridge_layers(self):
        # mc/ is the sanctioned sa/-to-simulator bridge: both sides of
        # the seam (plus the facade layers) are reachable.
        self.repo.write("src/mc/good.cc",
                        '#include "mc/explorer.h"\n'
                        '#include "sa/mhp.h"\n'
                        '#include "sim/android_system.h"\n'
                        '#include "os/looper.h"\n'
                        '#include "analysis/analyzer.h"\n'
                        '#include "apps/app_spec.h"\n'
                        '#include "platform/time.h"\n'
                        '#include "view/view_group.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)

    def test_mc_seam_include_in_comment_is_exempt(self):
        self.repo.write("src/mc/doc.cc",
                        '// #include "app/activity.h" would be a leak\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 0)

    def test_checker_tests_rule_fires_on_missing_test_file(self):
        os.remove(os.path.join(
            self.repo.root, "tests/sa/checker_stale_reference_test.cc"))
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertEqual(self.rules(errors), ["checker-tests"])
        self.assertIn("stale_reference", errors[0]["message"])

    def test_checker_tests_rule_tracks_newly_registered_checkers(self):
        self.repo.write("src/sa/checkers.cc", CHECKERS_CC.replace(
            "};",
            '    {"shiny_new", "freshly added", checkShinyNew},\n};'))
        code, errors = self.repo.lint()
        self.assertEqual(self.rules(errors), ["checker-tests"])
        self.assertIn("checker_shiny_new_test.cc", errors[0]["message"])

    def test_structural_error_does_not_hide_other_violations(self):
        # Regression test: a missing kSeed table used to SystemExit
        # before the walk, hiding every other violation in the tree.
        self.repo.write("src/platform/telemetry.cc", "// table gone\n")
        self.repo.write("src/sa/bad.cc", '#include "sim/simulator.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertIn("structure", self.rules(errors))
        self.assertIn("sa-seam", self.rules(errors))

    def test_missing_checker_registry_is_structural_and_nonfatal(self):
        os.remove(os.path.join(self.repo.root, "src/sa/checkers.cc"))
        self.repo.write("src/ams/bad.cc",
                        '#include "analysis/analyzer.h"\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertIn("structure", self.rules(errors))
        self.assertIn("analysis-seam", self.rules(errors))

    def test_empty_seed_table_is_structural(self):
        self.repo.write("src/platform/telemetry.cc",
                        'const char *kSeed[] = {\n};\n')
        code, errors = self.repo.lint()
        self.assertEqual(code, 1)
        self.assertIn("structure", self.rules(errors))

    def test_human_readable_output_without_json_flag(self):
        self.repo.write("src/sa/bad.cc", '#include "sim/simulator.h"\n')
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = lint_rules.main([self.repo.root])
        self.assertEqual(code, 1)
        self.assertIn("[sa-seam]", stderr.getvalue())
        self.assertIn("FAIL", stderr.getvalue())


if __name__ == "__main__":
    unittest.main()
