#!/usr/bin/env python3
"""Project-specific lint rules the generic toolchain can't express.

Run as ``python3 tools/lint_rules.py [REPO_ROOT] [--json]`` (default
root: the repository containing this script). Exit status is non-zero
when any rule fires; each violation prints as ``file:line: [rule]
message``, or as a JSON array of ``{file, line, rule, message}`` objects
with ``--json`` (for editor/CI integration).

Structural problems (a source-of-truth table the rules parse going
missing) are reported as ``[structure]`` violations and the scan
continues — one broken table must not hide every other violation in the
tree.

Rule 1 — interned-kinds: raw telemetry kind strings (the dotted names
seeded into the intern table, e.g. "atms.configChange") must not appear
in framework source outside platform/telemetry.cc. Everywhere else the
pre-interned ``kinds::`` constants are mandatory: they are 4-byte
handles on the hot emission path, and a typo'd raw string would silently
intern a brand-new kind instead of failing to compile. The expected
strings are parsed out of the kSeed table in platform/telemetry.cc, so
the rule tracks the source of truth automatically. Comments are exempt
(docs may spell the dotted names), and tests/ may use raw names —
exercising the string-edge API is exactly what the telemetry tests are
for.

Rule 2 — analysis-seam: framework layers (os, view, app, ams, rch,
platform, resources, apps, baseline) must not include analysis/ headers
directly; the one sanctioned crossing is the os/analysis_hooks.h seam,
whose Hooks interface (in namespace analysis::, defined by the seam
header itself) is how the framework reports events. sim/ and mc/ are
harness layers that own an Analyzer by design and are exempt. This
keeps the dependency arrow pointing one way: analysis observes the
framework, the framework never grows a compile-time dependency on its
observer.

Rule 3 — sa-seam: the static analyzer (src/sa/) must stay executable-
semantics-free: it may include its own headers, platform/, and the
declarative spec/model headers (apps/app_spec.h, apps/corpus.h,
apps/spec_traits.h) — never os/, sim/, view/, ams/ or any other
simulator internals. The soundness argument rests on the analyzer
predicting behaviour without running it; a sim include would let
predictions quietly become observations. The dynamic half of the
differential harness lives in src/mc/ (a harness layer) for exactly
this reason.

Rule 4 — checker-tests: every checker registered in the kCheckers table
of src/sa/checkers.cc must have a matching test file
tests/sa/checker_<name>_test.cc. A checker without tests is a verdict
nobody has pinned down; the registry is parsed so the rule tracks new
checkers automatically.

Rule 5 — profiling-seam: the causal profiler (src/profiling/) consumes
the tracer's event stream, live or re-read from JSON — it must never
include simulator internals (os/, sim/, app/, ams/, ...). Only its own
headers and platform/ (where the tracer lives) are reachable. This is
the same one-way-arrow argument as sa-seam: the profiler analyzes
recorded behaviour; an os/ include would let it read simulator state
the trace does not carry, and the offline CLI (rchdroid_profile) would
silently diverge from what a trace consumer can reconstruct.

Rule 6 — mc-seam: the model checker (src/mc/) is the one layer allowed
to bridge the static analyzer and the simulator — that is its job
(it feeds sa/'s independence relation into DPOR and replays sa/
predictions against real executions). But the bridge must stay a
harness: it may include mc/, sa/, platform/, os/, sim/, view/,
analysis/ and apps/ headers, never app/, ams/, rch/, resources/ or
baseline/ internals directly. Activity-thread and policy internals are
reached through the sim/ facade; a direct include would couple the
checker to framework innards the scheduler seam deliberately hides.
"""

import json
import os
import re
import sys

#: Framework layers rule 2 protects. sim/ and mc/ are deliberately
#: absent: they are harness layers allowed to own an Analyzer.
FRAMEWORK_LAYERS = ("os", "view", "app", "ams", "rch", "platform",
                    "resources", "apps", "baseline")

#: The one sanctioned framework crossing into analysis/.
ANALYSIS_SEAM = os.path.join("src", "os", "analysis_hooks.h")

#: Where the raw kind strings live (and must stay).
KIND_HOME = os.path.join("src", "platform", "telemetry.cc")

#: The checker registry rule 4 parses.
CHECKER_HOME = os.path.join("src", "sa", "checkers.cc")

#: Include prefixes/files src/sa/ may reach (rule 3).
SA_ALLOWED_INCLUDES = ("sa/", "platform/", "apps/app_spec.h",
                       "apps/corpus.h", "apps/spec_traits.h")

#: Include prefixes src/profiling/ may reach (rule 5).
PROFILING_ALLOWED_INCLUDES = ("profiling/", "platform/")

#: Include prefixes src/mc/ may reach (rule 6). app/, ams/, rch/ and
#: friends are reached through the sim/ facade only.
MC_ALLOWED_INCLUDES = ("mc/", "sa/", "platform/", "os/", "sim/",
                       "view/", "analysis/", "apps/")

SOURCE_SUFFIXES = (".h", ".cc")


def seeded_kind_names(repo_root, errors):
    """Parse the kSeed string table out of platform/telemetry.cc.

    On a structural problem (missing file/table/entries), append a
    [structure] violation and return an empty list so the remaining
    rules still run over the whole tree.
    """
    path = os.path.join(repo_root, KIND_HOME)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        errors.append(_error(KIND_HOME, 1, "structure",
                             f"cannot read the kind-seed home: {exc}"))
        return []
    match = re.search(r"kSeed\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not match:
        errors.append(_error(KIND_HOME, 1, "structure",
                             "no kSeed table found — the interned-kinds "
                             "rule has lost its source of truth"))
        return []
    # Allow the empty "" seed entry so quote pairs stay aligned, then
    # drop it: only real dotted names are guarded.
    names = [n for n in re.findall(r'"([^"]*)"', match.group(1)) if n]
    if not names:
        errors.append(_error(KIND_HOME, 1, "structure",
                             "kSeed table is empty — the interned-kinds "
                             "rule has lost its source of truth"))
    return names


def registered_checkers(repo_root, errors):
    """Parse checker names out of the kCheckers table (rule 4)."""
    path = os.path.join(repo_root, CHECKER_HOME)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        errors.append(_error(CHECKER_HOME, 1, "structure",
                             f"cannot read the checker registry: {exc}"))
        return []
    match = re.search(r"kCheckers\s*=\s*\{(.*?)\n\};", text, re.DOTALL)
    if not match:
        errors.append(_error(CHECKER_HOME, 1, "structure",
                             "no kCheckers table found — the "
                             "checker-tests rule has lost its registry"))
        return []
    names = re.findall(r'\{\s*"([a-z_]+)"', match.group(1))
    if not names:
        errors.append(_error(CHECKER_HOME, 1, "structure",
                             "kCheckers table is empty — the "
                             "checker-tests rule has lost its registry"))
    return names


def strip_comments(text):
    """Remove // and /* */ comments, preserving line numbers."""
    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", blank, text)


def source_files(repo_root):
    src = os.path.join(repo_root, "src")
    for directory, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(directory, name)


def _error(rel, line, rule, message):
    return {"file": rel, "line": line, "rule": rule, "message": message}


def check_file(path, rel, kind_names, errors):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()

    layer = rel.split(os.sep)[1] if rel.startswith("src" + os.sep) else ""
    code = strip_comments(text)

    if rel != KIND_HOME:
        for number, line in enumerate(code.splitlines(), 1):
            for name in kind_names:
                if f'"{name}"' in line:
                    errors.append(_error(
                        rel, number, "interned-kinds",
                        f"raw kind string \"{name}\" — use the kinds:: "
                        f"constant (raw names live only in {KIND_HOME})"))

    if layer in FRAMEWORK_LAYERS and rel != ANALYSIS_SEAM:
        for number, line in enumerate(code.splitlines(), 1):
            if re.search(r'#\s*include\s*"analysis/', line):
                errors.append(_error(
                    rel, number, "analysis-seam",
                    f"framework layer \"{layer}\" includes an analysis/ "
                    f"header — go through {ANALYSIS_SEAM}"))

    if layer == "sa":
        for number, line in enumerate(code.splitlines(), 1):
            match = re.search(r'#\s*include\s*"([^"]+)"', line)
            if not match:
                continue
            include = match.group(1)
            if not include.startswith(SA_ALLOWED_INCLUDES):
                errors.append(_error(
                    rel, number, "sa-seam",
                    f"static analyzer includes \"{include}\" — src/sa/ "
                    f"may only see sa/, platform/ and the spec/model "
                    f"headers ({', '.join(SA_ALLOWED_INCLUDES[2:])}); "
                    f"dynamic harness code belongs in src/mc/"))

    if layer == "mc":
        for number, line in enumerate(code.splitlines(), 1):
            match = re.search(r'#\s*include\s*"([^"]+)"', line)
            if not match:
                continue
            include = match.group(1)
            if not include.startswith(MC_ALLOWED_INCLUDES):
                errors.append(_error(
                    rel, number, "mc-seam",
                    f"model checker includes \"{include}\" — src/mc/ "
                    f"bridges sa/ and the simulator through "
                    f"{', '.join(MC_ALLOWED_INCLUDES)} only; framework "
                    f"internals stay behind the sim/ facade"))

    if layer == "profiling":
        for number, line in enumerate(code.splitlines(), 1):
            match = re.search(r'#\s*include\s*"([^"]+)"', line)
            if not match:
                continue
            include = match.group(1)
            if not include.startswith(PROFILING_ALLOWED_INCLUDES):
                errors.append(_error(
                    rel, number, "profiling-seam",
                    f"profiler includes \"{include}\" — src/profiling/ "
                    f"may only see profiling/ and platform/ (the trace "
                    f"is its whole world; simulator internals stay "
                    f"behind the tracer seam)"))


def check_checker_tests(repo_root, checker_names, errors):
    """Rule 4: every registered checker has tests/sa/checker_<n>_test.cc."""
    for name in checker_names:
        rel_test = os.path.join("tests", "sa", f"checker_{name}_test.cc")
        if not os.path.isfile(os.path.join(repo_root, rel_test)):
            errors.append(_error(
                CHECKER_HOME, 1, "checker-tests",
                f"checker \"{name}\" is registered but {rel_test} does "
                f"not exist — every checker needs pinned TP/TN coverage"))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in argv
    if as_json:
        argv.remove("--json")
    repo_root = os.path.abspath(
        argv[0] if argv
        else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir))

    errors = []
    kind_names = seeded_kind_names(repo_root, errors)
    checker_names = registered_checkers(repo_root, errors)

    checked = 0
    for path in source_files(repo_root):
        rel = os.path.relpath(path, repo_root)
        check_file(path, rel, kind_names, errors)
        checked += 1
    check_checker_tests(repo_root, checker_names, errors)

    if as_json:
        print(json.dumps(errors, indent=2))
        return 1 if errors else 0

    for error in errors:
        print(f"lint_rules: {error['file']}:{error['line']}: "
              f"[{error['rule']}] {error['message']}", file=sys.stderr)
    if errors:
        print(f"lint_rules: FAIL ({len(errors)} violation(s) in "
              f"{checked} files)", file=sys.stderr)
        return 1
    print(f"lint_rules: OK — {checked} files, "
          f"{len(kind_names)} interned kinds guarded, "
          f"{len(checker_names)} checkers covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
