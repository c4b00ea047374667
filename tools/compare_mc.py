#!/usr/bin/env python3
"""Gate a BENCH_mc.json run against bench/BENCH_mc.baseline.json.

Usage: compare_mc.py BASELINE_JSON CURRENT_JSON

bench_mc explores every model-check scenario once and reports two kinds
of numbers, which gate differently:

The deterministic counters (COUNTERS below) gate HARD: every baseline
scenario must appear in the run, at the baseline's depth, with exactly
the baseline's counters, or the script exits 1 with a ::error::. They
move only when exploration or reduction logic changes, and the cure is
refreshing the checked-in baseline in the same change.

Heap allocations (`allocations`, operator new calls during a
scenario's exploration) gate with a tolerance: a scenario whose count
exceeds the baseline's by more than ALLOC_THRESHOLD fails. The count
repeats exactly at RCHDROID_JOBS=1, the setting CI gates it at; fewer
allocations pass, and refreshing the baseline records them.

Wall-clock time only WARNS, on shared CI runners: a total wall time more
than WALL_THRESHOLD above the baseline's gets a ::warning::.

An unreadable baseline or run fails: there is nothing to gate against.
"""

import json
import sys

#: Per-scenario counters that must equal the baseline.
COUNTERS = ("schedules_covered", "executions", "choice_points",
            "distinct_states", "visited_hits", "sleep_skips", "mhp_prunes",
            "events_replayed", "truncated", "violations")

#: Relative per-scenario allocation growth over the baseline that fails.
ALLOC_THRESHOLD = 0.02

#: Relative total-wall growth over the baseline that draws a warning.
WALL_THRESHOLD = 0.20


def load_report(path, role):
    """Load one report; None (with an error) when absent/unparsable."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"::error::bench_mc {role} {path} unusable ({exc})")
        return None


def check_counters(baseline, current):
    """Hard gate: one error string per counter that left the baseline."""
    if baseline.get("depth") != current.get("depth"):
        return [f"depth {current.get('depth')} differs from the baseline's "
                f"{baseline.get('depth')}"]
    errors = []
    for name, base_cell in sorted(baseline.get("scenarios", {}).items()):
        cur_cell = current.get("scenarios", {}).get(name)
        if cur_cell is None:
            errors.append(f"scenario {name} missing from run")
            continue
        for key in COUNTERS:
            if base_cell.get(key) != cur_cell.get(key):
                errors.append(
                    f"scenario {name}: {key} moved {base_cell.get(key)} -> "
                    f"{cur_cell.get(key)} — refresh "
                    f"bench/BENCH_mc.baseline.json if the exploration "
                    f"change is intentional")
    return errors


def check_allocations(baseline, current, threshold):
    """Gate: one error string per scenario whose allocations grew by more
    than `threshold` over the baseline's. Baseline rows without a count
    carry no gate."""
    errors = []
    for name, base_cell in sorted(baseline.get("scenarios", {}).items()):
        base = base_cell.get("allocations")
        cur_cell = current.get("scenarios", {}).get(name)
        if base is None or cur_cell is None:
            continue  # a missing scenario is check_counters' error
        cur = cur_cell.get("allocations")
        if cur is None:
            errors.append(f"scenario {name}: allocations missing from run")
        elif cur > (1.0 + threshold) * base:
            errors.append(
                f"scenario {name}: allocations grew {base} -> {cur}, more "
                f"than {threshold:.0%} over the baseline — refresh "
                f"bench/BENCH_mc.baseline.json if the growth is "
                f"intentional")
    return errors


def check_wall(baseline, current, threshold):
    """Advisory: total wall time beyond (1 + threshold) x the baseline."""
    base_ms = baseline.get("totals", {}).get("wall_ms", 0.0)
    cur_ms = current.get("totals", {}).get("wall_ms", 0.0)
    if base_ms > 0.0 and cur_ms > (1.0 + threshold) * base_ms:
        return [f"total wall {cur_ms:.1f} ms is more than {threshold:.0%} "
                f"above the baseline's {base_ms:.1f} ms (advisory)"]
    return []


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2

    baseline = load_report(argv[1], "baseline")
    current = load_report(argv[2], "run")
    if baseline is None or current is None:
        return 1

    errors = check_counters(baseline, current)
    errors += check_allocations(baseline, current, ALLOC_THRESHOLD)
    warnings = check_wall(baseline, current, WALL_THRESHOLD)

    for name, cell in sorted(current.get("scenarios", {}).items()):
        print(f"{name}: {cell.get('schedules_covered')} schedules, "
              f"{cell.get('executions')} executions, "
              f"{cell.get('executions_per_sec', 0):.0f} exec/s")
    for warning in warnings:
        print(f"::warning::bench_mc {warning}")
    for error in errors:
        print(f"::error::bench_mc {error}")
    if errors:
        return 1
    print("bench_mc counters match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
