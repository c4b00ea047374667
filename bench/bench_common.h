/**
 * @file
 * Shared helpers for the bench binaries: the experiment flows of §5 —
 * launch, apply user state, change configuration, measure — plus
 * paper-anchor reporting.
 *
 * Measurement decomposes into independent cells — one fresh
 * sim::AndroidSystem per (mode, spec) — so benches can fan the whole
 * matrix across cores with ParallelRunner while keeping results in cell
 * order. The simulation is deterministic: a cell's result depends only
 * on (mode, spec, steady_changes), never on which thread or in which
 * order it ran, so any jobs count reproduces the serial output bit for
 * bit, and running a cell twice would only repeat its numbers.
 */
#ifndef RCHDROID_BENCH_BENCH_COMMON_H
#define RCHDROID_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <vector>

#include "parallel_runner.h"
#include "platform/stats.h"
#include "platform/strings.h"
#include "sim/android_system.h"

namespace rchdroid::bench {

/** Deviation note comparing a measured value against the paper's. */
inline std::string
paperDelta(double measured, double paper)
{
    if (paper == 0.0)
        return "n/a";
    const double pct = (measured - paper) / paper * 100.0;
    return formatDouble(pct, 1) + "%";
}

/** Print the standard bench header. */
inline void
printHeader(const std::string &id, const std::string &title)
{
    std::printf("\n=== %s: %s ===\n", id.c_str(), title.c_str());
}

/** Build options for a mode with defaults used across benches. */
inline sim::SystemOptions
optionsFor(RuntimeChangeMode mode)
{
    sim::SystemOptions options;
    options.mode = mode;
    return options;
}

/** One (mode, app) cell of an experiment matrix. */
struct HandlingCell
{
    RuntimeChangeMode mode = RuntimeChangeMode::Restart;
    apps::AppSpec spec;
    int steady_changes = 3;
};

/**
 * Handling times of one cell: the first change (RCHDroid-init under
 * RCHDroid) and the steady-state changes after it.
 */
struct HandlingMeasurement
{
    RunningStat handling_ms;
    RunningStat init_ms;
    bool crashed = false;
};

/**
 * Measure one cell: a fresh-system launch + first change +
 * `steady_changes` steady-state changes. The independent unit of work
 * the parallel matrix fans out.
 */
inline HandlingMeasurement
measureHandlingCell(const HandlingCell &cell)
{
    HandlingMeasurement out;
    sim::AndroidSystem system(optionsFor(cell.mode));
    system.install(cell.spec);
    system.launch(cell.spec);
    system.applyUserState(cell.spec);

    // First change: the RCHDroid-init episode.
    system.rotate();
    if (!system.waitHandlingComplete()) {
        out.crashed = true;
        return out;
    }
    out.init_ms.add(system.lastHandlingMs());
    system.runFor(seconds(1));

    // Subsequent changes: the steady state (coin-flip under RCHDroid,
    // plain restart under Android-10).
    for (int change = 0; change < cell.steady_changes; ++change) {
        system.rotate();
        if (!system.waitHandlingComplete()) {
            out.crashed = true;
            break;
        }
        out.handling_ms.add(system.lastHandlingMs());
        system.runFor(seconds(1));
    }
    return out;
}

/**
 * Measure every cell of a matrix, fanning the cells across the runner's
 * threads. Results are returned in cell order, so the output is
 * bit-identical to the jobs=1 serial sweep.
 */
inline std::vector<HandlingMeasurement>
measureHandlingMatrix(const std::vector<HandlingCell> &cells,
                      const ParallelRunner &runner)
{
    return runner.map<HandlingMeasurement>(
        cells.size(),
        [&cells](std::size_t i) { return measureHandlingCell(cells[i]); });
}

} // namespace rchdroid::bench

#endif // RCHDROID_BENCH_BENCH_COMMON_H
