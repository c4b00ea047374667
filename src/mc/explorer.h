/**
 * @file
 * Bounded DFS over the schedule space of a scenario, with two
 * partial-order-style reductions:
 *
 *  - Sleep sets (Godefroid): after exploring event e at a choice
 *    point, e is put to sleep for the sibling branches — a sibling
 *    subtree need not re-run e while everything executed since is
 *    independent of it (disjoint observed looper footprints), because
 *    "f then e" is Mazurkiewicz-equivalent to the already-explored
 *    "e then f". A step whose footprint intersects a sleeping event's
 *    footprint (or that crossed a sync barrier) wakes it. Injections
 *    are global (they touch the ATMS and every app) and are never
 *    slept. Footprints are observed dynamically per branch — the
 *    classical static independence relation is replaced by what the
 *    FootprintRecorder actually saw, which is exact for replayed
 *    prefixes.
 *
 *  - Visited-state pruning: the canonical fingerprint
 *    (src/mc/state_hash.h) keyed with (remaining depth, remaining
 *    injection budget) memoizes fully-explored subtrees. A prefix
 *    reaching a known key contributes the memoized subtree's schedule
 *    count without re-executing it — so `schedules_covered` counts
 *    every distinguishable schedule the search *covered*, while
 *    `executions` counts the re-executions actually paid for.
 *
 * A third, *static* reduction arms when the scenario carries a
 * closed-world sa::IndependenceSpec (DESIGN.md §14): persistent-set
 * pruning. When every option at a choice point is an event on a looper
 * the spec maps to a *distinct* process (and no injection is on
 * offer), the options pairwise commute and {option 0} is a persistent
 * set — the siblings need not be explored at all. Skips are counted in
 * `mhp_prunes`, and the guided-vs-unguided CTest
 * (tests/mc/guided_equivalence_test.cc) checks that they change no
 * verdict.
 *
 * Exploration pays one execution per explored branch: one execution
 * serves as the "spine" for the whole default-continuation of its
 * prefix. Each branch is a full replay from the root via
 * runExecution(), which fingerprints and records footprints only from
 * the branch's divergence point on: the DFS already holds the prefix's
 * from the spine (DESIGN.md §11).
 *
 * Replays run ahead of the DFS on RCHDROID_JOBS - 1 worker threads
 * (defaultJobs(), platform/jobs.h), started at the first branch queued
 * after the search's first 16 executions and joined before explore()
 * returns or throws. The DFS still
 * folds each result into the report in its own order, so every count,
 * verdict and counterexample is the same at any worker count. A
 * replay's exception is rethrown on the caller's thread when the DFS
 * reaches that branch.
 *
 * Precondition: the caller installs no trace::Tracer, no
 * metrics::MetricsRegistry and no obs::Observer subscriber around
 * explore(). Those are thread-local, so a worker's replays would not
 * see them while the caller's own replays would.
 */
#ifndef RCHDROID_MC_EXPLORER_H
#define RCHDROID_MC_EXPLORER_H

#include <cstdint>
#include <string>
#include <vector>

#include "mc/execution.h"
#include "sa/mhp.h"

namespace rchdroid::mc {

struct ExplorerOptions
{
    const Scenario *scenario = nullptr;
    /** Choice points explored along any one schedule. */
    int max_depth = 10;
    /** Re-execution budget; the search truncates when exhausted. */
    std::uint64_t max_executions = 50'000;
    /** Oracle names; empty means defaultOracleNames(). */
    std::vector<std::string> oracles;
    /** Run the PR-1 analyzer on every execution. */
    bool run_analysis = true;
    /** Sleep sets + visited-state pruning; false = naive DFS. */
    bool reduction = true;
    /**
     * Looper ownership for persistent-set pruning, or null for unguided
     * DPOR. Only consulted when `reduction` is on; soundness
     * obligations are documented on sa::IndependenceSpec.
     */
    const sa::IndependenceSpec *independence = nullptr;
};

struct ExplorerStats
{
    /** Full re-executions performed. */
    std::uint64_t executions = 0;
    /** Distinguishable schedules covered (incl. memoized subtrees). */
    std::uint64_t schedules_covered = 0;
    /** Choice-point nodes visited by the DFS. */
    std::uint64_t nodes = 0;
    /** Distinct (state, depth, budget) keys memoized. */
    std::uint64_t distinct_states = 0;
    /** Subtrees answered from the visited table. */
    std::uint64_t visited_hits = 0;
    /** Sibling branches skipped by sleep sets. */
    std::uint64_t sleep_skips = 0;
    /** Siblings skipped by static persistent-set pruning. */
    std::uint64_t mhp_prunes = 0;
    /** True when max_executions stopped the search early. */
    bool truncated = false;
    /** Redundant prefix events re-executed to reach branch divergence
     * points — the cost of replay-from-root. */
    std::uint64_t events_replayed = 0;
    /** State fingerprints computed, summed over executions. */
    std::uint64_t fingerprints = 0;
};

struct ExplorerReport
{
    ExplorerStats stats;
    /** Distinct findings, in discovery order (deduped by summary). */
    std::vector<McViolation> violations;
    /**
     * Schedule of the first violating execution (one entry per choice
     * point it recorded) — the minimizer's starting point.
     */
    std::vector<int> first_violation_schedule;
};

/**
 * Explore the scenario's schedule space up to the configured bounds.
 * The scenario's closures may run on several threads at once.
 */
ExplorerReport explore(const ExplorerOptions &options);

} // namespace rchdroid::mc

#endif // RCHDROID_MC_EXPLORER_H
