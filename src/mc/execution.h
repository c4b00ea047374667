/**
 * @file
 * One controlled execution of a scenario under an explicit schedule.
 *
 * The checker is stateless in the Godefroid sense: every schedule is a
 * full re-execution — construct a fresh AndroidSystem, run the
 * scenario's deterministic setup, then drive the scheduler through the
 * "controlled window" one event at a time via the os/nondet_seam.h
 * seam. Wherever ≥2 continuations exist (tied events per the
 * os/dispatch_order.h contract, or a configuration-change injection
 * while budget remains), the executor consults the schedule: entry k
 * is the option index taken at the k-th choice point; indices past the
 * end of the schedule (or out of range) mean option 0, the default.
 * Option 0 is always "the event the stock scheduler would run next",
 * so the empty schedule reproduces the untouched simulator exactly.
 *
 * The executor records each choice point (options, state fingerprint,
 * remaining injection budget) and the looper footprint of each taken
 * segment — everything the explorer (src/mc/explorer.h) needs to drive
 * DFS, sleep sets and visited-state pruning without a second pass. A
 * branch that replays a known prefix skips that bookkeeping below its
 * divergence point (ExecutionOptions::known_states).
 *
 * Oracles run after every step; the window stops at the first finding
 * (replays reproduce it bit-for-bit, so nothing is lost by stopping).
 */
#ifndef RCHDROID_MC_EXECUTION_H
#define RCHDROID_MC_EXECUTION_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "mc/hooks.h"
#include "mc/oracles.h"
#include "mc/scenario.h"
#include "os/scheduler.h"

namespace rchdroid::mc {

/** One runnable continuation at a choice point. */
struct ChoiceOption
{
    enum class Kind : std::uint8_t {
        /** Run a pending scheduler event (id below). */
        Event,
        /** Perform a configuration-change injection (kind below). */
        Injection,
        /** End the controlled window (offered when no event is due). */
        EndWindow,
    };

    Kind kind = Kind::Event;
    EventId event_id = kInvalidEventId;
    InjectionKind injection = InjectionKind::Rotate;
    /** Display label: looper name / "binder" for events, else name. */
    std::string label;
};

/** One recorded choice point along an execution. */
struct ChoicePoint
{
    std::vector<ChoiceOption> options;
    /** Option index actually taken (after clamping). */
    int chosen = 0;
    /** Canonical state hash before the step (0 when not computed). */
    std::uint64_t fingerprint_before = 0;
    /** Injection budget remaining before the step. */
    int injections_left = 0;
    /** Scheduler events executed before this choice (incl. setup). */
    std::uint64_t events_before = 0;
    /**
     * Union of looper footprints of the chosen step and every
     * following single-option step up to the next choice point —
     * the independence data sleep sets work with.
     */
    std::set<std::string> segment_footprint;
    /**
     * Step classes / posted queue slots / barrier flag of the same
     * segment — what the static independence oracle consumes.
     */
    SegmentSummary segment;
};

struct ExecutionOptions
{
    const Scenario *scenario = nullptr;
    /** Choice indices; missing/out-of-range entries mean 0. */
    std::vector<int> schedule;
    /** Depth bound: choice points recorded before defaulting. */
    int max_choice_points = 10;
    /** Oracle names; empty means defaultOracleNames(). */
    std::vector<std::string> oracles;
    /** Run the PR-1 analyzer on this execution. */
    bool run_analysis = true;
    /** Compute state fingerprints at choice points. */
    bool fingerprints = true;
    /**
     * Choice points before this depth replay a prefix the caller has
     * already executed with the same choices, so their pre-states are
     * known (the simulator is deterministic): they get no fingerprint,
     * and those before depth known_states - 1 (the last one takes the
     * new choice) no segment footprint. Options, `chosen`,
     * `events_before`, oracles and analysis still run on every step.
     * 0 records everything.
     */
    std::size_t known_states = 0;
};

struct ExecutionResult
{
    std::vector<ChoicePoint> choice_points;
    /** At most one oracle finding (the window stops on the first). */
    std::vector<McViolation> violations;
    /** Controlled steps taken (choice points + forced steps). */
    std::uint64_t steps = 0;
    /** The depth bound forced defaults on a ≥2-option step. */
    bool hit_depth_cap = false;
    /** stateFingerprint() walks performed by this execution. */
    std::uint64_t fingerprints_computed = 0;
};

/** Run one schedule start to finish. Deterministic. */
ExecutionResult runExecution(const ExecutionOptions &options);

} // namespace rchdroid::mc

#endif // RCHDROID_MC_EXECUTION_H
