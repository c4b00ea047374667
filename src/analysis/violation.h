/**
 * @file
 * Violation reporting for the analysis layer.
 *
 * Both checkers (race detector, lifecycle protocol checker) funnel their
 * findings through one ViolationSink. The sink keeps the structured
 * record for tests to assert on, mirrors each finding into telemetry so
 * it lands on its system's trace next to the events that caused it,
 * and — when abort-on-violation is armed, as it is for every tier-1
 * test run — panics with the full report so CI fails loudly at the
 * first defect.
 */
#ifndef RCHDROID_ANALYSIS_VIOLATION_H
#define RCHDROID_ANALYSIS_VIOLATION_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "platform/time.h"

namespace rchdroid {
class SimScheduler;
}

namespace rchdroid::analysis {

/** What kind of rule a finding violates. */
enum class ViolationKind : std::uint8_t {
    /** Unordered cross-looper accesses to the same object. */
    DataRace,
    /** A LifecycleState transition outside the Fig. 4 edge set. */
    LifecycleTransition,
    /** A cross-instance lifecycle invariant (e.g. two Sunny per task). */
    LifecycleInvariant,
    /** Framework code mutated a view after Destroyed. */
    DestroyedViewMutation,
};

/** "DataRace", "LifecycleTransition", ... */
const char *violationKindName(ViolationKind kind);

/** One finding, with enough context to debug it from the report alone. */
struct Violation
{
    ViolationKind kind = ViolationKind::DataRace;
    /** One-line description of what went wrong. */
    std::string summary;
    /** Supporting lines: both access contexts, the event timeline, ... */
    std::vector<std::string> details;
    /** Virtual time at which the violation was detected. */
    SimTime time = 0;

    /** Multi-line human-readable report. */
    std::string toString() const;
};

/**
 * Collects violations from the checkers.
 *
 * Dedup/capacity: at most kMaxStored violations keep their full record
 * (counters keep counting past that) so a pathological workload cannot
 * exhaust memory with reports.
 */
class ViolationSink
{
  public:
    ViolationSink() = default;

    /** Record a finding; logs, mirrors to telemetry, maybe panics. */
    void report(Violation violation);

    /** Panic on the first report (how tier-1 tests run). */
    void setAbortOnViolation(bool abort) { abort_on_violation_ = abort; }
    bool abortOnViolation() const { return abort_on_violation_; }

    /**
     * Mirror each finding onto the observer chain as an
     * `analysis.<kind>` telemetry event from `source`, the scheduler of
     * the system that owns this sink's analyzer; null (the default)
     * mirrors nothing.
     */
    void setTelemetrySource(const SimScheduler *source)
    { telemetry_source_ = source; }

    /**
     * Callback that snapshots the recent-event timeline; the sink
     * appends it to each violation's details.
     */
    void setTimelineSnapshotter(std::function<std::vector<std::string>()> fn)
    { timeline_snapshotter_ = std::move(fn); }

    /** Stored findings (capped at kMaxStored). */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Total findings including any past the storage cap. */
    std::size_t totalCount() const { return total_count_; }

    /** Findings of one kind (counted, not capped). */
    std::size_t countOf(ViolationKind kind) const
    { return counts_[static_cast<std::size_t>(kind)]; }

    /** Drop all stored findings and reset the counters. */
    void clear();

    /** Storage cap for full violation records. */
    static constexpr std::size_t kMaxStored = 100;

  private:
    std::vector<Violation> violations_;
    std::array<std::size_t, 4> counts_{};
    std::size_t total_count_ = 0;
    bool abort_on_violation_ = false;
    const SimScheduler *telemetry_source_ = nullptr;
    std::function<std::vector<std::string>()> timeline_snapshotter_;
};

} // namespace rchdroid::analysis

#endif // RCHDROID_ANALYSIS_VIOLATION_H
