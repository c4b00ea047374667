/**
 * @file
 * TraceRecorder: watches every telemetry event of one system's run (its
 * AndroidSystem feeds it from the observer chain) and keeps what the
 * paper's metrics need: a count per kind and the runtime-change
 * handling episodes, "the time between the configuration change
 * arriving at the ATMS and the corresponding activity resumed" (§5.1).
 * It keeps no event; the export of the stream is the Chrome trace.
 */
#ifndef RCHDROID_SIM_TRACE_H
#define RCHDROID_SIM_TRACE_H

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "platform/telemetry.h"

namespace rchdroid::sim {

/** One matched configuration-change handling episode. */
struct HandlingEpisode
{
    /** atms.configChange arrival. */
    SimTime start = 0;
    /** The matching atms.activityResumed, if handling completed. */
    std::optional<SimTime> end;
    /**
     * True when the next configuration change arrived before this
     * episode's resume: the handling was cut short (the relaunch or flip
     * restarted under the newer configuration), so the episode closes
     * incomplete instead of stealing the eventual resume event.
     */
    bool aborted = false;

    bool completed() const { return end.has_value(); }
    double
    durationMs() const
    {
        return end ? toMillisF(*end - start) : -1.0;
    }
};

/**
 * Per-kind counts and handling episodes, both kept up to date by
 * record(): harness predicates poll countOfKind()/lastHandlingMs() after
 * every scheduler step. Counts are indexed by kind, so record() hashes
 * no string.
 *
 * When a trace::Tracer is installed on the thread, record() mirrors the
 * stream into it: an instant marker per event, named by its kind and
 * carrying its detail, plus an async "episode" span from each
 * configChange to its resume (or abort), which is how a rotation shows
 * up as one bar across Looper lanes in Perfetto.
 */
class TraceRecorder
{
  public:
    void record(const TelemetryEvent &event);

    std::size_t countOfKind(TelemetryKind kind) const;

    /**
     * Each atms.configChange paired with the first atms.activityResumed
     * after it. Episodes overtaken by the next change are marked
     * aborted; crashed handlings stay open (no end, not aborted).
     */
    const std::vector<HandlingEpisode> &handlingEpisodes() const
    {
        return episodes_;
    }

    /** Duration of the most recent completed episode, ms; -1 if none. */
    double lastHandlingMs() const;

    /** True when an app.crash event was recorded. */
    bool sawCrash() const { return countOfKind(kinds::kAppCrash) > 0; }

  private:
    /** Incremental tallies backing countOfKind(), indexed by kind. */
    std::array<std::size_t, kTelemetryKindCount> counts_{};
    /** Incrementally paired episodes backing handlingEpisodes(). */
    std::vector<HandlingEpisode> episodes_;
};

} // namespace rchdroid::sim

#endif // RCHDROID_SIM_TRACE_H
