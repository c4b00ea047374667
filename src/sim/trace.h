/**
 * @file
 * TraceRecorder: collects every telemetry event of one system's run
 * (its AndroidSystem feeds it from the observer chain) and derives the
 * paper's metrics from them — most importantly the runtime-change
 * handling time, "the time between the configuration change arriving
 * at the ATMS and the corresponding activity resumed" (§5.1).
 */
#ifndef RCHDROID_SIM_TRACE_H
#define RCHDROID_SIM_TRACE_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
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
 * Event store + metric extraction.
 *
 * Per-kind counts and handling episodes are maintained incrementally in
 * record(): harness predicates poll countOfKind()/lastHandlingMs() after
 * every scheduler step, so deriving them by rescanning the event log
 * made long-lived systems quadratic in their own history. Counts are
 * indexed by kind — no string hashing on the hot path.
 *
 * When a trace::Tracer is installed on the thread, record() mirrors the
 * stream into it: an instant marker per event plus an async "episode"
 * span from each configChange to its resume (or abort), which is how a
 * rotation shows up as one bar across Looper lanes in Perfetto.
 */
class TraceRecorder
{
  public:
    void record(const TelemetryEvent &event);

    const std::vector<TelemetryEvent> &events() const { return events_; }
    void
    clear()
    {
        events_.clear();
        counts_.fill(0);
        episodes_.clear();
    }

    /** Events whose kind matches exactly. */
    std::vector<TelemetryEvent> eventsOfKind(TelemetryKind kind) const;
    std::size_t countOfKind(TelemetryKind kind) const;
    /** Last event of a kind, if any. */
    std::optional<TelemetryEvent> lastOfKind(TelemetryKind kind) const;

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

    /**
     * Serialise the event log as CSV (`time_ms,kind,detail,value`) for
     * external plotting; detail fields are quoted.
     */
    std::string toCsv() const;

    /** Write toCsv() to a file; false on I/O failure. */
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<TelemetryEvent> events_;
    /** Incremental tallies backing countOfKind(), indexed by kind. */
    std::array<std::size_t, kTelemetryKindCount> counts_{};
    /** Incrementally paired episodes backing handlingEpisodes(). */
    std::vector<HandlingEpisode> episodes_;
};

} // namespace rchdroid::sim

#endif // RCHDROID_SIM_TRACE_H
