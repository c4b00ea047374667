/**
 * @file
 * CpuTracker: collects the busy intervals of a system's loopers and
 * derives CPU-utilisation-over-time series — the app CPU usage curves of
 * Fig. 9.
 */
#ifndef RCHDROID_SIM_CPU_TRACKER_H
#define RCHDROID_SIM_CPU_TRACKER_H

#include <string>
#include <vector>

#include "platform/time.h"

namespace rchdroid::sim {

/** One recorded busy interval. */
struct BusyInterval
{
    SimTime start = 0;
    SimTime end = 0;
    std::string tag;

    SimDuration duration() const { return end - start; }
};

/** One point of a utilisation series. */
struct UtilSample
{
    /** Window start time. */
    SimTime time = 0;
    /** Busy fraction within the window, 0..1 (may sum loopers > 1). */
    double utilization = 0.0;
};

/**
 * Busy-interval store + post-hoc analysis. Its AndroidSystem feeds it
 * the non-empty dispatches of the system's own loopers.
 */
class CpuTracker
{
  public:
    /** A message with `tag` occupied [start, end) of thread time. */
    void onBusyInterval(SimTime start, SimTime end, const std::string &tag);

    const std::vector<BusyInterval> &intervals() const { return intervals_; }
    void clear() { intervals_.clear(); }

    /** Total busy time across observed loopers within [from, to). */
    SimDuration busyTime(SimTime from, SimTime to) const;

    /**
     * Utilisation as a fraction of `cores` across [from, to) — the
     * device-level figure the energy model consumes.
     */
    double utilization(SimTime from, SimTime to, int cores = 1) const;

    /**
     * Windowed series over [from, to): one sample per `window`,
     * normalised against `cores` core-time (the Fig. 9 y-axis is
     * device CPU %).
     */
    std::vector<UtilSample> series(SimTime from, SimTime to,
                                   SimDuration window, int cores = 1) const;

    /** Busy intervals whose tag contains `needle` (bench lookups). */
    std::vector<BusyInterval> intervalsTagged(const std::string &needle) const;

  private:
    std::vector<BusyInterval> intervals_;
};

} // namespace rchdroid::sim

#endif // RCHDROID_SIM_CPU_TRACKER_H
