#include "sim/cpu_tracker.h"

#include <algorithm>

#include "platform/logging.h"

namespace rchdroid::sim {

void
CpuTracker::onBusyInterval(SimTime start, SimTime end, const std::string &tag)
{
    RCH_ASSERT(end >= start, "inverted busy interval");
    intervals_.push_back(BusyInterval{start, end, tag});
}

SimDuration
CpuTracker::busyTime(SimTime from, SimTime to) const
{
    SimDuration total = 0;
    for (const auto &interval : intervals_) {
        const SimTime lo = std::max(interval.start, from);
        const SimTime hi = std::min(interval.end, to);
        if (hi > lo)
            total += hi - lo;
    }
    return total;
}

double
CpuTracker::utilization(SimTime from, SimTime to, int cores) const
{
    RCH_ASSERT(to > from, "empty utilization window");
    RCH_ASSERT(cores > 0, "cores must be positive");
    const double core_time =
        static_cast<double>(to - from) * static_cast<double>(cores);
    return static_cast<double>(busyTime(from, to)) / core_time;
}

std::vector<UtilSample>
CpuTracker::series(SimTime from, SimTime to, SimDuration window,
                   int cores) const
{
    RCH_ASSERT(window > 0, "window must be positive");
    std::vector<UtilSample> out;
    for (SimTime t = from; t < to; t += window) {
        const SimTime hi = std::min(t + window, to);
        UtilSample sample;
        sample.time = t;
        sample.utilization = hi > t ? utilization(t, hi, cores) : 0.0;
        out.push_back(sample);
    }
    return out;
}

std::vector<BusyInterval>
CpuTracker::intervalsTagged(const std::string &needle) const
{
    std::vector<BusyInterval> out;
    for (const auto &interval : intervals_) {
        if (interval.tag.find(needle) != std::string::npos)
            out.push_back(interval);
    }
    return out;
}

} // namespace rchdroid::sim
