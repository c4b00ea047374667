#include "sa/phase_clock.h"

#include <chrono>
#include <cstdio>

namespace rchdroid::sa {

namespace {

std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
PhaseTimes::toJson() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"compile\": %.1f, \"dataflow\": %.1f, \"graph\": %.1f, "
                  "\"mhp\": %.1f, \"checkers\": %.1f, \"total\": %.1f}",
                  compile_ns / 1e3, dataflow_ns / 1e3, graph_ns / 1e3,
                  mhp_ns / 1e3, checkers_ns / 1e3, total_ns / 1e3);
    return buf;
}

PhaseClock::PhaseClock(PhaseTimes *times) : times_(times)
{
    if (times_ != nullptr)
        start_ = last_ = hostNs();
}

void
PhaseClock::lap(std::int64_t PhaseTimes::*phase)
{
    if (times_ == nullptr)
        return;
    const std::int64_t now = hostNs();
    times_->*phase += now - last_;
    last_ = now;
}

void
PhaseClock::finish()
{
    if (times_ != nullptr)
        times_->total_ns += hostNs() - start_;
}

} // namespace rchdroid::sa
