#include "sim/trace.h"

#include <fstream>
#include <sstream>

#include "platform/metrics.h"
#include "platform/strings.h"
#include "platform/tracing.h"

namespace rchdroid::sim {

void
TraceRecorder::record(const TelemetryEvent &event)
{
    ++counts_[static_cast<std::size_t>(event.kind)];

    trace::Tracer *tracer = trace::Tracer::current();
    // Instants use the cost-aware clock so they sit inside whatever
    // span is currently open on the lane; the async episode endpoints
    // below use the event's semantic time instead.
    if (tracer)
        tracer->instant(event.kindName(), event.detail);

    if (event.kind == kinds::kAtmsConfigChange) {
        if (!episodes_.empty() && !episodes_.back().end &&
            !episodes_.back().aborted) {
            // The previous handling never reached its resume: close it
            // as incomplete so this change's episode cannot steal the
            // eventual resume event (the mis-pairing bug).
            episodes_.back().aborted = true;
            metrics::add(metrics::Counter::kEpisodesAborted);
            if (tracer)
                tracer->asyncEnd("episode", episodes_.size() - 1, event.time,
                                 "aborted");
        }
        episodes_.push_back(HandlingEpisode{event.time, std::nullopt, false});
        if (tracer)
            tracer->asyncBegin("episode", episodes_.size() - 1, "rch.episode",
                               event.time, event.detail);
    } else if (event.kind == kinds::kAtmsActivityResumed) {
        if (!episodes_.empty() && !episodes_.back().end &&
            !episodes_.back().aborted) {
            HandlingEpisode &episode = episodes_.back();
            episode.end = event.time;
            metrics::add(metrics::Counter::kEpisodesCompleted);
            metrics::observe(metrics::Histogram::kHandlingMs,
                             episode.durationMs());
            if (tracer)
                tracer->asyncEnd("episode", episodes_.size() - 1, event.time);
        }
    }
    events_.push_back(event);
}

std::vector<TelemetryEvent>
TraceRecorder::eventsOfKind(TelemetryKind kind) const
{
    std::vector<TelemetryEvent> out;
    for (const auto &event : events_) {
        if (event.kind == kind)
            out.push_back(event);
    }
    return out;
}

std::size_t
TraceRecorder::countOfKind(TelemetryKind kind) const
{
    return counts_[static_cast<std::size_t>(kind)];
}

std::optional<TelemetryEvent>
TraceRecorder::lastOfKind(TelemetryKind kind) const
{
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
        if (it->kind == kind)
            return *it;
    }
    return std::nullopt;
}

std::string
TraceRecorder::toCsv() const
{
    std::ostringstream os;
    os << "time_ms,kind,detail,value\n";
    for (const auto &event : events_) {
        std::string detail = event.detail;
        // Minimal CSV quoting: wrap and double embedded quotes.
        std::string quoted = "\"";
        for (char c : detail) {
            if (c == '"')
                quoted += '"';
            quoted += c;
        }
        quoted += '"';
        os << formatDouble(toMillisF(event.time), 3) << ',' << event.kindName()
           << ',' << quoted << ',' << formatDouble(event.value, 3) << '\n';
    }
    return os.str();
}

bool
TraceRecorder::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toCsv();
    // A log smaller than the stream buffer is written by the flush in
    // close(), so a failed write shows only after it.
    out.close();
    return static_cast<bool>(out);
}

double
TraceRecorder::lastHandlingMs() const
{
    for (auto it = episodes_.rbegin(); it != episodes_.rend(); ++it) {
        if (it->completed())
            return it->durationMs();
    }
    return -1.0;
}

} // namespace rchdroid::sim
