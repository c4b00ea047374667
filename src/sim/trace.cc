#include "sim/trace.h"

#include <string>

#include "platform/metrics.h"
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
        tracer->instant(event.kindName(), std::string(event.detail));

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
                               event.time, std::string(event.detail));
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
}

std::size_t
TraceRecorder::countOfKind(TelemetryKind kind) const
{
    return counts_[static_cast<std::size_t>(kind)];
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
