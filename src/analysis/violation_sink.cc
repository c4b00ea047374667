#include "analysis/violation.h"

#include <sstream>

#include "os/observer.h"
#include "platform/logging.h"
#include "platform/telemetry.h"

namespace rchdroid::analysis {

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::DataRace:
        return "DataRace";
      case ViolationKind::LifecycleTransition:
        return "LifecycleTransition";
      case ViolationKind::LifecycleInvariant:
        return "LifecycleInvariant";
      case ViolationKind::DestroyedViewMutation:
        return "DestroyedViewMutation";
    }
    return "Unknown";
}

std::string
Violation::toString() const
{
    std::ostringstream os;
    os << violationKindName(kind) << " @ " << time << "ns: " << summary;
    for (const auto &line : details)
        os << "\n  " << line;
    return os.str();
}

void
ViolationSink::report(Violation violation)
{
    if (timeline_snapshotter_) {
        auto timeline = timeline_snapshotter_();
        if (!timeline.empty()) {
            violation.details.emplace_back("recent events:");
            for (auto &line : timeline)
                violation.details.emplace_back("  " + std::move(line));
        }
    }

    ++total_count_;
    ++counts_[static_cast<std::size_t>(violation.kind)];
    if (telemetry_source_) {
        // Indexed by ViolationKind.
        static constexpr TelemetryKind kKinds[] = {
            kinds::kAnalysisDataRace,
            kinds::kAnalysisLifecycleTransition,
            kinds::kAnalysisLifecycleInvariant,
            kinds::kAnalysisDestroyedViewMutation,
        };
        TelemetryEvent event;
        event.time = violation.time;
        event.kind = kKinds[static_cast<std::size_t>(violation.kind)];
        event.detail = violation.summary;
        obs::notify(&obs::Observer::onTelemetry, *telemetry_source_, event);
    }
    RCH_LOGE("Analysis", violation.toString());
    if (abort_on_violation_)
        RCH_PANIC("analysis violation: ", violation.toString());
    if (violations_.size() < kMaxStored)
        violations_.push_back(std::move(violation));
}

void
ViolationSink::clear()
{
    violations_.clear();
    counts_.fill(0);
    total_count_ = 0;
}

} // namespace rchdroid::analysis
