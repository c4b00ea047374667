#include "platform/telemetry.h"

#include <ostream>

namespace rchdroid {

const std::string &
telemetryKindName(TelemetryKind kind)
{
    // Indexed by TelemetryKind; the names are the CSV, trace and
    // dumpsys spelling of each kind.
    static const std::string kNames[] = {
        "",
        "atms.configChange",
        "atms.activityResumed",
        "atms.relaunch",
        "atms.shadowHandling",
        "atms.back",
        "atms.activityDestroyed",
        "atms.shadowReclaimed",
        "atms.processCrashed",
        "atms.coinFlip",
        "atms.sunnyCreate",
        "app.resumed",
        "app.crash",
        "app.asyncStarted",
        "app.asyncFinished",
        "app.windowLeaked",
        "activity.resumed",
        "activity.destroyed",
        "activity.enterShadow",
        "activity.flipToSunny",
        "analysis.DataRace",
        "analysis.LifecycleTransition",
        "analysis.LifecycleInvariant",
        "analysis.DestroyedViewMutation",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) == kTelemetryKindCount,
                  "one name per TelemetryKind");
    return kNames[static_cast<std::size_t>(kind)];
}

std::ostream &
operator<<(std::ostream &os, TelemetryKind kind)
{
    return os << telemetryKindName(kind);
}

} // namespace rchdroid
