/**
 * @file
 * Telemetry kinds: the closed set and its name table.
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "platform/telemetry.h"

namespace rchdroid {
namespace {

TEST(Telemetry, KindsPrintTheirDottedNames)
{
    // These spellings reach the CSV, the trace instants and dumpsys.
    EXPECT_EQ(telemetryKindName(kinds::kNone), "");
    EXPECT_EQ(telemetryKindName(kinds::kAtmsConfigChange),
              "atms.configChange");
    EXPECT_EQ(telemetryKindName(kinds::kAtmsActivityResumed),
              "atms.activityResumed");
    EXPECT_EQ(telemetryKindName(kinds::kAppCrash), "app.crash");
    EXPECT_EQ(telemetryKindName(kinds::kActivityFlipToSunny),
              "activity.flipToSunny");
    EXPECT_EQ(telemetryKindName(kinds::kAnalysisDataRace),
              "analysis.DataRace");
    EXPECT_EQ(telemetryKindName(kinds::kAnalysisDestroyedViewMutation),
              "analysis.DestroyedViewMutation");
    std::ostringstream os;
    os << kinds::kAtmsShadowHandling;
    EXPECT_EQ(os.str(), "atms.shadowHandling");
}

TEST(Telemetry, EveryKindHasItsOwnDottedName)
{
    std::set<std::string> names;
    for (std::size_t i = 1; i < kTelemetryKindCount; ++i) {
        const std::string &name =
            telemetryKindName(static_cast<TelemetryKind>(i));
        EXPECT_NE(name.find('.'), std::string::npos) << name;
        names.insert(name);
    }
    EXPECT_EQ(names.size(), kTelemetryKindCount - 1);
}

TEST(Telemetry, EventDefaultsAndKindName)
{
    TelemetryEvent event;
    EXPECT_EQ(event.kind, kinds::kNone);
    event.kind = kinds::kAtmsShadowHandling;
    EXPECT_EQ(event.kindName(), "atms.shadowHandling");
}

} // namespace
} // namespace rchdroid
