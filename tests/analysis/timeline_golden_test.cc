/**
 * @file
 * A seeded race report, pinned byte for byte: summary, both access
 * contexts and the "recent events:" timeline, at the default ring
 * capacity, at a capacity the workload wraps, and with no timeline.
 *
 * Activity instance ids are process-global and appear in the timeline,
 * so this binary holds this one test and builds its devices in a fixed
 * order.
 */
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "platform/logging.h"
#include "sim/android_system.h"
#include "view/text_view.h"
#include "view/view_group.h"

using namespace rchdroid;
using namespace rchdroid::analysis;

namespace {

/** One screen with a programmatically-set status label. */
class StatusActivity final : public Activity
{
  public:
    StatusActivity() : Activity("com.bad.app/.StatusActivity") {}

  protected:
    void
    onCreate(const Bundle *saved_state) override
    {
        (void)saved_state;
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto status = std::make_unique<TextView>("status");
        status->setText("ready");
        root->addChild(std::move(status));
        setContentView(std::move(root));
    }
};

/**
 * Two rotations under RCHDroid (the second one a coin flip), then an
 * unordered UI-thread write and worker read of the shadow's view.
 * Returns the first report's full text.
 */
std::string
shadowRaceReport(std::size_t timeline_capacity)
{
    AnalyzerOptions options;
    options.abort_on_violation = false;
    options.timeline_capacity = timeline_capacity;
    ScopedAnalyzer guard(options);
    EXPECT_TRUE(guard.installed());

    sim::SystemOptions system_options;
    system_options.mode = RuntimeChangeMode::RchDroid;
    sim::AndroidSystem device(system_options);
    sim::CustomAppParams params;
    params.process = "com.bad.app";
    params.component = "com.bad.app/.StatusActivity";
    params.factory = [] { return std::make_unique<StatusActivity>(); };
    device.installCustom(params);
    device.launchProcess("com.bad.app");
    for (int i = 0; i < 2; ++i) {
        device.rotate();
        EXPECT_TRUE(device.waitHandlingComplete());
    }

    ActivityThread &thread = *device.installedProcess("com.bad.app").thread;
    auto shadow = thread.shadowActivity();
    EXPECT_NE(shadow, nullptr);
    if (!shadow)
        return "";
    thread.postAppCallback([shadow] {
        shadow->findViewByIdAs<TextView>("status")->setText("ui write");
    });
    thread.workerLooper().post([shadow] {
        (void)shadow->findViewByIdAs<TextView>("status")->text();
    });
    device.runFor(milliseconds(5));

    const std::vector<Violation> &found = guard.analyzer().sink().violations();
    EXPECT_FALSE(found.empty());
    return found.empty() ? "" : found.front().toString();
}

constexpr const char *kDefaultCapacityReport = R"(DataRace @ 386710000ns: data race on TextView 'status': unordered write/read from com.bad.app.main and com.bad.app.async
  prior:   write by com.bad.app.main in dispatch #12 'appCallback' at 386.710ms (epoch 1:19)
  current: read by com.bad.app.async in dispatch #1 at 386.710ms (epoch 2:2)
  no happens-before path (message send, barrier, or program order) connects the two accesses
  recent events:
    1.000ms system_server.atms #1 'startActivity'
    26.900ms com.bad.app.main #1 'scheduleLaunchActivity'
    26.900ms com.bad.app/.StatusActivity#1 Initial -> Created
    26.900ms com.bad.app/.StatusActivity#1 Created -> Started
    26.900ms com.bad.app/.StatusActivity#1 Started -> Resumed
    143.220ms com.bad.app.main #2 'notifyResumed'
    144.220ms system_server.atms #2 'activityResumed'
    144.620ms system_server.atms #3 'updateConfiguration'
    148.420ms com.bad.app.main #3 'scheduleConfigurationChanged'
    148.420ms com.bad.app/.StatusActivity#1 Resumed -> Shadow
    151.395ms com.bad.app.main #5 'requestSunnyStart'
    152.395ms system_server.atms #4 'startActivity'
    178.315ms com.bad.app.main #6 'scheduleLaunchActivity'
    178.315ms com.bad.app/.StatusActivity#2 Initial -> Created
    178.315ms com.bad.app/.StatusActivity#2 Created -> Started
    178.315ms com.bad.app/.StatusActivity#2 Started -> Sunny
    296.315ms com.bad.app.main #7 'notifyResumed'
    297.315ms system_server.atms #5 'activityResumed'
    297.715ms system_server.atms #6 'updateConfiguration'
    301.515ms com.bad.app.main #8 'scheduleConfigurationChanged'
    301.515ms com.bad.app/.StatusActivity#2 Sunny -> Shadow
    304.490ms com.bad.app.main #9 'requestSunnyStart'
    305.490ms system_server.atms #7 'startActivity'
    322.030ms com.bad.app.main #10 'scheduleLaunchActivity'
    322.030ms barrier 'coinFlip'
    322.030ms com.bad.app/.StatusActivity#1 Shadow -> Sunny
    385.710ms com.bad.app.main #11 'notifyResumed'
    386.710ms system_server.atms #8 'activityResumed'
    386.710ms com.bad.app.main #12 'appCallback'
    386.710ms com.bad.app.async #1)";

constexpr const char *kCapacityFiveReport = R"(DataRace @ 386710000ns: data race on TextView 'status': unordered write/read from com.bad.app.main and com.bad.app.async
  prior:   write by com.bad.app.main in dispatch #12 'appCallback' at 386.710ms (epoch 1:19)
  current: read by com.bad.app.async in dispatch #1 at 386.710ms (epoch 2:2)
  no happens-before path (message send, barrier, or program order) connects the two accesses
  recent events:
    322.030ms com.bad.app/.StatusActivity#3 Shadow -> Sunny
    385.710ms com.bad.app.main #11 'notifyResumed'
    386.710ms system_server.atms #8 'activityResumed'
    386.710ms com.bad.app.main #12 'appCallback'
    386.710ms com.bad.app.async #1)";

constexpr const char *kNoTimelineReport = R"(DataRace @ 386710000ns: data race on TextView 'status': unordered write/read from com.bad.app.main and com.bad.app.async
  prior:   write by com.bad.app.main in dispatch #12 'appCallback' at 386.710ms (epoch 1:19)
  current: read by com.bad.app.async in dispatch #1 at 386.710ms (epoch 2:2)
  no happens-before path (message send, barrier, or program order) connects the two accesses)";

} // namespace

TEST(TimelineGolden, RaceReportTextIsPinned)
{
    ScopedLogSilencer quiet;
    EXPECT_EQ(shadowRaceReport(AnalyzerOptions{}.timeline_capacity),
              kDefaultCapacityReport);
    EXPECT_EQ(shadowRaceReport(5), kCapacityFiveReport);
    EXPECT_EQ(shadowRaceReport(0), kNoTimelineReport);
}
