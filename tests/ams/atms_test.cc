/**
 * @file
 * Atms: configuration dispatch per mode, lifecycle bookkeeping, crash
 * and reclamation handling. Uses a scripted ActivityClient.
 */
#include <gtest/gtest.h>

#include <vector>

#include "ams/atms.h"

namespace rchdroid {
namespace {

class ScriptedClient final : public ActivityClient
{
  public:
    void scheduleLaunchActivity(const LaunchArgs &args) override
    { launches.push_back(args); }
    void scheduleRelaunchActivity(ActivityToken token,
                                  const Configuration &config) override
    {
        relaunches.emplace_back(token, config);
    }
    void scheduleConfigurationChanged(ActivityToken token,
                                      const Configuration &config) override
    {
        config_changes.emplace_back(token, config);
    }
    void scheduleDestroyActivity(ActivityToken token) override
    { destroys.push_back(token); }
    void scheduleStopActivity(ActivityToken token) override
    { stops.push_back(token); }
    void scheduleResumeActivity(ActivityToken token) override
    { resumes.push_back(token); }

    std::vector<LaunchArgs> launches;
    std::vector<std::pair<ActivityToken, Configuration>> relaunches;
    std::vector<std::pair<ActivityToken, Configuration>> config_changes;
    std::vector<ActivityToken> destroys, stops, resumes;
};

struct AtmsFixture : ::testing::Test
{
    AtmsFixture() : atms(scheduler, AtmsCosts{}, /*binder_latency=*/0)
    {
        atms.registerProcess("app", client);
        atms.declareComponent("app/.Main", ComponentInfo{});
    }

    /** Launch app/.Main and report it resumed. */
    ActivityToken
    launchMain()
    {
        Intent intent;
        intent.component = "app/.Main";
        intent.source_process = "app";
        intent.flags = kFlagNewTask;
        atms.startActivity(intent);
        scheduler.runUntilIdle();
        const ActivityToken token = atms.foregroundToken();
        atms.activityResumed(token);
        scheduler.runUntilIdle();
        return token;
    }

    SimScheduler scheduler;
    ScriptedClient client;
    Atms atms;
};

TEST_F(AtmsFixture, StartActivityCreatesRecordAndSchedulesLaunch)
{
    const ActivityToken token = launchMain();
    EXPECT_NE(token, kInvalidToken);
    ASSERT_EQ(client.launches.size(), 1u);
    EXPECT_EQ(client.launches[0].token, token);
    EXPECT_FALSE(client.launches[0].sunny);
    const ActivityRecord *record = atms.recordFor(token);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->state(), RecordState::Resumed);
    EXPECT_EQ(atms.starterStats().normal_starts, 1u);
}

TEST_F(AtmsFixture, SameComponentOnTopIsSuppressed)
{
    launchMain();
    Intent intent;
    intent.component = "app/.Main";
    intent.source_process = "app";
    atms.startActivity(intent);
    scheduler.runUntilIdle();
    EXPECT_EQ(client.launches.size(), 1u);
    EXPECT_EQ(atms.starterStats().suppressed_same_top, 1u);
    EXPECT_EQ(atms.recordCount(), 1u);
}

TEST_F(AtmsFixture, RestartModeRelaunchesOnConfigChange)
{
    atms.setMode(RuntimeChangeMode::Restart);
    const ActivityToken token = launchMain();
    atms.updateConfiguration(atms.currentConfiguration().rotated());
    scheduler.runUntilIdle();
    ASSERT_EQ(client.relaunches.size(), 1u);
    EXPECT_EQ(client.relaunches[0].first, token);
    EXPECT_TRUE(client.config_changes.empty());
}

TEST_F(AtmsFixture, RchModeSuppressesRelaunch)
{
    atms.setMode(RuntimeChangeMode::RchDroid);
    const ActivityToken token = launchMain();
    atms.updateConfiguration(atms.currentConfiguration().rotated());
    scheduler.runUntilIdle();
    EXPECT_TRUE(client.relaunches.empty());
    ASSERT_EQ(client.config_changes.size(), 1u);
    EXPECT_EQ(client.config_changes[0].first, token);
    // The record's configuration was updated in place.
    EXPECT_EQ(atms.recordFor(token)->configuration().orientation,
              atms.currentConfiguration().orientation);
}

TEST_F(AtmsFixture, DeclaredConfigChangesNeverRelaunchInEitherMode)
{
    atms.declareComponent("app/.Main", ComponentInfo{true});
    atms.setMode(RuntimeChangeMode::Restart);
    launchMain();
    atms.updateConfiguration(atms.currentConfiguration().rotated());
    scheduler.runUntilIdle();
    EXPECT_TRUE(client.relaunches.empty());
    EXPECT_EQ(client.config_changes.size(), 1u);
}

TEST_F(AtmsFixture, NoopConfigChangeIgnored)
{
    atms.setMode(RuntimeChangeMode::Restart);
    launchMain();
    atms.updateConfiguration(atms.currentConfiguration());
    scheduler.runUntilIdle();
    EXPECT_TRUE(client.relaunches.empty());
}

TEST_F(AtmsFixture, ConfigChangeWithNoForegroundIsSafe)
{
    atms.updateConfiguration(atms.currentConfiguration().rotated());
    scheduler.runUntilIdle();
    EXPECT_TRUE(client.relaunches.empty());
    EXPECT_TRUE(client.config_changes.empty());
}

TEST_F(AtmsFixture, ActivityDestroyedCleansRecordAndTaskEntry)
{
    const ActivityToken token = launchMain();
    atms.activityDestroyed(token);
    scheduler.runUntilIdle();
    EXPECT_EQ(atms.recordFor(token), nullptr);
    EXPECT_EQ(atms.foregroundToken(), kInvalidToken);
}

TEST_F(AtmsFixture, ProcessCrashRemovesTask)
{
    launchMain();
    atms.processCrashed("app", "NullPointerException");
    scheduler.runUntilIdle();
    EXPECT_EQ(atms.recordCount(), 0u);
    EXPECT_EQ(atms.stack().taskCount(), 0u);
}

TEST_F(AtmsFixture, ShadowReclaimedRemovesOnlyShadowRecords)
{
    const ActivityToken token = launchMain();
    // Not a shadow: reclamation must refuse.
    atms.shadowActivityReclaimed(token);
    scheduler.runUntilIdle();
    EXPECT_NE(atms.recordFor(token), nullptr);
}

TEST_F(AtmsFixture, LifecycleReportsUpdateRecordState)
{
    const ActivityToken token = launchMain();
    atms.activityStopped(token);
    scheduler.runUntilIdle();
    EXPECT_EQ(atms.recordFor(token)->state(), RecordState::Stopped);
}

TEST_F(AtmsFixture, SecondActivityInTaskStopsTheCoveredOne)
{
    atms.declareComponent("app/.Detail", ComponentInfo{});
    const ActivityToken inbox = launchMain();
    Intent intent;
    intent.component = "app/.Detail";
    intent.source_process = "app";
    atms.startActivity(intent);
    scheduler.runUntilIdle();
    ASSERT_EQ(client.stops.size(), 1u);
    EXPECT_EQ(client.stops[0], inbox);
    EXPECT_EQ(atms.recordFor(inbox)->state(), RecordState::Stopped);
    EXPECT_NE(atms.foregroundToken(), inbox);
}

TEST_F(AtmsFixture, BackPressDestroysTopAndResumesRevealed)
{
    atms.declareComponent("app/.Detail", ComponentInfo{});
    const ActivityToken inbox = launchMain();
    Intent intent;
    intent.component = "app/.Detail";
    intent.source_process = "app";
    atms.startActivity(intent);
    scheduler.runUntilIdle();
    const ActivityToken detail = atms.foregroundToken();

    atms.pressBack();
    scheduler.runUntilIdle();
    ASSERT_EQ(client.destroys.size(), 1u);
    EXPECT_EQ(client.destroys[0], detail);
    // The client reports the destruction; the ATMS then resumes inbox.
    atms.activityDestroyed(detail);
    scheduler.runUntilIdle();
    ASSERT_EQ(client.resumes.size(), 1u);
    EXPECT_EQ(client.resumes[0], inbox);
    EXPECT_EQ(atms.foregroundToken(), inbox);
}

TEST_F(AtmsFixture, SuppressedSameTopResumesWhenStopped)
{
    const ActivityToken token = launchMain();
    atms.activityStopped(token);
    scheduler.runUntilIdle();
    Intent intent;
    intent.component = "app/.Main";
    intent.source_process = "app";
    atms.startActivity(intent);
    scheduler.runUntilIdle();
    ASSERT_EQ(client.resumes.size(), 1u);
    EXPECT_EQ(client.resumes[0], token);
}

TEST_F(AtmsFixture, BackPressWithEmptyStackIsSafe)
{
    atms.pressBack();
    scheduler.runUntilIdle();
    EXPECT_TRUE(client.destroys.empty());
}

TEST_F(AtmsFixture, ModeNames)
{
    EXPECT_STREQ(runtimeChangeModeName(RuntimeChangeMode::Restart),
                 "Android-10");
    EXPECT_STREQ(runtimeChangeModeName(RuntimeChangeMode::RchDroid),
                 "RCHDroid");
}

} // namespace
} // namespace rchdroid
