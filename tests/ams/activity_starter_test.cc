/**
 * @file
 * ActivityStarter: the sunny-flag launch paths — second-instance
 * creation and the coin flip (Fig. 6).
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
    void scheduleRelaunchActivity(ActivityToken, const Configuration &) override
    {}
    void scheduleConfigurationChanged(ActivityToken,
                                      const Configuration &) override
    {}
    void scheduleDestroyActivity(ActivityToken) override {}
    void scheduleStopActivity(ActivityToken token) override
    { stops.push_back(token); }
    void scheduleResumeActivity(ActivityToken token) override
    { resumes.push_back(token); }

    std::vector<LaunchArgs> launches;
    std::vector<ActivityToken> stops, resumes;
};

struct StarterFixture : ::testing::Test
{
    StarterFixture() : atms(scheduler, AtmsCosts{}, /*binder_latency=*/0)
    {
        atms.setMode(RuntimeChangeMode::RchDroid);
        atms.registerProcess("app", client);
        atms.declareComponent("app/.Main", ComponentInfo{});
        Intent intent;
        intent.component = "app/.Main";
        intent.source_process = "app";
        intent.flags = kFlagNewTask;
        atms.startActivity(intent);
        scheduler.runUntilIdle();
        original = atms.foregroundToken();
        atms.activityResumed(original);
        scheduler.runUntilIdle();
    }

    void
    startSunny()
    {
        Intent intent;
        intent.component = "app/.Main";
        intent.source_process = "app";
        intent.flags = kFlagSunny;
        atms.startActivity(intent);
        scheduler.runUntilIdle();
    }

    SimScheduler scheduler;
    ScriptedClient client;
    Atms atms;
    ActivityToken original = kInvalidToken;
};

TEST_F(StarterFixture, SunnyStartCreatesSecondInstanceOfSameComponent)
{
    startSunny();
    // Without the sunny flag this would be suppressed (same on top);
    // with it a second record exists.
    EXPECT_EQ(atms.recordCount(), 2u);
    ASSERT_EQ(client.launches.size(), 2u);
    const LaunchArgs &sunny = client.launches[1];
    EXPECT_TRUE(sunny.sunny);
    EXPECT_FALSE(sunny.flipped);
    EXPECT_EQ(sunny.shadowed_token, original);
    EXPECT_NE(sunny.token, original);
    // The displaced record carries the shadow flag.
    EXPECT_TRUE(atms.recordFor(original)->isShadow());
    EXPECT_FALSE(atms.recordFor(sunny.token)->isShadow());
    EXPECT_EQ(atms.foregroundToken(), sunny.token);
    EXPECT_EQ(atms.starterStats().sunny_creates, 1u);
}

TEST_F(StarterFixture, SecondSunnyStartCoinFlips)
{
    startSunny();
    const ActivityToken sunny1 = atms.foregroundToken();
    startSunny();
    // The flip reuses the original record: no third record.
    EXPECT_EQ(atms.recordCount(), 2u);
    ASSERT_EQ(client.launches.size(), 3u);
    const LaunchArgs &flip = client.launches[2];
    EXPECT_TRUE(flip.flipped);
    EXPECT_EQ(flip.token, original);
    EXPECT_EQ(flip.shadowed_token, sunny1);
    EXPECT_EQ(atms.foregroundToken(), original);
    EXPECT_TRUE(atms.recordFor(sunny1)->isShadow());
    EXPECT_FALSE(atms.recordFor(original)->isShadow());
    EXPECT_EQ(atms.starterStats().coin_flips, 1u);
}

TEST_F(StarterFixture, FlipsAlternateIndefinitely)
{
    startSunny();
    for (int i = 0; i < 6; ++i)
        startSunny();
    EXPECT_EQ(atms.recordCount(), 2u);
    EXPECT_EQ(atms.starterStats().coin_flips, 6u);
    EXPECT_EQ(atms.starterStats().sunny_creates, 1u);
}

TEST_F(StarterFixture, ReclaimedShadowForcesFreshCreate)
{
    startSunny();
    // GC reclaims the shadow record.
    atms.shadowActivityReclaimed(original);
    scheduler.runUntilIdle();
    EXPECT_EQ(atms.recordCount(), 1u);
    startSunny();
    // No shadow found → a new record, not a flip.
    EXPECT_EQ(atms.starterStats().coin_flips, 0u);
    EXPECT_EQ(atms.starterStats().sunny_creates, 2u);
    EXPECT_EQ(atms.recordCount(), 2u);
}

TEST_F(StarterFixture, FlipUpdatesRecordConfiguration)
{
    startSunny();
    atms.setInitialConfiguration(Configuration::defaultPortrait());
    startSunny();
    EXPECT_EQ(atms.recordFor(original)->configuration().orientation,
              Orientation::Portrait);
}

} // namespace
} // namespace rchdroid
