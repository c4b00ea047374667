/**
 * @file
 * RchClientHandler: the client-side orchestration, driven with a real
 * ActivityThread and a scripted ActivityManager (no ATMS) so each piece
 * of the protocol is observable.
 */
#include <gtest/gtest.h>

#include "rch/rch_client_handler.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

class ProbeActivity : public Activity
{
  public:
    ProbeActivity() : Activity("test/.Probe") {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        root->addChild(std::make_unique<TextView>("label"));
        root->addChild(std::make_unique<EditText>("edit"));
        setContentView(std::move(root));
    }
};

class ScriptedManager final : public ActivityManager
{
  public:
    void startActivity(const Intent &intent) override
    { intents.push_back(intent); }
    void activityResumed(ActivityToken token) override
    { resumed.push_back(token); }
    void activityStopped(ActivityToken) override {}
    void activityDestroyed(ActivityToken) override {}
    void shadowActivityReclaimed(ActivityToken token) override
    { reclaimed.push_back(token); }
    void processCrashed(const std::string &, const std::string &) override {}

    std::vector<Intent> intents;
    std::vector<ActivityToken> resumed, reclaimed;
};

struct HandlerFixture : ::testing::Test
{
    HandlerFixture()
    {
        ProcessParams params;
        params.process_name = "test.proc";
        thread = std::make_unique<ActivityThread>(
            scheduler, params, std::make_shared<ResourceTable>(),
            ResourceCostModel{}, FrameworkCosts{});
        thread->setActivityManager(&am);
        thread->registerActivityFactory("test/.Probe", [] {
            return std::make_unique<ProbeActivity>();
        });
        handler = std::make_unique<RchClientHandler>(config);
        handler->attach(*thread);

        LaunchArgs args;
        args.token = 1;
        args.component = "test/.Probe";
        args.config = Configuration::defaultPortrait();
        thread->scheduleLaunchActivity(args);
        scheduler.runUntilIdle();
    }

    /** Deliver the config change, then the ATMS's scripted response. */
    void
    deliverConfigChange(const Configuration &config)
    {
        thread->scheduleConfigurationChanged(1, config);
        settle();
    }

    /** Run briefly — bounded, so the GC timer does not play out to the
     *  50 s collection horizon mid-test. */
    void
    settle()
    {
        scheduler.runUntil(scheduler.now() + seconds(1));
    }

    RchConfig config;
    SimScheduler scheduler;
    ScriptedManager am;
    std::unique_ptr<ActivityThread> thread;
    std::unique_ptr<RchClientHandler> handler;
};

TEST_F(HandlerFixture, ConfigChangeShadowsAndRequestsSunnyStart)
{
    deliverConfigChange(Configuration::defaultLandscape());
    auto original = thread->activityForToken(1);
    EXPECT_TRUE(original->isShadow());
    ASSERT_EQ(am.intents.size(), 1u);
    EXPECT_TRUE(am.intents[0].hasFlag(kFlagSunny));
    EXPECT_EQ(am.intents[0].component, "test/.Probe");
    EXPECT_EQ(handler->stats().runtime_changes, 1u);
}

TEST_F(HandlerFixture, SunnyLaunchRestoresFromShadowSnapshotAndMaps)
{
    // User state before the change.
    thread->postAppCallback([&] {
        thread->activityForToken(1)
            ->findViewByIdAs<TextView>("label")
            ->setText("timer 00:42");
    });
    settle();
    deliverConfigChange(Configuration::defaultLandscape());

    // The ATMS's scripted reply: fresh sunny record 2.
    LaunchArgs sunny;
    sunny.token = 2;
    sunny.component = "test/.Probe";
    sunny.config = Configuration::defaultLandscape();
    sunny.sunny = true;
    sunny.shadowed_token = 1;
    thread->scheduleLaunchActivity(sunny);
    settle();

    auto shadow = thread->activityForToken(1);
    auto fresh = thread->activityForToken(2);
    ASSERT_NE(fresh, nullptr);
    EXPECT_TRUE(fresh->isSunny());
    // Full snapshot restored: the TextView text survived.
    EXPECT_EQ(fresh->findViewByIdAs<TextView>("label")->text(),
              "timer 00:42");
    // Peers wired both ways.
    EXPECT_EQ(shadow->findViewById("label")->sunnyPeer(),
              fresh->findViewById("label"));
    EXPECT_EQ(handler->stats().init_launches, 1u);
    EXPECT_EQ(am.resumed.back(), 2u);
}

TEST_F(HandlerFixture, AsyncUpdateAfterLaunchIsLazilyMigrated)
{
    deliverConfigChange(Configuration::defaultLandscape());
    LaunchArgs sunny;
    sunny.token = 2;
    sunny.component = "test/.Probe";
    sunny.config = Configuration::defaultLandscape();
    sunny.sunny = true;
    sunny.shadowed_token = 1;
    thread->scheduleLaunchActivity(sunny);
    settle();

    auto shadow = thread->activityForToken(1);
    thread->postAppCallback([shadow] {
        shadow->findViewByIdAs<TextView>("label")->setText("async!");
    });
    settle();
    EXPECT_EQ(thread->activityForToken(2)
                  ->findViewByIdAs<TextView>("label")
                  ->text(),
              "async!");
    EXPECT_GE(handler->stats().views_migrated, 1u);
}

TEST_F(HandlerFixture, FlipSwapsRolesAndSyncsState)
{
    deliverConfigChange(Configuration::defaultLandscape());
    LaunchArgs sunny;
    sunny.token = 2;
    sunny.component = "test/.Probe";
    sunny.config = Configuration::defaultLandscape();
    sunny.sunny = true;
    sunny.shadowed_token = 1;
    thread->scheduleLaunchActivity(sunny);
    settle();

    // New user state on the sunny instance.
    thread->postAppCallback([&] {
        thread->activityForToken(2)
            ->findViewByIdAs<EditText>("edit")
            ->typeText("newest");
    });
    settle();

    // Second change → ATMS flips record 1 back on top.
    deliverConfigChange(Configuration::defaultPortrait());
    LaunchArgs flip;
    flip.token = 1;
    flip.component = "test/.Probe";
    flip.config = Configuration::defaultPortrait();
    flip.sunny = true;
    flip.flipped = true;
    flip.shadowed_token = 2;
    thread->scheduleLaunchActivity(flip);
    settle();

    auto one = thread->activityForToken(1);
    auto two = thread->activityForToken(2);
    EXPECT_TRUE(one->isSunny());
    EXPECT_TRUE(two->isShadow());
    // The freshest state crossed over during the flip sync.
    EXPECT_EQ(one->findViewByIdAs<EditText>("edit")->text(), "newest");
    EXPECT_EQ(one->configuration().orientation, Orientation::Portrait);
    EXPECT_EQ(handler->stats().flips, 1u);
}

TEST_F(HandlerFixture, GcCollectsOldShadowAndNotifiesAtms)
{
    // Default thresholds: THRESH_T = 50 s, window 60 s. After 70 idle
    // seconds the shadow is old and infrequent.
    deliverConfigChange(Configuration::defaultLandscape());
    LaunchArgs sunny;
    sunny.token = 2;
    sunny.component = "test/.Probe";
    sunny.config = Configuration::defaultLandscape();
    sunny.sunny = true;
    sunny.shadowed_token = 1;
    thread->scheduleLaunchActivity(sunny);
    settle();

    ASSERT_NE(thread->shadowActivity(), nullptr);
    // Let the shadow age past THRESH_T with no further changes; the
    // trailing-window frequency decays to 0 after 60 s.
    scheduler.runUntil(scheduler.now() + seconds(70));
    EXPECT_EQ(thread->shadowActivity(), nullptr);
    ASSERT_EQ(am.reclaimed.size(), 1u);
    EXPECT_EQ(am.reclaimed[0], 1u);
    EXPECT_GE(handler->stats().gc_collections, 1u);
    // The surviving foreground degraded Sunny → Resumed.
    EXPECT_EQ(thread->activityForToken(2)->lifecycleState(),
              LifecycleState::Resumed);
}

TEST_F(HandlerFixture, ForegroundGoneReleasesShadowImmediately)
{
    deliverConfigChange(Configuration::defaultLandscape());
    LaunchArgs sunny;
    sunny.token = 2;
    sunny.component = "test/.Probe";
    sunny.config = Configuration::defaultLandscape();
    sunny.sunny = true;
    sunny.shadowed_token = 1;
    thread->scheduleLaunchActivity(sunny);
    settle();

    thread->scheduleDestroyActivity(2);
    settle();
    EXPECT_EQ(thread->shadowActivity(), nullptr);
    EXPECT_EQ(am.reclaimed.size(), 1u);
}

TEST_F(HandlerFixture, DoGcKeepsYoungShadow)
{
    deliverConfigChange(Configuration::defaultLandscape());
    LaunchArgs sunny;
    sunny.token = 2;
    sunny.component = "test/.Probe";
    sunny.config = Configuration::defaultLandscape();
    sunny.sunny = true;
    sunny.shadowed_token = 1;
    thread->scheduleLaunchActivity(sunny);
    settle();

    EXPECT_FALSE(handler->doGcForShadowIfNeeded(*thread));
    EXPECT_NE(thread->shadowActivity(), nullptr);
    EXPECT_GE(handler->stats().gc_keeps, 1u);
}

} // namespace
} // namespace rchdroid
