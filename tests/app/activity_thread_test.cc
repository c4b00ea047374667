/**
 * @file
 * ActivityThread: transaction handling, the stock relaunch path, the
 * crash guard, heap accounting with the async leak.
 */
#include <gtest/gtest.h>

#include "app/activity_thread.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** Records lifecycle callbacks; content is one EditText + label. */
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
        root->addChild(std::make_unique<EditText>("edit"));
        root->addChild(std::make_unique<TextView>("label"));
        setContentView(std::move(root));
    }
};

class CapturingManager final : public ActivityManager
{
  public:
    void startActivity(const Intent &intent) override
    { intents.push_back(intent); }
    void activityResumed(ActivityToken token) override
    { resumed.push_back(token); }
    void activityStopped(ActivityToken) override {}
    void activityDestroyed(ActivityToken token) override
    { destroyed.push_back(token); }
    void shadowActivityReclaimed(ActivityToken token) override
    { reclaimed.push_back(token); }
    void
    processCrashed(const std::string &process, const std::string &r) override
    {
        crashes.push_back(process + ": " + r);
    }

    std::vector<Intent> intents;
    std::vector<ActivityToken> resumed, destroyed, reclaimed;
    std::vector<std::string> crashes;
};

struct ThreadFixture : ::testing::Test
{
    ThreadFixture()
    {
        ProcessParams params;
        params.process_name = "test.proc";
        params.base_heap_bytes = 10 << 20;
        thread = std::make_unique<ActivityThread>(
            scheduler, params, std::make_shared<ResourceTable>(),
            ResourceCostModel{}, FrameworkCosts{});
        thread->setActivityManager(&am);
        thread->registerActivityFactory("test/.Probe", [] {
            return std::make_unique<ProbeActivity>();
        });
    }

    LaunchArgs
    launchArgs(ActivityToken token)
    {
        LaunchArgs args;
        args.token = token;
        args.component = "test/.Probe";
        args.config = Configuration::defaultPortrait();
        return args;
    }

    SimScheduler scheduler;
    CapturingManager am;
    std::unique_ptr<ActivityThread> thread;
};

TEST_F(ThreadFixture, LaunchCreatesResumedActivityAndReports)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    auto activity = thread->activityForToken(7);
    ASSERT_NE(activity, nullptr);
    EXPECT_EQ(activity->lifecycleState(), LifecycleState::Resumed);
    ASSERT_EQ(am.resumed.size(), 1u);
    EXPECT_EQ(am.resumed[0], 7u);
    EXPECT_EQ(thread->foregroundActivity(), activity);
}

TEST_F(ThreadFixture, RelaunchReplacesInstanceAndRestoresDefaultState)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    auto first = thread->activityForToken(7);
    // EditText keeps text across a stock relaunch (default save covers
    // it); TextView does not.
    thread->postAppCallback([&] {
        auto *edit = first->findViewByIdAs<EditText>("edit");
        edit->typeText("kept");
        first->findViewByIdAs<TextView>("label")->setText("lost");
    });
    scheduler.runUntilIdle();

    thread->scheduleRelaunchActivity(7, Configuration::defaultLandscape());
    scheduler.runUntilIdle();
    auto second = thread->activityForToken(7);
    ASSERT_NE(second, nullptr);
    EXPECT_NE(second->instanceId(), first->instanceId());
    EXPECT_EQ(second->configuration().orientation, Orientation::Landscape);
    EXPECT_EQ(second->findViewByIdAs<EditText>("edit")->text(), "kept");
    EXPECT_EQ(second->findViewByIdAs<TextView>("label")->text(), "");
    EXPECT_TRUE(first->isDestroyed());
    EXPECT_EQ(am.resumed.size(), 2u);
}

TEST_F(ThreadFixture, ConfigurationChangedWithoutHandlerGoesToActivity)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    auto activity = thread->activityForToken(7);
    thread->scheduleConfigurationChanged(
        7, Configuration::defaultLandscape());
    scheduler.runUntilIdle();
    // Same instance, new configuration (the android:configChanges path).
    EXPECT_EQ(thread->activityForToken(7), activity);
    EXPECT_EQ(activity->configuration().orientation, Orientation::Landscape);
}

TEST_F(ThreadFixture, DestroyRemovesAndReports)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    thread->scheduleDestroyActivity(7);
    scheduler.runUntilIdle();
    EXPECT_EQ(thread->activityForToken(7), nullptr);
    ASSERT_EQ(am.destroyed.size(), 1u);
}

TEST_F(ThreadFixture, CrashGuardConvertsUiExceptionToProcessDeath)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    auto activity = thread->activityForToken(7);
    View *label = activity->findViewById("label");
    activity->performDestroy(); // framework tore it down
    thread->dropActivity(7);

    thread->postAppCallback([label] {
        // App code touching the dead view — the Fig. 1 crash.
        dynamic_cast<TextView *>(label)->setText("boom");
    });
    scheduler.runUntilIdle();
    EXPECT_TRUE(thread->crashed());
    EXPECT_EQ(thread->crashInfo()->kind, UiFailureKind::NullPointer);
    ASSERT_EQ(am.crashes.size(), 1u);
    EXPECT_EQ(thread->totalHeapBytes(), 0u);
}

TEST_F(ThreadFixture, TransactionsIgnoredAfterCrash)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    thread->postAppCallback(
        [] { throw UiException(UiFailureKind::WindowLeaked, "leak"); });
    scheduler.runUntilIdle();
    ASSERT_TRUE(thread->crashed());
    thread->scheduleLaunchActivity(launchArgs(8));
    scheduler.runUntilIdle();
    EXPECT_EQ(thread->activityForToken(8), nullptr);
}

TEST_F(ThreadFixture, HeapIncludesBaseAndActivities)
{
    EXPECT_EQ(thread->totalHeapBytes(), 10u << 20);
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    EXPECT_GT(thread->totalHeapBytes(), 10u << 20);
}

TEST_F(ThreadFixture, LeakedActivityCountedUntilAsyncDrains)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    auto activity = thread->activityForToken(7);

    auto task = std::make_shared<AsyncTask>(*thread, activity, "pin");
    task->execute(seconds(5), [] {});
    const auto with_live = thread->totalHeapBytes();

    // Stock relaunch while the task runs: the dead instance stays
    // reachable through the task's reference.
    thread->scheduleRelaunchActivity(7, Configuration::defaultLandscape());
    scheduler.runUntil(seconds(1));
    const auto with_leak = thread->totalHeapBytes();
    EXPECT_GT(with_leak, with_live); // old + new instances both counted

    scheduler.runUntilIdle(); // task finishes, leak released
    EXPECT_LT(thread->totalHeapBytes(), with_leak);
}

TEST_F(ThreadFixture, ShadowActivityLookup)
{
    thread->scheduleLaunchActivity(launchArgs(7));
    scheduler.runUntilIdle();
    EXPECT_EQ(thread->shadowActivity(), nullptr);
    auto activity = thread->activityForToken(7);
    thread->postAppCallback([&] { activity->enterShadowState(); });
    scheduler.runUntilIdle();
    EXPECT_EQ(thread->shadowActivity(), activity);
    EXPECT_EQ(thread->foregroundActivity(), nullptr);
}

TEST_F(ThreadFixture, UnknownFactoryIsFatal)
{
    LaunchArgs args;
    args.token = 9;
    args.component = "test/.Missing";
    thread->scheduleLaunchActivity(args);
    EXPECT_DEATH(scheduler.runUntilIdle(), "no factory");
}

} // namespace
} // namespace rchdroid
