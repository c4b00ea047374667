/**
 * @file
 * Activity: lifecycle driving, snapshots, the RCHDroid additions
 * (enterShadowState, getAllSunnyViews, setSunnyViews), cost charging.
 */
#include <gtest/gtest.h>

#include "app/activity.h"
#include "view/image_view.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** A hand-written app: one EditText + one ImageView + a label. */
class MiniApp : public Activity
{
  public:
    MiniApp() : Activity("test/.Mini") {}

    int create_calls = 0;
    int resume_calls = 0;
    int config_changes = 0;
    Bundle last_restored;

  protected:
    void
    onCreate(const Bundle *saved) override
    {
        ++create_calls;
        (void)saved;
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        root->addChild(std::make_unique<EditText>("edit"));
        root->addChild(std::make_unique<ImageView>("img"));
        root->addChild(std::make_unique<TextView>("label"));
        setContentView(std::move(root));
    }

    void onResume() override { ++resume_calls; }

    void
    onConfigurationChanged(const Configuration &) override
    {
        ++config_changes;
    }

    void
    onSaveInstanceState(Bundle &out) override
    {
        out.putInt("app_counter", 99);
    }

    void
    onRestoreInstanceState(const Bundle &saved) override
    {
        last_restored = saved;
    }
};

struct ActivityFixture : ::testing::Test
{
    ActivityFixture()
    {
        auto table = std::make_shared<ResourceTable>();
        resources = std::make_unique<ResourceManager>(std::move(table),
                                                      ResourceCostModel{});
        inflater = std::make_unique<LayoutInflater>(*resources, 0);
        scheduler = std::make_unique<SimScheduler>();
        looper = std::make_unique<Looper>(*scheduler, "ui");
    }

    ActivityContext
    makeContext(FrameworkCosts costs = {})
    {
        ActivityContext context;
        context.ui_looper = looper.get();
        context.resources = resources.get();
        context.inflater = inflater.get();
        context.costs = costs;
        return context;
    }

    /** Drive the full create→resume chain. */
    void
    launch(Activity &activity, bool sunny = false, const Bundle *saved = nullptr)
    {
        activity.performCreate(Configuration::defaultPortrait(), saved);
        activity.performStart();
        if (saved)
            activity.performRestoreInstanceState(*saved);
        activity.performResume(sunny);
    }

    std::unique_ptr<ResourceManager> resources;
    std::unique_ptr<LayoutInflater> inflater;
    std::unique_ptr<SimScheduler> scheduler;
    std::unique_ptr<Looper> looper;
};

TEST_F(ActivityFixture, LaunchReachesResumed)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    EXPECT_EQ(app.lifecycleState(), LifecycleState::Resumed);
    EXPECT_EQ(app.create_calls, 1);
    EXPECT_EQ(app.resume_calls, 1);
    EXPECT_NE(app.findViewById("edit"), nullptr);
}

TEST_F(ActivityFixture, SunnyLaunch)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app, /*sunny=*/true);
    EXPECT_TRUE(app.isSunny());
    // The tree carries the sunny flag.
    EXPECT_TRUE(app.findViewById("edit")->isSunny());
}

TEST_F(ActivityFixture, InstanceIdsAreUnique)
{
    MiniApp a, b;
    EXPECT_NE(a.instanceId(), b.instanceId());
}

TEST_F(ActivityFixture, SnapshotContainsViewsAndAppState)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.findViewByIdAs<EditText>("edit")->typeText("draft");
    Bundle snapshot = app.saveInstanceStateNow(/*full=*/true);
    EXPECT_TRUE(snapshot.contains("views"));
    EXPECT_EQ(snapshot.getBundle("app").getInt("app_counter"), 99);
    EXPECT_EQ(snapshot.getBundle("views").getBundle("edit").getString("text"),
              "draft");
}

TEST_F(ActivityFixture, RestoreAppliesViewStateAndAppHook)
{
    MiniApp first;
    first.attachContext(makeContext());
    launch(first);
    first.findViewByIdAs<EditText>("edit")->typeText("kept");
    const Bundle saved = first.saveInstanceStateNow(true);

    MiniApp second;
    second.attachContext(makeContext());
    launch(second, false, &saved);
    EXPECT_EQ(second.findViewByIdAs<EditText>("edit")->text(), "kept");
    EXPECT_EQ(second.last_restored.getInt("app_counter"), 99);
}

TEST_F(ActivityFixture, EnterShadowStateFlagsAndSnapshots)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.findViewByIdAs<TextView>("label")->setText("status");

    const Bundle snapshot = app.enterShadowState();
    EXPECT_TRUE(app.isShadow());
    EXPECT_TRUE(app.hasShadowSnapshot());
    EXPECT_TRUE(app.findViewById("label")->isShadow());
    // The explicit snapshot is full: the TextView's text is in it.
    EXPECT_EQ(snapshot.getBundle("views").getBundle("label").getString("text"),
              "status");
}

TEST_F(ActivityFixture, EnterShadowStateKeepsOneSnapshot)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.findViewByIdAs<EditText>("edit")->typeText("draft");
    app.findViewByIdAs<TextView>("label")->setText("status");
    const Bundle before = app.saveInstanceStateNow(/*full=*/true);

    // The returned snapshot is the one the activity keeps, not a copy.
    const Bundle &snapshot = app.enterShadowState();
    EXPECT_EQ(&snapshot, &app.shadowSnapshot());
    EXPECT_TRUE(snapshot == before);
}

TEST_F(ActivityFixture, FlipBackToSunnyClearsSnapshot)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.enterShadowState();
    app.enterSunnyStateFromShadow();
    EXPECT_TRUE(app.isSunny());
    EXPECT_FALSE(app.hasShadowSnapshot());
    EXPECT_FALSE(app.findViewById("label")->isShadow());
    EXPECT_TRUE(app.findViewById("label")->isSunny());
}

TEST_F(ActivityFixture, MappingHashTableAndPeerWiring)
{
    MiniApp sunny, shadow;
    sunny.attachContext(makeContext());
    shadow.attachContext(makeContext());
    launch(sunny, true);
    launch(shadow);
    shadow.enterShadowState();

    auto table = sunny.getAllSunnyViews();
    // decor has an id too ("decor"): root, edit, img, label, decor.
    EXPECT_EQ(table.size(), 5u);
    const int wired = shadow.setSunnyViews(table);
    EXPECT_EQ(wired, 5);
    View *shadow_edit = shadow.findViewById("edit");
    ASSERT_NE(shadow_edit->sunnyPeer(), nullptr);
    EXPECT_EQ(shadow_edit->sunnyPeer(), sunny.findViewById("edit"));
    // Reverse link for free coin flips.
    EXPECT_EQ(sunny.findViewById("edit")->sunnyPeer(), shadow_edit);
}

TEST_F(ActivityFixture, DegradeSunnyToResumed)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app, true);
    app.degradeSunnyToResumed();
    EXPECT_EQ(app.lifecycleState(), LifecycleState::Resumed);
    EXPECT_FALSE(app.findViewById("edit")->isSunny());
}

TEST_F(ActivityFixture, DestroyReleasesTreeAndSnapshot)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.enterShadowState();
    app.performDestroy();
    EXPECT_TRUE(app.isDestroyed());
    EXPECT_FALSE(app.hasShadowSnapshot());
    EXPECT_TRUE(app.findViewById("edit")->isDestroyed());
}

TEST_F(ActivityFixture, ConfigurationChangeRelayoutsAndNotifies)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.performConfigurationChanged(Configuration::defaultLandscape());
    EXPECT_EQ(app.config_changes, 1);
    EXPECT_EQ(app.configuration().orientation, Orientation::Landscape);
    EXPECT_EQ(app.window().decorView().frameWidth(), 1920);
}

TEST_F(ActivityFixture, CostChargingInsideDispatch)
{
    FrameworkCosts costs;
    costs.activity_construct = milliseconds(2);
    costs.on_create_base = milliseconds(10);
    costs.on_start = milliseconds(1);
    costs.on_resume = milliseconds(1);

    auto app = std::make_shared<MiniApp>();
    app->attachContext(makeContext(costs));
    looper->post([&] {
        app->performCreate(Configuration::defaultPortrait(), nullptr);
        app->performStart();
        app->performResume();
    });
    scheduler->runUntilIdle();
    EXPECT_EQ(looper->totalBusyTime(), milliseconds(14));
}

TEST_F(ActivityFixture, MemoryFootprintGrowsWithShadowSnapshot)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.findViewByIdAs<EditText>("edit")->typeText(std::string(5000, 'x'));
    const auto before = app.memoryFootprintBytes();
    app.enterShadowState();
    EXPECT_GT(app.memoryFootprintBytes(), before);
}

TEST_F(ActivityFixture, DrawableBytesInTree)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    EXPECT_EQ(app.drawableBytesInTree(), 0u);
    app.findViewByIdAs<ImageView>("img")->setDrawable(
        DrawableValue{"a", 10, 10});
    EXPECT_EQ(app.drawableBytesInTree(), 400u);
}

TEST_F(ActivityFixture, PrivateHeapCounted)
{
    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    const auto before = app.memoryFootprintBytes();
    app.setPrivateHeapBytes(1 << 20);
    EXPECT_EQ(app.memoryFootprintBytes(), before + (1 << 20));
}

TEST_F(ActivityFixture, InvalidationListenerReceivesEvents)
{
    class Listener final : public InvalidationListener
    {
      public:
        void
        onViewInvalidated(Activity &, View &view) override
        {
            last = &view;
        }
        View *last = nullptr;
    } listener;

    MiniApp app;
    app.attachContext(makeContext());
    launch(app);
    app.setInvalidationListener(&listener);
    app.findViewByIdAs<TextView>("label")->setText("ping");
    EXPECT_EQ(listener.last, app.findViewById("label"));
}

TEST_F(ActivityFixture, IllegalTransitionPanics)
{
    MiniApp app;
    app.attachContext(makeContext());
    app.performCreate(Configuration::defaultPortrait(), nullptr);
    EXPECT_DEATH(app.performResume(), "illegal lifecycle transition");
}

} // namespace
} // namespace rchdroid
