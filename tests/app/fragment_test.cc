/**
 * @file
 * Fragment / FragmentManager: dynamic attach/detach, state
 * preservation, and interaction with the RCHDroid machinery — the
 * §2.2 scenario app-level patching cannot handle.
 */
#include <gtest/gtest.h>

#include "app/activity.h"
#include "rch/lazy_migrator.h"
#include "rch/view_tree_mapper.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** A fragment with one EditText and a private counter. */
class FormFragment final : public Fragment
{
  public:
    explicit FormFragment(std::string tag) : Fragment(std::move(tag)) {}

    int private_counter = 0;

  protected:
    std::unique_ptr<View>
    onCreateView() override
    {
        auto root = std::make_unique<FrameLayout>(tag() + "_root");
        auto edit = std::make_unique<EditText>(tag() + "_edit");
        root->addChild(std::move(edit));
        return root;
    }

    void
    onSaveState(Bundle &out) override
    {
        out.putInt("counter", private_counter);
    }

    void
    onRestoreState(const Bundle &saved) override
    {
        private_counter = static_cast<int>(saved.getInt("counter"));
    }
};

/** Host activity with a fragment container. */
class HostActivity : public Activity
{
  public:
    HostActivity() : Activity("test/.Host") {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        root->addChild(std::make_unique<FrameLayout>("container"));
        setContentView(std::move(root));
    }
};

struct FragmentFixture : ::testing::Test
{
    FragmentFixture()
    {
        table = std::make_shared<ResourceTable>();
        resources.emplace(table, ResourceCostModel{});
        inflater.emplace(*resources, 0);
    }

    void
    launch(Activity &activity)
    {
        ActivityContext context;
        context.resources = &*resources;
        context.inflater = &*inflater;
        activity.attachContext(context);
        activity.performCreate(Configuration::defaultPortrait(), nullptr);
        activity.performStart();
        activity.performResume();
    }

    std::shared_ptr<ResourceTable> table;
    std::optional<ResourceManager> resources;
    std::optional<LayoutInflater> inflater;
};

TEST_F(FragmentFixture, AttachInsertsViewTree)
{
    HostActivity host;
    launch(host);
    auto fragment = std::make_shared<FormFragment>("form");
    ASSERT_TRUE(host.fragmentManager().attach("container", fragment));
    EXPECT_TRUE(fragment->isAttached());
    EXPECT_EQ(fragment->containerId(), "container");
    EXPECT_NE(host.findViewById("form_edit"), nullptr);
    EXPECT_EQ(host.fragmentManager().attachedCount(), 1u);
    // The fragment's views report invalidations to the host activity.
    EXPECT_EQ(host.findViewById("form_edit")->host(), &host);
}

TEST_F(FragmentFixture, DetachRemovesViewTree)
{
    HostActivity host;
    launch(host);
    auto fragment = std::make_shared<FormFragment>("form");
    ASSERT_TRUE(host.fragmentManager().attach("container", fragment));
    ASSERT_TRUE(host.fragmentManager().detach("form"));
    EXPECT_FALSE(fragment->isAttached());
    EXPECT_EQ(host.findViewById("form_edit"), nullptr);
    EXPECT_EQ(host.fragmentManager().attachedCount(), 0u);
}

TEST_F(FragmentFixture, AttachErrors)
{
    HostActivity host;
    launch(host);
    auto fragment = std::make_shared<FormFragment>("form");
    EXPECT_FALSE(host.fragmentManager().attach("missing", fragment));
    ASSERT_TRUE(host.fragmentManager().attach("container", fragment));
    EXPECT_FALSE(host.fragmentManager().attach("container", fragment));
    auto dup = std::make_shared<FormFragment>("form");
    const auto status = host.fragmentManager().attach("container", dup);
    EXPECT_EQ(status.code(), StatusCode::AlreadyExists);
    EXPECT_FALSE(host.fragmentManager().detach("nope"));
}

TEST_F(FragmentFixture, StateSurvivesSnapshotAndReattach)
{
    HostActivity first;
    launch(first);
    auto fragment = std::make_shared<FormFragment>("form");
    ASSERT_TRUE(first.fragmentManager().attach("container", fragment));
    dynamic_cast<EditText *>(first.findViewById("form_edit"))
        ->typeText("draft");
    fragment->private_counter = 5;

    const Bundle snapshot = first.saveInstanceStateNow(/*full=*/true);

    // A fresh instance (as after a restart): the app re-attaches the
    // fragment in onCreate-equivalent code; its state replays.
    HostActivity second;
    ActivityContext context;
    context.resources = &*resources;
    context.inflater = &*inflater;
    second.attachContext(context);
    second.performCreate(Configuration::defaultLandscape(), &snapshot);
    second.performStart();
    second.performRestoreInstanceState(snapshot);
    auto fresh = std::make_shared<FormFragment>("form");
    ASSERT_TRUE(second.fragmentManager().attach("container", fresh));
    second.performResume();

    EXPECT_EQ(dynamic_cast<EditText *>(second.findViewById("form_edit"))
                  ->text(),
              "draft");
    EXPECT_EQ(fresh->private_counter, 5);
}

TEST_F(FragmentFixture, AttachedViewsInheritShadowFlag)
{
    HostActivity host;
    launch(host);
    host.enterShadowState();
    auto fragment = std::make_shared<FormFragment>("late");
    ASSERT_TRUE(host.fragmentManager().attach("container", fragment));
    EXPECT_TRUE(host.findViewById("late_edit")->isShadow());
}

TEST_F(FragmentFixture, FragmentViewsParticipateInEssenceMapping)
{
    HostActivity shadow_host, sunny_host;
    launch(shadow_host);
    launch(sunny_host);
    auto shadow_fragment = std::make_shared<FormFragment>("form");
    auto sunny_fragment = std::make_shared<FormFragment>("form");
    ASSERT_TRUE(
        shadow_host.fragmentManager().attach("container", shadow_fragment));
    ASSERT_TRUE(
        sunny_host.fragmentManager().attach("container", sunny_fragment));
    shadow_host.enterShadowState();

    ViewTreeMapper mapper;
    const auto result = mapper.buildMapping(sunny_host, shadow_host);
    EXPECT_EQ(result.unmatched, 0);
    EXPECT_EQ(shadow_host.findViewById("form_edit")->sunnyPeer(),
              sunny_host.findViewById("form_edit"));
}

TEST_F(FragmentFixture, AsyncUpdateToFragmentViewMigrates)
{
    HostActivity shadow_host, sunny_host;
    launch(shadow_host);
    launch(sunny_host);
    auto shadow_fragment = std::make_shared<FormFragment>("form");
    auto sunny_fragment = std::make_shared<FormFragment>("form");
    ASSERT_TRUE(
        shadow_host.fragmentManager().attach("container", shadow_fragment));
    ASSERT_TRUE(
        sunny_host.fragmentManager().attach("container", sunny_fragment));
    shadow_host.enterShadowState();
    ViewTreeMapper().buildMapping(sunny_host, shadow_host);

    RchStats stats;
    LazyMigrator migrator(stats);
    shadow_host.setInvalidationListener(&migrator);

    dynamic_cast<EditText *>(shadow_host.findViewById("form_edit"))
        ->setText("from async");
    EXPECT_EQ(dynamic_cast<EditText *>(sunny_host.findViewById("form_edit"))
                  ->text(),
              "from async");
}

TEST_F(FragmentFixture, DynamicallyAddedFragmentAfterMappingIsHarmless)
{
    // The RuntimeDroid failure mode: the view tree changes after the
    // migration plan was made. Here a fragment attaches to the shadow
    // tree after the mapping was built — its views have no peers and
    // simply do not migrate; nothing crashes.
    HostActivity shadow_host, sunny_host;
    launch(shadow_host);
    launch(sunny_host);
    shadow_host.enterShadowState();
    ViewTreeMapper().buildMapping(sunny_host, shadow_host);

    RchStats stats;
    LazyMigrator migrator(stats);
    shadow_host.setInvalidationListener(&migrator);

    auto late = std::make_shared<FormFragment>("late");
    ASSERT_TRUE(shadow_host.fragmentManager().attach("container", late));
    dynamic_cast<EditText *>(shadow_host.findViewById("late_edit"))
        ->setText("no peer");
    EXPECT_EQ(stats.views_migrated, 0u);
    EXPECT_EQ(sunny_host.findViewById("late_edit"), nullptr);
}

} // namespace
} // namespace rchdroid
