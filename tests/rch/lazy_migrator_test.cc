/**
 * @file
 * LazyMigrator: catches invalidations on the shadow tree and replays
 * them onto the sunny peers (§3.3), with re-entrancy protection.
 */
#include <gtest/gtest.h>

#include "rch/lazy_migrator.h"
#include "rch/view_tree_mapper.h"
#include "view/image_view.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

class TreeActivity : public Activity
{
  public:
    explicit TreeActivity(const std::string &component)
        : Activity(component)
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        root->addChild(std::make_unique<TextView>("label"));
        root->addChild(std::make_unique<ImageView>("img"));
        window().setContent(std::move(root));
        window().decorView().visit([this](View &v) { v.attachToHost(this); });
    }
};

struct MigratorFixture : ::testing::Test
{
    MigratorFixture()
        : migrator(stats), sunny("t/.Sunny"), shadow("t/.Shadow")
    {
        ViewTreeMapper mapper;
        mapper.buildMapping(sunny, shadow);
        // Shadow the shadow activity (transition through the proper
        // states is exercised in activity_test; here we flag directly).
        shadow.performCreate(Configuration::defaultPortrait(), nullptr);
        shadow.performStart();
        shadow.performResume();
        shadow.enterShadowState();
        shadow.setInvalidationListener(&migrator);
    }

    RchStats stats;
    LazyMigrator migrator;
    TreeActivity sunny, shadow;
};

TEST_F(MigratorFixture, AsyncUpdateOnShadowMigratesToSunny)
{
    shadow.findViewByIdAs<TextView>("label")->setText("async result");
    EXPECT_EQ(sunny.findViewByIdAs<TextView>("label")->text(),
              "async result");
    EXPECT_EQ(migrator.migratedViews(), 1u);
    EXPECT_EQ(stats.views_migrated, 1u);
}

TEST_F(MigratorFixture, ImageUpdateMigrates)
{
    shadow.findViewByIdAs<ImageView>("img")->setDrawable(
        DrawableValue{"loaded", 8, 8});
    EXPECT_EQ(sunny.findViewByIdAs<ImageView>("img")->assetName(), "loaded");
}

TEST_F(MigratorFixture, NonShadowActivityIgnored)
{
    // The migrator must only act on shadow trees.
    sunny.setInvalidationListener(&migrator);
    sunny.performCreate(Configuration::defaultPortrait(), nullptr);
    sunny.performStart();
    sunny.performResume(/*as_sunny=*/true);
    sunny.findViewByIdAs<TextView>("label")->setText("direct");
    EXPECT_EQ(migrator.migratedViews(), 0u);
}

TEST_F(MigratorFixture, ViewsWithoutPeerAreSkipped)
{
    shadow.findViewById("label")->setSunnyPeer(nullptr);
    shadow.findViewByIdAs<TextView>("label")->setText("orphan");
    EXPECT_EQ(migrator.migratedViews(), 0u);
    EXPECT_EQ(sunny.findViewByIdAs<TextView>("label")->text(), "");
}

TEST_F(MigratorFixture, DestroyedPeerSkippedSafely)
{
    sunny.window().decorView().markDestroyed();
    shadow.findViewByIdAs<TextView>("label")->setText("late");
    EXPECT_EQ(migrator.migratedViews(), 0u);
}

TEST_F(MigratorFixture, CascadedInvalidationsDoNotRecurse)
{
    // applyMigration sets the peer, whose invalidate must not bounce
    // back and re-enter the migrator for the same view.
    shadow.findViewByIdAs<TextView>("label")->setText("once");
    EXPECT_EQ(migrator.migratedViews(), 1u);
    shadow.findViewByIdAs<TextView>("label")->setText("twice");
    EXPECT_EQ(migrator.migratedViews(), 2u);
}

TEST_F(MigratorFixture, SameValueUpdateDoesNotMigrate)
{
    shadow.findViewByIdAs<TextView>("label")->setText("same");
    shadow.findViewByIdAs<TextView>("label")->setText("same");
    EXPECT_EQ(migrator.migratedViews(), 1u); // second set was a no-op
}

} // namespace
} // namespace rchdroid
