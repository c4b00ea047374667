/**
 * @file
 * ViewGroup and containers: child management, traversal, state
 * dispatch, layout arrangement.
 */
#include <gtest/gtest.h>

#include <vector>

#include "view/view_group.h"

namespace rchdroid {
namespace {

TEST(ViewGroup, AddChildSetsParent)
{
    FrameLayout group("root");
    auto &child = group.addChild(std::make_unique<View>("c"));
    EXPECT_EQ(child.parent(), &group);
    EXPECT_EQ(group.childCount(), 1u);
    EXPECT_EQ(&group.childAt(0), &child);
}

TEST(ViewGroup, RemoveChildAt)
{
    FrameLayout group("root");
    group.addChild(std::make_unique<View>("a"));
    group.addChild(std::make_unique<View>("b"));
    group.removeChildAt(0);
    ASSERT_EQ(group.childCount(), 1u);
    EXPECT_EQ(group.childAt(0).id(), "b");
}

TEST(ViewGroup, VisitIsPreOrder)
{
    FrameLayout root("root");
    auto inner = std::make_unique<FrameLayout>("inner");
    inner->addChild(std::make_unique<View>("leaf1"));
    root.addChild(std::move(inner));
    root.addChild(std::make_unique<View>("leaf2"));

    std::vector<std::string> order;
    root.visit([&order](View &v) { order.push_back(v.id()); });
    EXPECT_EQ(order,
              (std::vector<std::string>{"root", "inner", "leaf1", "leaf2"}));
}

TEST(ViewGroup, CountViewsRecursive)
{
    FrameLayout root("root");
    auto inner = std::make_unique<FrameLayout>("inner");
    inner->addChild(std::make_unique<View>("a"));
    inner->addChild(std::make_unique<View>("b"));
    root.addChild(std::move(inner));
    EXPECT_EQ(root.countViews(), 4);
}

TEST(ViewGroup, FindViewByIdSearchesDepthFirst)
{
    FrameLayout root("root");
    auto inner = std::make_unique<FrameLayout>("inner");
    auto *leaf = &inner->addChild(std::make_unique<View>("target"));
    root.addChild(std::move(inner));
    EXPECT_EQ(root.findViewById("target"), leaf);
    EXPECT_EQ(root.findViewById("missing"), nullptr);
}

TEST(ViewGroup, DispatchShadowStateReachesWholeSubtree)
{
    FrameLayout root("root");
    auto inner = std::make_unique<FrameLayout>("inner");
    auto *leaf = &inner->addChild(std::make_unique<View>("leaf"));
    root.addChild(std::move(inner));

    root.dispatchShadowStateChanged(true);
    EXPECT_TRUE(root.isShadow());
    EXPECT_TRUE(leaf->isShadow());
    root.dispatchShadowStateChanged(false);
    EXPECT_FALSE(leaf->isShadow());
}

TEST(ViewGroup, DispatchSunnyState)
{
    FrameLayout root("root");
    auto *leaf = &root.addChild(std::make_unique<View>("leaf"));
    root.dispatchSunnyStateChanged(true);
    EXPECT_TRUE(leaf->isSunny());
}

TEST(ViewGroup, AttachedChildrenInheritHost)
{
    class NullHost final : public ViewTreeHost
    {
      public:
        void onViewInvalidated(View &) override {}
        bool isShadowTree() const override { return false; }
        std::string hostName() const override { return "h"; }
    } host;

    FrameLayout root("root");
    root.attachToHost(&host);
    auto &child = root.addChild(std::make_unique<View>("c"));
    EXPECT_EQ(child.host(), &host);
}

TEST(LinearLayout, VerticalSlicesHeight)
{
    LinearLayout layout("l", LinearLayout::Direction::Vertical);
    auto *a = &layout.addChild(std::make_unique<View>("a"));
    auto *b = &layout.addChild(std::make_unique<View>("b"));
    layout.layoutSubtree(0, 0, 100, 200);
    EXPECT_EQ(a->frameHeight(), 100);
    EXPECT_EQ(b->frameTop(), 100);
    EXPECT_EQ(a->frameWidth(), 100);
}

TEST(LinearLayout, HorizontalSlicesWidth)
{
    LinearLayout layout("l", LinearLayout::Direction::Horizontal);
    auto *a = &layout.addChild(std::make_unique<View>("a"));
    auto *b = &layout.addChild(std::make_unique<View>("b"));
    layout.layoutSubtree(0, 0, 300, 50);
    EXPECT_EQ(a->frameWidth(), 150);
    EXPECT_EQ(b->frameLeft(), 150);
}

TEST(LinearLayout, NestedGroupSlicesItsSlot)
{
    LinearLayout outer("outer", LinearLayout::Direction::Vertical);
    outer.addChild(std::make_unique<View>("top"));
    auto nested = std::make_unique<LinearLayout>(
        "row", LinearLayout::Direction::Horizontal);
    auto *left = &nested->addChild(std::make_unique<View>("left"));
    auto *right = &nested->addChild(std::make_unique<View>("right"));
    const View &row = outer.addChild(std::move(nested));
    outer.layoutSubtree(0, 0, 300, 200);

    // The row takes the lower half of the column...
    EXPECT_EQ(row.frameTop(), 100);
    EXPECT_EQ(row.frameHeight(), 100);
    EXPECT_EQ(row.frameWidth(), 300);
    // ...and splits its own slot between its children, side by side.
    EXPECT_EQ(left->frameLeft(), 0);
    EXPECT_EQ(left->frameTop(), 100);
    EXPECT_EQ(left->frameWidth(), 150);
    EXPECT_EQ(left->frameHeight(), 100);
    EXPECT_EQ(right->frameLeft(), 150);
    EXPECT_EQ(right->frameTop(), 100);
    EXPECT_EQ(right->frameWidth(), 150);
    EXPECT_EQ(right->frameHeight(), 100);
}

TEST(ScrollView, ScrollToInvalidates)
{
    ScrollView scroll("s");
    scroll.scrollTo(250);
    EXPECT_EQ(scroll.scrollY(), 250);
    EXPECT_TRUE(scroll.isDirty());
}

TEST(ScrollView, ScrollToSameValueDoesNotInvalidate)
{
    ScrollView scroll("s");
    scroll.scrollTo(100);
    scroll.clearDirty();
    scroll.scrollTo(100);
    EXPECT_FALSE(scroll.isDirty());
}

TEST(DecorView, HasFixedIdAndExtraFootprint)
{
    DecorView decor;
    EXPECT_EQ(decor.id(), "decor");
    FrameLayout plain("decor");
    EXPECT_GT(decor.memoryFootprintBytes(), plain.memoryFootprintBytes());
}

} // namespace
} // namespace rchdroid
