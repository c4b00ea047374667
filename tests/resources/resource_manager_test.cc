/**
 * @file
 * ResourceManager: cost model and load accounting.
 */
#include <gtest/gtest.h>

#include "resources/resource_manager.h"

namespace rchdroid {
namespace {

struct ManagerFixture : ::testing::Test
{
    ManagerFixture()
    {
        auto table = std::make_shared<ResourceTable>();
        string_id = table->addString("s", ResourceQualifier::any(),
                                     StringValue{"text"});
        drawable_id = table->addDrawable("d", ResourceQualifier::any(),
                                         DrawableValue{"img", 64, 64});
        LayoutNode root;
        root.element = "LinearLayout";
        LayoutNode child;
        child.element = "TextView";
        root.children.assign(4, child);
        layout_id = table->addLayout("main", ResourceQualifier::any(),
                                     LayoutValue{root});
        dimension_id = table->addDimension("pad", ResourceQualifier::any(),
                                           DimensionValue{16});

        ResourceCostModel costs;
        costs.lookup_cost = microseconds(10);
        costs.drawable_base_cost = microseconds(100);
        costs.drawable_per_kib = microseconds(2);
        costs.layout_per_node = microseconds(50);
        manager.emplace(std::move(table), costs);
    }

    ResourceId string_id = 0, drawable_id = 0, layout_id = 0,
               dimension_id = 0;
    std::optional<ResourceManager> manager;
    Configuration config = Configuration::defaultPortrait();
};

TEST_F(ManagerFixture, StringCostIsLookupOnly)
{
    const auto loaded = manager->loadString(string_id, config);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().cost, microseconds(10));
    EXPECT_EQ(loaded.value().value.text, "text");
}

TEST_F(ManagerFixture, DrawableCostScalesWithBytes)
{
    const auto loaded = manager->loadDrawable(drawable_id, config);
    ASSERT_TRUE(loaded.isOk());
    // 64*64*4 = 16 KiB → 10 + 100 + 2*16 = 142 us.
    EXPECT_EQ(loaded.value().cost, microseconds(142));
}

TEST_F(ManagerFixture, LayoutCostScalesWithNodes)
{
    const auto loaded = manager->loadLayout(layout_id, config);
    ASSERT_TRUE(loaded.isOk());
    // 5 nodes → 10 + 50*5 = 260 us.
    EXPECT_EQ(loaded.value().cost, microseconds(260));
    // The table's own variant, not a copy: every load charges and counts.
    const auto again = manager->loadLayout(layout_id, config);
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value().value, loaded.value().value);
    EXPECT_EQ(manager->stats().layout_loads, 2u);
}

TEST_F(ManagerFixture, DimensionCost)
{
    const auto loaded = manager->loadDimension(dimension_id, config);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().cost, microseconds(10));
    EXPECT_DOUBLE_EQ(loaded.value().value.pixels, 16.0);
}

TEST_F(ManagerFixture, StatsAccumulate)
{
    manager->loadString(string_id, config);
    manager->loadDrawable(drawable_id, config);
    manager->loadDrawable(drawable_id, config);
    const auto &stats = manager->stats();
    EXPECT_EQ(stats.string_loads, 1u);
    EXPECT_EQ(stats.drawable_loads, 2u);
    EXPECT_EQ(stats.drawable_bytes, 2u * 64 * 64 * 4);
    EXPECT_EQ(stats.total_cost, microseconds(10 + 142 + 142));
    manager->resetStats();
    EXPECT_EQ(manager->stats().string_loads, 0u);
}

TEST_F(ManagerFixture, MissLeavesStatsUntouched)
{
    EXPECT_FALSE(manager->loadString(0xbad, config));
    EXPECT_EQ(manager->stats().string_loads, 0u);
}

} // namespace
} // namespace rchdroid
