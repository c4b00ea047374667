/**
 * @file
 * DeviceModel: the calibrated RK3399 constants must stay inside the
 * envelopes that keep the Fig. 10 anchors reproducible, and scaling
 * must be uniform.
 */
#include <gtest/gtest.h>

#include "sim/device_model.h"

namespace rchdroid::sim {
namespace {

TEST(DeviceModel, AllCostsNonNegative)
{
    const DeviceModel d = DeviceModel::rk3399();
    EXPECT_GE(d.binder_latency, 0);
    EXPECT_GE(d.atms.config_dispatch, 0);
    EXPECT_GE(d.framework.on_create_base, 0);
    EXPECT_GE(d.framework.migrate_per_view, 0);
    EXPECT_GT(d.power.idle_watts, 0.0);
}

TEST(DeviceModel, RestartDominatedByCreate)
{
    // The calibration story: on_create_base carries the bulk of the
    // 141.8 ms restart.
    const DeviceModel d = DeviceModel::rk3399();
    EXPECT_GT(d.framework.on_create_base, milliseconds(50));
    EXPECT_LT(d.framework.on_create_base, milliseconds(120));
}

TEST(DeviceModel, FlipCheaperThanCreate)
{
    const DeviceModel d = DeviceModel::rk3399();
    EXPECT_LT(d.framework.flip_fixed, d.framework.on_create_base);
}

TEST(DeviceModel, MappingCostsCarryInitSlope)
{
    const DeviceModel d = DeviceModel::rk3399();
    const auto mapping_slope = d.framework.mapping_insert_per_view +
                               d.framework.mapping_wire_per_view;
    // Fig. 10(a): ~0.8 ms/view of init slope, mostly from the mapping.
    EXPECT_GT(mapping_slope, microseconds(300));
    EXPECT_LT(mapping_slope, microseconds(900));
}

TEST(DeviceModel, MigrationAnchors)
{
    // Fig. 10(b): migration(1) ≈ 8.6 ms, slope ≈ 0.37 ms/view.
    const DeviceModel d = DeviceModel::rk3399();
    const auto at_one =
        d.framework.migrate_batch_base + d.framework.migrate_per_view;
    EXPECT_NEAR(toMillisF(at_one), 8.6, 0.5);
    EXPECT_NEAR(toMillisF(d.framework.migrate_per_view), 0.374, 0.1);
}

TEST(DeviceModel, PaperPowerAnchor)
{
    const DeviceModel d = DeviceModel::rk3399();
    EXPECT_NEAR(d.power.idle_watts, 4.03, 0.05);
}

TEST(DeviceModel, ScaledDividesUniformly)
{
    const DeviceModel base = DeviceModel::rk3399();
    const DeviceModel fast = DeviceModel::scaled(2.0);
    EXPECT_EQ(fast.framework.on_create_base,
              base.framework.on_create_base / 2);
    EXPECT_EQ(fast.atms.config_dispatch, base.atms.config_dispatch / 2);
    EXPECT_EQ(fast.binder_latency, base.binder_latency / 2);
    EXPECT_EQ(fast.resources.layout_per_node,
              base.resources.layout_per_node / 2);
    // Power is not a latency; unchanged.
    EXPECT_DOUBLE_EQ(fast.power.idle_watts, base.power.idle_watts);
}

TEST(DeviceModel, ScaledIdentity)
{
    const DeviceModel base = DeviceModel::rk3399();
    const DeviceModel same = DeviceModel::scaled(1.0);
    EXPECT_EQ(same.framework.flip_fixed, base.framework.flip_fixed);
}

} // namespace
} // namespace rchdroid::sim
