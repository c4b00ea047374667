/**
 * @file
 * EnergyModel: the §5.6 power model.
 */
#include <gtest/gtest.h>

#include "sim/energy_model.h"

namespace rchdroid::sim {
namespace {

PowerModel
testPower()
{
    PowerModel power;
    power.idle_watts = 4.0;
    power.cpu_max_watts = 2.0;
    return power;
}

TEST(EnergyModel, IdlePowerAtZeroUtilisation)
{
    EnergyModel model(testPower(), 6);
    EXPECT_DOUBLE_EQ(model.powerAtUtilization(0.0), 4.0);
}

TEST(EnergyModel, LinearInUtilisation)
{
    EnergyModel model(testPower(), 6);
    EXPECT_DOUBLE_EQ(model.powerAtUtilization(0.5), 5.0);
    EXPECT_DOUBLE_EQ(model.powerAtUtilization(1.0), 6.0);
}

TEST(EnergyModel, ClampsUtilisation)
{
    EnergyModel model(testPower(), 6);
    EXPECT_DOUBLE_EQ(model.powerAtUtilization(2.0), 6.0);
    EXPECT_DOUBLE_EQ(model.powerAtUtilization(-1.0), 4.0);
}

TEST(EnergyModel, AveragePowerFromTracker)
{
    CpuTracker tracker;
    // 3 ms busy on one looper in a 6-core, 10 ms window → util 5%.
    tracker.onBusyInterval(0, milliseconds(3), "w");
    EnergyModel model(testPower(), 6);
    EXPECT_NEAR(model.averagePowerWatts(tracker, 0, milliseconds(10)),
                4.0 + 2.0 * 0.05, 1e-9);
}

TEST(EnergyModel, EnergyJoules)
{
    CpuTracker tracker; // fully idle
    EnergyModel model(testPower(), 6);
    // 4 W for 2 s = 8 J.
    EXPECT_NEAR(model.energyJoules(tracker, 0, seconds(2)), 8.0, 1e-9);
}

TEST(EnergyModel, IdleShadowAddsNothing)
{
    // The paper's §5.6 argument: a retained-but-inactive instance
    // contributes no utilisation, hence no power.
    CpuTracker with_shadow, without_shadow;
    with_shadow.onBusyInterval(0, milliseconds(2), "foreground work");
    without_shadow.onBusyInterval(0, milliseconds(2), "foreground work");
    EnergyModel model(testPower(), 6);
    EXPECT_DOUBLE_EQ(
        model.averagePowerWatts(with_shadow, 0, seconds(1)),
        model.averagePowerWatts(without_shadow, 0, seconds(1)));
}

} // namespace
} // namespace rchdroid::sim
