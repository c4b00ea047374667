/**
 * @file
 * CpuTracker: busy-time bookkeeping and utilisation series.
 */
#include <gtest/gtest.h>

#include "sim/cpu_tracker.h"

namespace rchdroid::sim {
namespace {

TEST(CpuTracker, BusyTimeClipsToWindow)
{
    CpuTracker tracker;
    tracker.onBusyInterval(milliseconds(10), milliseconds(30), "work");
    EXPECT_EQ(tracker.busyTime(0, milliseconds(100)), milliseconds(20));
    EXPECT_EQ(tracker.busyTime(milliseconds(20), milliseconds(25)),
              milliseconds(5));
    EXPECT_EQ(tracker.busyTime(milliseconds(40), milliseconds(50)), 0);
}

TEST(CpuTracker, MultipleLoopersSum)
{
    CpuTracker tracker;
    tracker.onBusyInterval(0, milliseconds(10), "a");
    tracker.onBusyInterval(0, milliseconds(10), "b");
    EXPECT_EQ(tracker.busyTime(0, milliseconds(10)), milliseconds(20));
    // One core: 200%; six cores: 33%.
    EXPECT_DOUBLE_EQ(tracker.utilization(0, milliseconds(10), 1), 2.0);
    EXPECT_NEAR(tracker.utilization(0, milliseconds(10), 6), 1.0 / 3, 1e-12);
}

TEST(CpuTracker, SeriesWindows)
{
    CpuTracker tracker;
    tracker.onBusyInterval(milliseconds(5), milliseconds(15), "x");
    const auto series =
        tracker.series(0, milliseconds(30), milliseconds(10), 1);
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series[0].utilization, 0.5);
    EXPECT_DOUBLE_EQ(series[1].utilization, 0.5);
    EXPECT_DOUBLE_EQ(series[2].utilization, 0.0);
    EXPECT_EQ(series[1].time, milliseconds(10));
}

TEST(CpuTracker, IntervalsTagged)
{
    CpuTracker tracker;
    tracker.onBusyInterval(0, 1, "task.onPostExecute");
    tracker.onBusyInterval(1, 2, "launch");
    const auto found = tracker.intervalsTagged("onPostExecute");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].duration(), 1);
}

TEST(CpuTracker, ClearResets)
{
    CpuTracker tracker;
    tracker.onBusyInterval(0, 5, "x");
    tracker.clear();
    EXPECT_TRUE(tracker.intervals().empty());
    EXPECT_EQ(tracker.busyTime(0, 10), 0);
}

} // namespace
} // namespace rchdroid::sim
