/**
 * @file
 * Looper: serialisation by cost windows, dynamic cost accumulation,
 * busy-interval reporting — the mechanics behind "the UI thread is
 * frozen during a restart".
 */
#include <gtest/gtest.h>

#include <vector>

#include "os/looper.h"
#include "os/observer.h"

namespace rchdroid {
namespace {

/** Records every dispatch end the chain delivers. */
class RecordingObserver final : public obs::Observer
{
  public:
    struct Interval
    {
        std::string looper;
        SimTime start;
        SimTime end;
        std::string tag;
    };

    void
    onDispatchEnd(Looper &looper, SimTime start, SimTime end) override
    {
        intervals.push_back({looper.name(), start, end, looper.currentTag()});
    }

    std::vector<Interval> intervals;
};

TEST(Looper, RunsPostedWork)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    int ran = 0;
    looper.post([&] { ++ran; });
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(looper.dispatchedMessages(), 1u);
}

TEST(Looper, CostDelaysNextMessage)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    std::vector<SimTime> starts;
    looper.post([&] { starts.push_back(scheduler.now()); }, 0,
                milliseconds(10));
    looper.post([&] { starts.push_back(scheduler.now()); }, 0,
                milliseconds(5));
    looper.post([&] { starts.push_back(scheduler.now()); });
    scheduler.runUntilIdle();
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(starts[0], 0);
    EXPECT_EQ(starts[1], milliseconds(10)); // waits for the first's cost
    EXPECT_EQ(starts[2], milliseconds(15));
}

TEST(Looper, DelayAndBusyInteract)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    std::vector<SimTime> starts;
    looper.post([&] { starts.push_back(scheduler.now()); }, 0,
                milliseconds(20));
    // Due at 5 ms but the looper is busy until 20 ms.
    looper.post([&] { starts.push_back(scheduler.now()); }, milliseconds(5));
    scheduler.runUntilIdle();
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[1], milliseconds(20));
}

TEST(Looper, ConsumeCpuExtendsCurrentWindow)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    std::vector<SimTime> starts;
    looper.post(
        [&] {
            starts.push_back(scheduler.now());
            looper.consumeCpu(milliseconds(7));
            EXPECT_EQ(looper.currentCostEnd(),
                      scheduler.now() + milliseconds(7));
        },
        0, 0);
    looper.post([&] { starts.push_back(scheduler.now()); });
    scheduler.runUntilIdle();
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[1], milliseconds(7));
}

TEST(Looper, ZeroDelayPostFromDispatchRunsAtCostEnd)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    SimTime continuation_at = -1;
    looper.post(
        [&] {
            looper.consumeCpu(milliseconds(30));
            looper.post([&] { continuation_at = scheduler.now(); });
        },
        0, milliseconds(12));
    scheduler.runUntilIdle();
    // 12 declared + 30 consumed = busy until 42.
    EXPECT_EQ(continuation_at, milliseconds(42));
}

TEST(Looper, DispatchEndCarriesTheBusyIntervalAndTag)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "app.main");
    RecordingObserver observer;
    obs::Subscription subscription(observer);
    looper.post([&] { looper.consumeCpu(milliseconds(1)); }, 0,
                milliseconds(4), "launch");
    looper.post([] {}, 0, 0, "free"); // zero cost: an empty interval
    scheduler.runUntilIdle();
    ASSERT_EQ(observer.intervals.size(), 2u);
    EXPECT_EQ(observer.intervals[0].looper, "app.main");
    EXPECT_EQ(observer.intervals[0].start, 0);
    EXPECT_EQ(observer.intervals[0].end, milliseconds(5));
    EXPECT_EQ(observer.intervals[0].tag, "launch");
    EXPECT_EQ(observer.intervals[1].start, milliseconds(5));
    EXPECT_EQ(observer.intervals[1].end, milliseconds(5));
    EXPECT_EQ(observer.intervals[1].tag, "free");
}

TEST(Looper, TotalBusyTimeAccumulates)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    looper.post([] {}, 0, milliseconds(3));
    looper.post([&] { looper.consumeCpu(milliseconds(2)); });
    scheduler.runUntilIdle();
    EXPECT_EQ(looper.totalBusyTime(), milliseconds(5));
}

TEST(Looper, TwoLoopersRunConcurrently)
{
    SimScheduler scheduler;
    Looper ui(scheduler, "ui");
    Looper worker(scheduler, "worker");
    std::vector<std::pair<std::string, SimTime>> events;
    ui.post([&] { events.emplace_back("ui", scheduler.now()); }, 0,
            milliseconds(50));
    worker.post([&] { events.emplace_back("worker", scheduler.now()); },
                milliseconds(10));
    scheduler.runUntilIdle();
    // The worker is not blocked by the UI looper's 50 ms busy window.
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].first, "worker");
    EXPECT_EQ(events[1].second, milliseconds(10));
}

TEST(Looper, CurrentTracksTheDispatchingLooper)
{
    SimScheduler scheduler;
    Looper ui(scheduler, "ui");
    Looper worker(scheduler, "worker");
    EXPECT_EQ(Looper::current(), nullptr);
    Looper *seen_ui = nullptr;
    Looper *seen_worker = nullptr;
    ui.post([&] { seen_ui = Looper::current(); });
    worker.post([&] { seen_worker = Looper::current(); });
    scheduler.runUntilIdle();
    EXPECT_EQ(seen_ui, &ui);
    EXPECT_EQ(seen_worker, &worker);
    EXPECT_EQ(Looper::current(), nullptr);
}

TEST(LooperDeath, ConsumeCpuOutsideDispatchPanics)
{
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    EXPECT_DEATH(looper.consumeCpu(1), "outside a dispatch");
}

} // namespace
} // namespace rchdroid
