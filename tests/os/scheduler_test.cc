/**
 * @file
 * SimScheduler: ordering, cancellation, time discipline.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "os/scheduler.h"

namespace rchdroid {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder)
{
    SimScheduler scheduler;
    std::vector<int> order;
    scheduler.schedule(milliseconds(30), [&] { order.push_back(3); });
    scheduler.schedule(milliseconds(10), [&] { order.push_back(1); });
    scheduler.schedule(milliseconds(20), [&] { order.push_back(2); });
    scheduler.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(scheduler.now(), milliseconds(30));
}

TEST(Scheduler, FifoAmongEqualTimes)
{
    SimScheduler scheduler;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        scheduler.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
    scheduler.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunUntilStopsAtLimitAndAdvancesClock)
{
    SimScheduler scheduler;
    int ran = 0;
    scheduler.schedule(milliseconds(10), [&] { ++ran; });
    scheduler.schedule(milliseconds(50), [&] { ++ran; });
    scheduler.runUntil(milliseconds(20));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(scheduler.now(), milliseconds(20));
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, 2);
}

TEST(Scheduler, EventsMayScheduleMoreEvents)
{
    SimScheduler scheduler;
    std::vector<SimTime> times;
    scheduler.schedule(milliseconds(1), [&] {
        times.push_back(scheduler.now());
        scheduler.schedule(milliseconds(2), [&] {
            times.push_back(scheduler.now());
        });
    });
    scheduler.runUntilIdle();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], milliseconds(1));
    EXPECT_EQ(times[1], milliseconds(3));
}

TEST(Scheduler, CancelPreventsExecution)
{
    SimScheduler scheduler;
    int ran = 0;
    const EventId id = scheduler.schedule(milliseconds(5), [&] { ++ran; });
    EXPECT_TRUE(scheduler.cancel(id));
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, 0);
}

TEST(Scheduler, CancelUnknownIdFails)
{
    SimScheduler scheduler;
    EXPECT_FALSE(scheduler.cancel(kInvalidEventId));
    EXPECT_FALSE(scheduler.cancel(9999));
}

TEST(Scheduler, DoubleCancelSecondFails)
{
    SimScheduler scheduler;
    const EventId id = scheduler.schedule(milliseconds(5), [] {});
    EXPECT_TRUE(scheduler.cancel(id));
    EXPECT_FALSE(scheduler.cancel(id));
}

TEST(Scheduler, CancelAfterRunFails)
{
    // The event already ran; another one still pending must not make
    // the cancel look successful.
    SimScheduler scheduler;
    int ran = 0;
    const EventId done = scheduler.schedule(milliseconds(1), [&] { ++ran; });
    scheduler.schedule(milliseconds(2), [&] { ++ran; });
    ASSERT_TRUE(scheduler.step());
    EXPECT_FALSE(scheduler.cancel(done));
    EXPECT_EQ(scheduler.pendingEvents(), 1u);
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, 2);
}

TEST(Scheduler, CancelOfTheDispatchingEventFails)
{
    // Cancelling from inside the event being dispatched cannot stop it,
    // so it must report failure, and the other event still runs.
    SimScheduler scheduler;
    EventId self = kInvalidEventId;
    bool cancelled = true;
    int ran = 0;
    self = scheduler.schedule(milliseconds(1), [&] {
        cancelled = scheduler.cancel(self);
        ++ran;
    });
    scheduler.schedule(milliseconds(2), [&] { ++ran; });
    scheduler.runUntilIdle();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(ran, 2);
}

TEST(Scheduler, CancelDestroysTheClosureAtOnce)
{
    // Whatever a cancelled closure keeps alive is released by cancel()
    // itself, even while other events stay pending.
    SimScheduler scheduler;
    auto held = std::make_shared<int>(7);
    const std::weak_ptr<int> watch = held;
    const EventId id =
        scheduler.schedule(milliseconds(1), [held = std::move(held)] {});
    scheduler.schedule(milliseconds(2), [] {});
    ASSERT_FALSE(watch.expired());
    EXPECT_TRUE(scheduler.cancel(id));
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(scheduler.pendingEvents(), 1u);
}

TEST(Scheduler, StepExecutesExactlyOne)
{
    SimScheduler scheduler;
    int ran = 0;
    scheduler.schedule(1, [&] { ++ran; });
    scheduler.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(scheduler.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(scheduler.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(scheduler.step());
}

TEST(Scheduler, ExecutedEventsCounts)
{
    SimScheduler scheduler;
    for (int i = 0; i < 7; ++i)
        scheduler.schedule(i, [] {});
    scheduler.runUntilIdle();
    EXPECT_EQ(scheduler.executedEvents(), 7u);
}

TEST(Scheduler, PendingEventsReportsOnlyLiveEvents)
{
    SimScheduler scheduler;
    const EventId a = scheduler.schedule(milliseconds(1), [] {});
    scheduler.schedule(milliseconds(2), [] {});
    const EventId c = scheduler.schedule(milliseconds(3), [] {});
    EXPECT_EQ(scheduler.pendingEvents(), 3u);
    scheduler.cancel(a);
    scheduler.cancel(c);
    EXPECT_EQ(scheduler.pendingEvents(), 1u);
}

TEST(Scheduler, CancelledMiddleEventIsSkipped)
{
    SimScheduler scheduler;
    int ran = 0;
    scheduler.schedule(milliseconds(1), [&] { ++ran; });
    const EventId mid = scheduler.schedule(milliseconds(2), [] {});
    scheduler.schedule(milliseconds(3), [&] { ++ran; });
    scheduler.cancel(mid);
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(scheduler.pendingEvents(), 0u);
}

TEST(Scheduler, RunUntilDoesNotRunPastLimitWhenHeadCancelled)
{
    // Regression: the limit check used to look at the raw queue head, so
    // a cancelled head at/below the limit let the *next* event run even
    // when it was past the limit.
    SimScheduler scheduler;
    int ran = 0;
    const EventId head = scheduler.schedule(milliseconds(10), [&] { ++ran; });
    scheduler.schedule(milliseconds(50), [&] { ++ran; });
    scheduler.cancel(head);
    scheduler.runUntil(milliseconds(20));
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(scheduler.now(), milliseconds(20));
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, 1);
}

TEST(Scheduler, SlotReuseKeepsOrderAndPayloads)
{
    // Interleave executes and cancels so slab slots recycle, then check
    // ordering and payload integrity across the reuse boundary.
    SimScheduler scheduler;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 16; ++i) {
        ids.push_back(
            scheduler.schedule(milliseconds(i), [&order, i] {
                order.push_back(i);
            }));
    }
    for (int i = 1; i < 16; i += 2)
        EXPECT_TRUE(scheduler.cancel(ids[i]));
    for (int i = 16; i < 24; ++i) {
        scheduler.schedule(milliseconds(i), [&order, i] {
            order.push_back(i);
        });
    }
    scheduler.runUntilIdle();
    std::vector<int> expected;
    for (int i = 0; i < 16; i += 2)
        expected.push_back(i);
    for (int i = 16; i < 24; ++i)
        expected.push_back(i);
    EXPECT_EQ(order, expected);
}

TEST(SchedulerDeath, ScheduleInPastPanics)
{
    SimScheduler scheduler;
    scheduler.runUntil(seconds(1));
    EXPECT_DEATH(scheduler.scheduleAt(0, [] {}), "past");
}

TEST(SchedulerDeath, NegativeDelayPanics)
{
    SimScheduler scheduler;
    EXPECT_DEATH(scheduler.schedule(-1, [] {}), "negative delay");
}

} // namespace
} // namespace rchdroid
