/**
 * @file
 * Pins the os/dispatch_order.h tie-break contract — delivery ordered by
 * (when, seq), FIFO among equal times — across everything that claims
 * it: the dispatch_order primitives themselves, the PendingHeap behind
 * MessageQueue, SimScheduler's default dispatch, and the NondetSeam
 * views (runnableNow / pendingInOrder / runEventById) the model checker
 * enumerates schedules through. If the production heap and the mc seam
 * ever diverge, one of these tests fails.
 */
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "os/dispatch_order.h"
#include "os/message_queue.h"
#include "os/scheduler.h"
#include "platform/time.h"

namespace rchdroid {
namespace {

/** Due time later than every message: popDue(kEnd) pops the head. */
constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();

TEST(DispatchOrderContract, EarlierWhenFiresFirst)
{
    const dispatch_order::Key early{milliseconds(1), 99};
    const dispatch_order::Key late{milliseconds(2), 0};
    EXPECT_TRUE(dispatch_order::firesBefore(early, late));
    EXPECT_FALSE(dispatch_order::firesBefore(late, early));
}

TEST(DispatchOrderContract, EqualWhenBreaksFifoBySeq)
{
    const dispatch_order::Key first{milliseconds(5), 7};
    const dispatch_order::Key second{milliseconds(5), 8};
    EXPECT_TRUE(dispatch_order::firesBefore(first, second));
    EXPECT_FALSE(dispatch_order::firesBefore(second, first));
    // Irreflexive: a strict order never puts a key before itself.
    EXPECT_FALSE(dispatch_order::firesBefore(first, first));
}

/** MessageQueue pops tied messages in post order. */
TEST(DispatchOrderContract, MessageQueueFifoAmongEqualWhens)
{
    MessageQueue queue;
    std::vector<int> ran;
    for (int i = 0; i < 4; ++i) {
        Message msg;
        msg.callback = [&ran, i] { ran.push_back(i); };
        msg.when = milliseconds(10); // all tied
        queue.push(msg.when, std::move(msg));
    }
    // An earlier message posted later still jumps the tied block.
    Message early;
    early.callback = [&ran] { ran.push_back(-1); };
    early.when = milliseconds(5);
    queue.push(early.when, std::move(early));

    while (auto msg = queue.popDue(kEnd))
        msg->callback();
    EXPECT_EQ(ran, (std::vector<int>{-1, 0, 1, 2, 3}));
}

/** forEachInOrder observes the same order popping would. */
TEST(DispatchOrderContract, MessageQueuePendingInOrderMatchesPopOrder)
{
    MessageQueue queue;
    const SimTime whens[] = {milliseconds(3), milliseconds(1),
                             milliseconds(3), milliseconds(2),
                             milliseconds(1)};
    for (int i = 0; i < 5; ++i) {
        Message msg;
        msg.callback = [] {};
        msg.when = whens[i];
        msg.cost = i;
        queue.push(msg.when, std::move(msg));
    }

    std::vector<SimDuration> visited;
    queue.forEachInOrder(
        [&visited](SimTime, MessageQueue::Ticket, const Message &msg) {
            visited.push_back(msg.cost);
        });

    std::vector<SimDuration> popped;
    while (auto msg = queue.popDue(kEnd))
        popped.push_back(msg->cost);

    EXPECT_EQ(visited, popped);
    EXPECT_EQ(popped, (std::vector<SimDuration>{1, 4, 3, 0, 2}));
}

/** The scheduler's default dispatch is FIFO among tied events. */
TEST(DispatchOrderContract, SchedulerRunsTiedEventsInScheduleOrder)
{
    SimScheduler scheduler;
    std::vector<int> ran;
    for (int i = 0; i < 3; ++i)
        scheduler.schedule(milliseconds(2), [&ran, i] { ran.push_back(i); });
    scheduler.schedule(milliseconds(1), [&ran] { ran.push_back(-1); });
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, (std::vector<int>{-1, 0, 1, 2}));
}

/**
 * runnableNow() enumerates exactly the tied head set, in the same FIFO
 * order, with index 0 being the production scheduler's next event.
 */
TEST(DispatchOrderContract, RunnableNowEnumeratesTiedHeadSetFifo)
{
    SimScheduler scheduler;
    static const char *kNames[] = {"a", "b", "c"};
    std::vector<EventId> tied_ids;
    for (int i = 0; i < 3; ++i)
        tied_ids.push_back(scheduler.schedule(
            milliseconds(2), [] {}, EventLabel{kNames[i]}));
    scheduler.schedule(milliseconds(9), [] {}, EventLabel{"future"});

    const std::vector<RunnableEvent> runnable = scheduler.runnableNow();
    ASSERT_EQ(runnable.size(), 3u); // the future event is not a choice
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(runnable[i].id, tied_ids[i]);
        EXPECT_STREQ(runnable[i].label.name, kNames[i]);
        if (i) {
            EXPECT_LT(runnable[i - 1].id, runnable[i].id);
        }
        EXPECT_EQ(runnable[i].when, runnable[0].when);
    }

    // step() must dispatch runnableNow()[0]: seam and production agree.
    EXPECT_TRUE(scheduler.step());
    const std::vector<RunnableEvent> after = scheduler.runnableNow();
    ASSERT_EQ(after.size(), 2u);
    EXPECT_EQ(after[0].id, tied_ids[1]);
}

/** pendingInOrder() lists the whole pending set in delivery order. */
TEST(DispatchOrderContract, PendingInOrderIsDeliveryOrder)
{
    SimScheduler scheduler;
    const EventId late = scheduler.schedule(milliseconds(9), [] {});
    const EventId mid_a = scheduler.schedule(milliseconds(4), [] {});
    const EventId mid_b = scheduler.schedule(milliseconds(4), [] {});
    const EventId soon = scheduler.schedule(milliseconds(1), [] {});

    const std::vector<RunnableEvent> pending = scheduler.pendingInOrder();
    ASSERT_EQ(pending.size(), 4u);
    EXPECT_EQ(pending[0].id, soon);
    EXPECT_EQ(pending[1].id, mid_a); // tied pair stays FIFO
    EXPECT_EQ(pending[2].id, mid_b);
    EXPECT_EQ(pending[3].id, late);
    EXPECT_TRUE(dispatch_order::firesBefore(
        {pending[1].when, pending[1].id}, {pending[2].when, pending[2].id}));
}

/**
 * runEventById() overrides FIFO within the tied set only: the explorer
 * may reorder ties, never run the future early, and a cancelled
 * candidate is refused.
 */
TEST(DispatchOrderContract, RunEventByIdReordersTiesOnly)
{
    SimScheduler scheduler;
    std::vector<int> ran;
    scheduler.schedule(milliseconds(2), [&ran] { ran.push_back(0); });
    const EventId second =
        scheduler.schedule(milliseconds(2), [&ran] { ran.push_back(1); });
    const EventId cancelled =
        scheduler.schedule(milliseconds(2), [&ran] { ran.push_back(2); });
    ASSERT_TRUE(scheduler.cancel(cancelled));

    EXPECT_FALSE(scheduler.runEventById(cancelled));
    EXPECT_FALSE(scheduler.runEventById(kInvalidEventId));

    // Run the second tied event first; the clock lands on its when.
    EXPECT_TRUE(scheduler.runEventById(second));
    EXPECT_EQ(scheduler.now(), milliseconds(2));
    EXPECT_EQ(ran, (std::vector<int>{1}));

    // The remaining event dispatches via the production path.
    scheduler.runUntilIdle();
    EXPECT_EQ(ran, (std::vector<int>{1, 0}));
}

} // namespace
} // namespace rchdroid
