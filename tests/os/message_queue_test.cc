/**
 * @file
 * MessageQueue, the PendingHeap<Message> behind each Looper: (when,
 * FIFO) delivery order and removal by ticket, also against a naive
 * reference queue.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "os/message_queue.h"

namespace rchdroid {
namespace {

/** Due time later than every message: popDue(kEnd) pops the head. */
constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();

MessageQueue::Ticket
post(MessageQueue &queue, SimTime when, SimDuration cost = 0)
{
    Message m;
    m.callback = [] {};
    m.when = when;
    m.cost = cost;
    return queue.push(when, std::move(m));
}

TEST(MessageQueue, OrdersByWhen)
{
    MessageQueue queue;
    post(queue, 30);
    post(queue, 10);
    post(queue, 20);
    EXPECT_EQ(queue.nextWhen(), std::optional<SimTime>(10));
    EXPECT_EQ(queue.popDue(kEnd)->when, 10);
    EXPECT_EQ(queue.popDue(kEnd)->when, 20);
    EXPECT_EQ(queue.popDue(kEnd)->when, 30);
}

TEST(MessageQueue, FifoAmongEqualWhen)
{
    MessageQueue queue;
    post(queue, 5, 1);
    post(queue, 5, 2);
    post(queue, 5, 3);
    EXPECT_EQ(queue.popDue(kEnd)->cost, 1);
    EXPECT_EQ(queue.popDue(kEnd)->cost, 2);
    EXPECT_EQ(queue.popDue(kEnd)->cost, 3);
}

TEST(MessageQueue, PopDueRespectsTime)
{
    MessageQueue queue;
    post(queue, 100);
    EXPECT_FALSE(queue.popDue(50).has_value());
    EXPECT_TRUE(queue.popDue(100).has_value());
}

TEST(MessageQueue, EmptyBehaviour)
{
    MessageQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.nextWhen().has_value());
    EXPECT_FALSE(queue.popDue(kEnd).has_value());
    EXPECT_FALSE(queue.take(1).has_value());
}

/**
 * Naive reference queue: an append-only vector popped by a linear scan
 * for the earliest (when, arrival) pair — obviously correct, O(n) per
 * op. The indexed heap must agree with it on every observable. Each
 * message is named by a unique cost; its arrival is the ticket the heap
 * handed out.
 */
struct ReferenceQueue
{
    struct Entry
    {
        SimTime when;
        SimDuration cost;
        std::uint64_t arrival;
    };

    std::vector<Entry> entries;

    std::vector<Entry>::iterator
    head()
    {
        auto best = entries.begin();
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->when < best->when ||
                (it->when == best->when && it->arrival < best->arrival))
                best = it;
        }
        return best;
    }
};

TEST(MessageQueue, RandomizedAgainstReferenceModel)
{
    MessageQueue queue;
    ReferenceQueue ref;
    std::uint64_t last_ticket = 0;

    // Deterministic LCG so a failure reproduces exactly.
    std::uint64_t rng = 0x5eed5eed;
    auto next = [&rng] {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint64_t>(rng >> 33);
    };

    std::size_t taken = 0;
    for (int op = 0; op < 5000; ++op) {
        switch (next() % 6) {
        case 0:
        case 1:
        case 2: { // push three times as likely as each removal
            const SimTime when = static_cast<SimTime>(next() % 64);
            const std::uint64_t ticket = post(queue, when, op);
            ASSERT_GT(ticket, last_ticket) << "op " << op;
            last_ticket = ticket;
            ref.entries.push_back({when, op, ticket});
            break;
        }
        case 3: { // popDue past every when: always the head
            const auto popped = queue.popDue(kEnd);
            if (ref.entries.empty()) {
                ASSERT_FALSE(popped.has_value()) << "op " << op;
                break;
            }
            const auto expect = ref.head();
            ASSERT_TRUE(popped.has_value()) << "op " << op;
            ASSERT_EQ(popped->when, expect->when) << "op " << op;
            ASSERT_EQ(popped->cost, expect->cost) << "op " << op;
            ref.entries.erase(expect);
            break;
        }
        case 4: { // popDue at a random time
            const SimTime t = static_cast<SimTime>(next() % 64);
            const auto popped = queue.popDue(t);
            const bool due = !ref.entries.empty() && ref.head()->when <= t;
            ASSERT_EQ(popped.has_value(), due) << "op " << op;
            if (due) {
                const auto expect = ref.head();
                ASSERT_EQ(popped->when, expect->when) << "op " << op;
                ASSERT_EQ(popped->cost, expect->cost) << "op " << op;
                ref.entries.erase(expect);
            }
            break;
        }
        case 5: { // take a recent ticket: pending, popped or taken
            const std::uint64_t back = next() % 16;
            const std::uint64_t ticket =
                back > last_ticket ? 0 : last_ticket - back;
            const auto taken_msg = queue.take(ticket);
            auto expect = ref.entries.begin();
            while (expect != ref.entries.end() && expect->arrival != ticket)
                ++expect;
            if (expect == ref.entries.end()) {
                ASSERT_FALSE(taken_msg.has_value()) << "op " << op;
                break;
            }
            ASSERT_TRUE(taken_msg.has_value()) << "op " << op;
            ASSERT_EQ(taken_msg->when, expect->when) << "op " << op;
            ASSERT_EQ(taken_msg->cost, expect->cost) << "op " << op;
            ref.entries.erase(expect);
            ++taken;
            break;
        }
        }
        ASSERT_EQ(queue.size(), ref.entries.size()) << "op " << op;
        ASSERT_EQ(queue.empty(), ref.entries.empty()) << "op " << op;
        if (!ref.entries.empty()) {
            ASSERT_EQ(queue.nextWhen(), ref.head()->when) << "op " << op;
        }
    }
    EXPECT_GT(taken, 100u) << "take() hardly ever hit a pending entry";

    // Drain: delivery order must match the reference exactly.
    while (!ref.entries.empty()) {
        const auto expect = ref.head();
        const auto popped = queue.popDue(kEnd);
        ASSERT_TRUE(popped.has_value());
        ASSERT_EQ(popped->when, expect->when);
        ASSERT_EQ(popped->cost, expect->cost);
        ref.entries.erase(expect);
    }
    EXPECT_TRUE(queue.empty());
}

} // namespace
} // namespace rchdroid
