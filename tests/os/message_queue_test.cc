/**
 * @file
 * MessageQueue: (when, FIFO) delivery order, also against a naive
 * reference queue.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "os/message_queue.h"

namespace rchdroid {
namespace {

Message
msg(SimTime when, SimDuration cost = 0)
{
    Message m;
    m.callback = [] {};
    m.when = when;
    m.cost = cost;
    return m;
}

TEST(MessageQueue, OrdersByWhen)
{
    MessageQueue queue;
    queue.enqueue(msg(30));
    queue.enqueue(msg(10));
    queue.enqueue(msg(20));
    EXPECT_EQ(queue.nextWhen(), std::optional<SimTime>(10));
    EXPECT_EQ(queue.popFront()->when, 10);
    EXPECT_EQ(queue.popFront()->when, 20);
    EXPECT_EQ(queue.popFront()->when, 30);
}

TEST(MessageQueue, FifoAmongEqualWhen)
{
    MessageQueue queue;
    queue.enqueue(msg(5, 1));
    queue.enqueue(msg(5, 2));
    queue.enqueue(msg(5, 3));
    EXPECT_EQ(queue.popFront()->cost, 1);
    EXPECT_EQ(queue.popFront()->cost, 2);
    EXPECT_EQ(queue.popFront()->cost, 3);
}

TEST(MessageQueue, PopDueRespectsTime)
{
    MessageQueue queue;
    queue.enqueue(msg(100));
    EXPECT_FALSE(queue.popDue(50).has_value());
    EXPECT_TRUE(queue.popDue(100).has_value());
}

TEST(MessageQueue, EmptyBehaviour)
{
    MessageQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.nextWhen().has_value());
    EXPECT_FALSE(queue.popFront().has_value());
    EXPECT_FALSE(queue.popDue(1000).has_value());
}

/**
 * Naive reference queue: an append-only vector popped by a linear scan
 * for the earliest (when, arrival) pair — obviously correct, O(n) per
 * op. The indexed heap must agree with it on every observable. Each
 * message is named by a unique cost.
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
    std::uint64_t next_arrival = 0;

    void
    enqueue(SimTime when, SimDuration cost)
    {
        entries.push_back({when, cost, next_arrival++});
    }

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

    // Deterministic LCG so a failure reproduces exactly.
    std::uint64_t rng = 0x5eed5eed;
    auto next = [&rng] {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint64_t>(rng >> 33);
    };

    for (int op = 0; op < 5000; ++op) {
        switch (next() % 5) {
        case 0:
        case 1:
        case 2: { // enqueue three times as likely as each pop
            const SimTime when = static_cast<SimTime>(next() % 64);
            Message m;
            m.callback = [] {};
            m.when = when;
            m.cost = op;
            queue.enqueue(std::move(m));
            ref.enqueue(when, op);
            break;
        }
        case 3: { // popFront
            const auto popped = queue.popFront();
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
        }
        ASSERT_EQ(queue.size(), ref.entries.size()) << "op " << op;
        ASSERT_EQ(queue.empty(), ref.entries.empty()) << "op " << op;
        if (!ref.entries.empty()) {
            ASSERT_EQ(queue.nextWhen(), ref.head()->when) << "op " << op;
        }
    }

    // Drain: delivery order must match the reference exactly.
    while (!ref.entries.empty()) {
        const auto expect = ref.head();
        const auto popped = queue.popFront();
        ASSERT_TRUE(popped.has_value());
        ASSERT_EQ(popped->when, expect->when);
        ASSERT_EQ(popped->cost, expect->cost);
        ref.entries.erase(expect);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(MessageQueueDeath, NullCallbackPanics)
{
    MessageQueue queue;
    Message bad;
    bad.when = 1;
    EXPECT_DEATH(queue.enqueue(std::move(bad)), "without callback");
}

} // namespace
} // namespace rchdroid
