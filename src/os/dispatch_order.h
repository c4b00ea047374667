/**
 * @file
 * DispatchOrder: the named tie-break contract of the discrete-event
 * core.
 *
 * Pending work is delivered in the order of the pair (when, seq):
 * earliest virtual delivery time first, FIFO among equal times by
 * arrival ticket. Android's MessageQueue guarantees exactly this
 * (messages posted at the same uptime run in post order), and the
 * lazy-migration and coin-flip logic depend on it for determinism.
 *
 * One container implements the contract: PendingHeap
 * (os/pending_heap.h), which holds SimScheduler's events and each
 * Looper's MessageQueue. The model checker's NondetSeam lists the
 * events tied at the minimum `when` in the same order
 * (SimScheduler::runnableNow), so its choice 0 is always the event the
 * production scheduler runs next. tests/os/dispatch_order_test.cc pins
 * the semantics.
 */
#ifndef RCHDROID_OS_DISPATCH_ORDER_H
#define RCHDROID_OS_DISPATCH_ORDER_H

#include <cstdint>

#include "platform/time.h"

namespace rchdroid::dispatch_order {

/** The ordering key: virtual delivery time + FIFO arrival ticket. */
struct Key
{
    SimTime when = 0;
    std::uint64_t seq = 0;
};

/**
 * Strict total order "a is delivered before b". (when, seq) pairs are
 * unique within one container because seq is a monotone ticket.
 */
constexpr bool
firesBefore(const Key &a, const Key &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

} // namespace rchdroid::dispatch_order

#endif // RCHDROID_OS_DISPATCH_ORDER_H
