/**
 * @file
 * MessageQueue: the ordered pending-work list behind each Looper,
 * mirroring android.os.MessageQueue.
 *
 * Messages are ordered by delivery time, FIFO among equal times. Each
 * message carries a virtual CPU cost: the owning looper is busy for that
 * long after dispatch, which serialises the simulated thread and feeds
 * the CPU-usage traces of Fig. 9.
 */
#ifndef RCHDROID_OS_MESSAGE_QUEUE_H
#define RCHDROID_OS_MESSAGE_QUEUE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "os/dispatch_order.h"
#include "platform/time.h"

namespace rchdroid {

/**
 * One unit of work queued to a looper.
 *
 * Modelled on android.os.Message with a Runnable callback.
 */
struct Message
{
    /** Dispatch callback; required. */
    std::function<void()> callback;
    /** Earliest virtual time at which the message may run. */
    SimTime when = 0;
    /** Virtual CPU time the dispatch occupies on the looper's thread. */
    SimDuration cost = 0;
    /** Human-readable label surfaced in traces. */
    std::string tag;
    /**
     * Looper-assigned id correlating this message's enqueue with its
     * dispatch in the analysis hooks; 0 before the looper accepts it.
     */
    std::uint64_t analysis_id = 0;
    /**
     * Queue-assigned arrival ticket breaking (when) ties FIFO; set by
     * MessageQueue::enqueue, meaningless outside the queue.
     */
    std::uint64_t seq = 0;
    /**
     * Tracer flow id stitching this message's post site to its dispatch
     * begin (trace::Tracer::newFlowId); 0 = no causal edge. Travels in
     * the payload slab with the rest of the message, so slot recycling
     * can never attach an edge to a slot's new occupant. Assigned by
     * Looper::enqueue when a tracer is installed; pre-set by explicitly
     * threaded chains (AsyncTask), whose flow-start the producer already
     * emitted itself.
     */
    std::uint64_t causal_id = 0;
    /**
     * True when the chain continues past this message's dispatch (the
     * consumer emits a flow step, not a flow end) — AsyncTask's worker
     * hop, whose result hop reuses the same flow id.
     */
    bool causal_continues = false;
};

/**
 * Time-ordered message store.
 *
 * Implemented as an indexed binary min-heap keyed (when, seq): the heap
 * orders lightweight POD entries that point into a stable slab of
 * Messages, so sift operations copy 24-byte keys instead of moving whole
 * Message payloads (a std::function closure plus a tag string), and each
 * payload is moved exactly once in and once out. Enqueue and pop are
 * O(log n) where the previous sorted-vector representation paid O(n)
 * payload moves for every enqueue ahead of the tail and every front pop.
 */
class MessageQueue
{
  public:
    MessageQueue() = default;

    /** Insert, keeping (when, FIFO) order. */
    void enqueue(Message msg);

    /** Delivery time of the head message, if any. */
    std::optional<SimTime> nextWhen() const;

    /** Pop the head message due at or before `now_or_later`. */
    std::optional<Message> popDue(SimTime now_or_later);

    /** Pop the head regardless of time (looper decides when to run it). */
    std::optional<Message> popFront();

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /**
     * Visit every pending message in delivery order — the
     * os/dispatch_order.h (when, seq) contract — without disturbing the
     * queue. O(n log n); used by the model checker to fingerprint
     * queue contents canonically (heap array order is not canonical)
     * and by introspection tools.
     */
    void forEachPendingInOrder(
        const std::function<void(const Message &)> &fn) const;

  private:
    /** Heap key: delivery order + the slab slot holding the payload. */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap predicate: the os/dispatch_order.h (when, seq) contract. */
    static bool
    laterThan(const HeapEntry &a, const HeapEntry &b)
    {
        return dispatch_order::firesAfter({a.when, a.seq}, {b.when, b.seq});
    }

    /** Take the payload of the heap head and release its slot. */
    Message takeHead();

    std::vector<HeapEntry> heap_;
    /** Payload slab; slots listed in free_slots_ are vacant. */
    std::vector<Message> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 0;
};

} // namespace rchdroid

#endif // RCHDROID_OS_MESSAGE_QUEUE_H
