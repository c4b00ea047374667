/**
 * @file
 * Message and MessageQueue: the unit of work a Looper runs and the
 * pending list it waits in, mirroring android.os.Message and
 * android.os.MessageQueue.
 *
 * Messages are delivered by time, FIFO among equal times. Each message
 * carries a virtual CPU cost: the owning looper is busy for that long
 * after dispatch, which serialises the simulated thread and feeds the
 * CPU-usage traces of Fig. 9.
 */
#ifndef RCHDROID_OS_MESSAGE_QUEUE_H
#define RCHDROID_OS_MESSAGE_QUEUE_H

#include <cstdint>
#include <functional>
#include <string>

#include "os/pending_heap.h"
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

/** A looper's pending messages, keyed by Message::when. */
using MessageQueue = PendingHeap<Message>;

} // namespace rchdroid

#endif // RCHDROID_OS_MESSAGE_QUEUE_H
