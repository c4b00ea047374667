/**
 * @file
 * The discrete-event core that stands in for real threads and clocks.
 *
 * Everything in the simulated Android stack — the app's UI thread, its
 * async worker threads, the system_server, binder IPC latency — executes
 * as events on one SimScheduler in virtual time. This makes the
 * message-ordering phenomena the paper studies (an AsyncTask result
 * arriving after the activity restarted) exactly reproducible.
 */
#ifndef RCHDROID_OS_SCHEDULER_H
#define RCHDROID_OS_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "os/nondet_seam.h"
#include "os/pending_heap.h"
#include "platform/time.h"

namespace rchdroid {

/** Handle of a scheduled event: its PendingHeap arrival ticket. */
using EventId = std::uint64_t;

/** An id no event has (tickets count up from 1), for "none armed". */
inline constexpr EventId kInvalidEventId = 0;

/**
 * One pending scheduler event, as the NondetSeam lists it
 * (SimScheduler::runnableNow, pendingInOrder). Lists are in
 * dispatch_order order; `id` is the arrival ticket that breaks ties.
 */
struct RunnableEvent
{
    EventId id = kInvalidEventId;
    SimTime when = 0;
    EventLabel label;
};

/**
 * A single-owner discrete-event scheduler over virtual time.
 *
 * Events at equal timestamps run in schedule order (FIFO), the named
 * os/dispatch_order.h contract Android's MessageQueue relies on and the
 * lazy-migration logic depends on for determinism. The pending set is a
 * PendingHeap (os/pending_heap.h), the same container every Looper
 * queues its messages in; cancel() takes the event out of it at once.
 */
class SimScheduler
{
  public:
    SimScheduler() = default;

    SimScheduler(const SimScheduler &) = delete;
    SimScheduler &operator=(const SimScheduler &) = delete;

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /**
     * Schedule fn to run after delay (>= 0) from now.
     *
     * A non-zero `causal_id` (a trace::Tracer flow id) rides with the
     * event and is installed as the tracer's pending causal for the
     * duration of the callback: a Looper message enqueued from inside it
     * inherits the id, stitching a raw-scheduler hop (the binder legs)
     * into the cross-thread flow graph. Opt-in and explicit — wakeups
     * and other infrastructure events pass 0.
     */
    EventId schedule(SimDuration delay, std::function<void()> fn,
                     EventLabel label = {}, std::uint64_t causal_id = 0);

    /** Schedule fn at an absolute virtual time (>= now). */
    EventId scheduleAt(SimTime when, std::function<void()> fn,
                       EventLabel label = {}, std::uint64_t causal_id = 0);

    /**
     * Cancel a pending event, destroying its closure before returning.
     * @return true exactly when the event was pending: false once it
     *         ran, while it is dispatching, or after an earlier cancel.
     */
    bool cancel(EventId id);

    /** Run all events up to and including time limit. */
    void runUntil(SimTime limit);

    /** Run until no events remain (or the safety cap trips). */
    void runUntilIdle();

    /**
     * Run exactly one event if any is pending.
     * @return true if an event ran.
     */
    bool step();

    /** @name NondetSeam (model-checker control; see os/nondet_seam.h)
     * @{
     */
    /**
     * The pending events tied at the minimum `when`, in dispatch_order
     * (FIFO) order. Empty when nothing is pending. These are exactly the
     * candidates of one scheduling choice: the production scheduler
     * always runs index 0.
     */
    std::vector<RunnableEvent> runnableNow() const;
    /**
     * Every pending event in delivery (dispatch_order) order, not just
     * the tied head set. O(n log n); used by the model checker to
     * fingerprint the pending set canonically.
     */
    std::vector<RunnableEvent> pendingInOrder() const;
    /**
     * Dispatch one specific event from the current runnableNow() set,
     * advancing the clock to its `when`. Asserts the event is tied at
     * the minimum `when` (an explorer must not run the future early).
     * @return false when the id is not pending.
     */
    bool runEventById(EventId id);
    /** @} */

    /** Number of events waiting. */
    std::size_t pendingEvents() const { return pending_.size(); }

    /** Total events executed since construction (for tests/telemetry). */
    std::uint64_t executedEvents() const { return executed_; }

  private:
    /** A pending event: the closure plus its NondetSeam label. */
    struct Event
    {
        std::function<void()> fn;
        EventLabel label;
        /** Flow id threaded across this event (see schedule()); 0=none. */
        std::uint64_t causal_id = 0;
    };

    /** Advance the clock to `when` and run `event`, just taken out of
     *  pending_ (the caller's temporary outlives the callback). */
    void dispatch(SimTime when, Event &&event);

    SimTime now_ = 0;
    std::uint64_t executed_ = 0;
    PendingHeap<Event> pending_;
};

} // namespace rchdroid

#endif // RCHDROID_OS_SCHEDULER_H
