/**
 * @file
 * The observer seam: the one way the simulated framework reports what
 * it does.
 *
 * Lower layers (os/, view/, app/, ams/, rch/) notify this thread's
 * chain of Observers of looper message sends and dispatches (each
 * dispatch end carries the busy interval it occupied), shared-state
 * accesses, lifecycle transitions, synchronisation barriers and
 * telemetry events. Every consumer is a subscriber:
 *  - analysis::Analyzer, the race detector and lifecycle checker;
 *  - mc::FootprintRecorder, the model checker's record of what a step
 *    touched;
 *  - each sim::AndroidSystem, which passes its TraceRecorder and
 *    CpuTracker the events that came from its own scheduler.
 * With nobody subscribed, a site costs one thread-local load and a
 * branch.
 *
 * The seam lives in os/ (the lowest instrumented layer) and speaks in
 * opaque identities (`const void *`) plus raw enum values, so that os/
 * never depends on the higher layers whose objects it reports about.
 * The analysis library casts identities back to the types it knows.
 *
 * trace::Tracer and metrics::MetricsRegistry are not on the chain: each
 * is one thread-local sink that its call sites drive directly, with
 * span, lane and flow-id state a void fan-out cannot carry (DESIGN.md
 * §10).
 */
#ifndef RCHDROID_OS_OBSERVER_H
#define RCHDROID_OS_OBSERVER_H

#include <cstdint>
#include <string>

#include "platform/compiler.h"
#include "platform/time.h"

namespace rchdroid {

class Looper;
class SimScheduler;
struct TelemetryEvent;

namespace obs {

/**
 * Receiver of framework events. Every method defaults to a no-op, so a
 * subscriber overrides only what it consumes.
 *
 * Identity conventions:
 *  - loopers are passed as Looper& (os-level type, always available);
 *  - shared objects (views, records, trees) as `const void *` plus a
 *    human-readable kind/label;
 *  - lifecycle states as their raw std::uint8_t enum values (os/ cannot
 *    see app/lifecycle.h; the analysis layer casts back).
 */
class Observer
{
  public:
    virtual ~Observer() = default;

    /** @name Looper (simulated thread) events
     * @{
     */
    virtual void onLooperCreated(Looper &looper) { (void)looper; }
    virtual void onLooperDestroyed(Looper &looper) { (void)looper; }
    /**
     * A message was enqueued to `target`. The sending thread, if any, is
     * Looper::current() at call time; enqueues from outside any dispatch
     * (harness code, raw scheduler events) have no sender and create no
     * happens-before edge. The analyzer keys the edge by `msg_id`; the
     * model checker's footprint records only `target`.
     */
    virtual void onMessageSend(Looper &target, std::uint64_t msg_id)
    { (void)target; (void)msg_id; }
    /** `looper` began dispatching the message `msg_id`. */
    virtual void onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                                 const std::string &tag)
    { (void)looper; (void)msg_id; (void)tag; }
    /**
     * The in-flight dispatch on `looper` completed. It kept the thread
     * busy over [start, end), empty for a message that cost nothing;
     * looper.currentTag() still names the message.
     */
    virtual void onDispatchEnd(Looper &looper, SimTime start, SimTime end)
    { (void)looper; (void)start; (void)end; }
    /** @} */

    /**
     * A framework-level synchronisation barrier on `scope` (e.g. the
     * shadow GC collecting an instance, or a coin flip handing the
     * foreground over): orders everything the current thread did before
     * the barrier with everything any thread does after its next
     * barrier on the same scope.
     */
    virtual void onSyncBarrier(const void *scope, const char *label)
    { (void)scope; (void)label; }

    /**
     * A read or write of shared framework state (a view property, the
     * view-tree map, an activity record). Ignored when no simulated
     * thread is executing (Looper::current() == nullptr), since such
     * accesses come from the test harness, which is outside the
     * concurrency model.
     */
    virtual void onSharedAccess(const void *object, const char *kind,
                                const std::string &label, bool is_write)
    { (void)object; (void)kind; (void)label; (void)is_write; }

    /** `object` was destructed; any tracked access history is stale. */
    virtual void onObjectGone(const void *object) { (void)object; }

    /** @name Activity lifecycle events
     * @{
     */
    /**
     * An activity is about to transition `from` → `to` (raw
     * LifecycleState values). Reported before validity is enforced so a
     * checker observes illegal attempts too. `scope` groups activities
     * of one process (the hosting ActivityThread), null for bare test
     * instances.
     */
    virtual void onLifecycleTransition(const void *activity,
                                       const void *scope,
                                       const std::string &component,
                                       std::uint64_t instance_id,
                                       std::uint8_t from, std::uint8_t to)
    {
        (void)activity; (void)scope; (void)component;
        (void)instance_id; (void)from; (void)to;
    }
    /** An activity instance was destructed. */
    virtual void onActivityGone(const void *activity) { (void)activity; }
    /** @} */

    /**
     * A mutation was attempted on a view whose tree is already
     * destroyed. Whether this is a simulated app bug (the crash
     * scenario under study, absorbed by the crash guard) or the
     * framework violating its own protocol is decided by the receiver
     * from the app-code scope events below.
     */
    virtual void onDestroyedViewMutation(const void *view, const char *kind,
                                         const std::string &label)
    { (void)view; (void)kind; (void)label; }

    /** @name App-code scope (ActivityThread crash guard)
     * @{
     */
    virtual void onAppCodeBegin() {}
    virtual void onAppCodeEnd() {}
    /** @} */

    /**
     * A telemetry event from code running on `source`. Several systems
     * may live on one thread; each keeps only its own scheduler's
     * events.
     */
    virtual void onTelemetry(const SimScheduler &source,
                             const TelemetryEvent &event)
    { (void)source; (void)event; }
};

/**
 * RAII membership of this thread's chain. Construction links the
 * observer in front of every earlier subscriber; destruction unlinks
 * the node wherever it sits, so subscriptions may end in any order
 * (a system built before the previous one is destroyed, say).
 *
 * The chain is thread-local: independent simulations on parallel
 * experiment worker threads each see only their own subscribers.
 */
class Subscription
{
  public:
    explicit Subscription(Observer &observer);
    ~Subscription();

    Subscription(const Subscription &) = delete;
    Subscription &operator=(const Subscription &) = delete;

    Observer &observer() const { return observer_; }
    /** The next older subscription, or null. */
    Subscription *next() const { return next_; }

  private:
    Observer &observer_;
    /** Newer neighbour (null at the head) and older one. */
    Subscription *prev_ = nullptr;
    Subscription *next_ = nullptr;
};

namespace detail {
/** Newest subscription. Use head(), not this. */
extern thread_local Subscription *g_head;
} // namespace detail

/** This thread's newest subscription, or null when nobody listens. */
RCHDROID_NO_SANITIZE_NULL inline Subscription *
head()
{
    return detail::g_head;
}

/**
 * Deliver one event to every subscriber, newest first:
 * `notify(&Observer::onObjectGone, this)`.
 */
template <typename... Params, typename... Args>
inline void
notify(void (Observer::*event)(Params...), Args &&...args)
{
    for (Subscription *node = head(); node != nullptr; node = node->next())
        (node->observer().*event)(args...);
}

} // namespace obs
} // namespace rchdroid

#endif // RCHDROID_OS_OBSERVER_H
