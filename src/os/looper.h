/**
 * @file
 * Looper: a simulated thread with a serialised message loop, mirroring
 * android.os.Looper.
 *
 * Each simulated process owns loopers for its threads: the app has the
 * activity (UI) thread plus async worker loopers; the system_server has
 * the ATMS looper. A looper executes one message at a time; a message's
 * declared (plus dynamically consumed) CPU cost keeps the looper busy,
 * delaying the next dispatch — exactly the "UI thread frozen during
 * restart" effect the paper's Poor Responsiveness issue describes.
 */
#ifndef RCHDROID_OS_LOOPER_H
#define RCHDROID_OS_LOOPER_H

#include <functional>
#include <memory>
#include <string>

#include "os/message_queue.h"
#include "os/scheduler.h"
#include "platform/compiler.h"
#include "platform/time.h"

namespace rchdroid {

/**
 * A serialised virtual thread on top of SimScheduler.
 */
class Looper
{
  public:
    /**
     * @param scheduler Event core this looper runs on (not owned).
     * @param name Thread name, e.g. "app.main", "system_server.atms".
     */
    Looper(SimScheduler &scheduler, std::string name);
    ~Looper();

    Looper(const Looper &) = delete;
    Looper &operator=(const Looper &) = delete;

    const std::string &name() const { return name_; }
    SimScheduler &scheduler() { return scheduler_; }
    SimTime now() const { return scheduler_.now(); }

    /** Enqueue a message; delivery respects both `when` and busy time. */
    void enqueue(Message msg);

    /**
     * Convenience: post a callback.
     * @param fn Work to run.
     * @param delay Earliest start relative to now.
     * @param cost Declared CPU cost of the work.
     * @param tag Trace label.
     */
    void post(std::function<void()> fn, SimDuration delay = 0,
              SimDuration cost = 0, std::string tag = {});

    /**
     * Extend the cost of the *currently dispatching* message. Framework
     * operations whose cost is computed mid-flight (e.g. inflating a view
     * tree whose size is only known after resource resolution) use this.
     * Panics when no message is dispatching.
     */
    void consumeCpu(SimDuration extra);

    /** True while a message is being dispatched on this looper. */
    bool isDispatching() const { return dispatching_; }

    /**
     * The looper whose message is currently executing, or null outside
     * any dispatch — the simulation's analogue of Looper.myLooper().
     * Used to enforce Android's UI-thread-only view mutation rule.
     */
    RCHDROID_NO_SANITIZE_NULL static Looper *current() { return current_; }

    /**
     * Virtual time at which the current message's cost window ends; only
     * valid while dispatching. Continuations posted with delay 0 run no
     * earlier than this.
     */
    SimTime currentCostEnd() const;

    /** Queue depth (diagnostics). */
    std::size_t queuedMessages() const { return queue_.size(); }

    /** Read-only pending queue (model-checker fingerprints, dumpsys). */
    const MessageQueue &queue() const { return queue_; }

    /** Tag of the message currently dispatching ("" outside dispatch). */
    const std::string &currentTag() const { return current_tag_; }

    /** Total messages dispatched (diagnostics). */
    std::uint64_t dispatchedMessages() const { return dispatched_; }

    /** Cumulative busy time executed by this looper. */
    SimDuration totalBusyTime() const { return total_busy_; }

  private:
    void armWakeup();
    void onWakeup();

    /** Write the dispatch-owner seam (see current()). */
    RCHDROID_NO_SANITIZE_NULL static void setCurrent(Looper *looper)
    {
        current_ = looper;
    }

    SimScheduler &scheduler_;
    std::string name_;
    MessageQueue queue_;

    /** End of the most recent message's cost window. */
    SimTime busy_until_ = 0;
    /** Outstanding scheduler wakeup, if armed. */
    EventId wakeup_event_ = kInvalidEventId;
    bool dispatching_ = false;
    /** Start time and accumulated cost of the in-flight dispatch. */
    SimTime current_start_ = 0;
    SimDuration current_cost_ = 0;
    std::string current_tag_;
    std::uint64_t dispatched_ = 0;
    SimDuration total_busy_ = 0;
    /** Source of per-message analysis ids (see Message::analysis_id). */
    std::uint64_t next_msg_id_ = 0;

    /**
     * The looper currently dispatching. Thread-local: each parallel
     * experiment worker runs its own single-threaded simulation, and
     * the "current thread" notion must not leak across workers.
     */
    static thread_local Looper *current_;
};

/**
 * Start a trace flow at a post site: when a tracer is installed and
 * `producer` is dispatching, emit a flow-start named `name` on the
 * current lane and return its id; returns 0 otherwise. The message or
 * binder leg posted next carries the id to its consumer.
 */
std::uint64_t beginTraceFlow(const Looper *producer, const std::string &name);

} // namespace rchdroid

#endif // RCHDROID_OS_LOOPER_H
