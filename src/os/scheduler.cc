#include "os/scheduler.h"

#include <algorithm>
#include <utility>

#include "os/dispatch_order.h"
#include "platform/logging.h"
#include "platform/tracing.h"

namespace rchdroid {

namespace {

/** Hard cap so a buggy self-rescheduling event cannot hang a test run. */
constexpr std::uint64_t kMaxEventsPerRun = 200'000'000;

/** Sort NondetSeam listings by (when, id), the dispatch_order. */
void
sortInDispatchOrder(std::vector<RunnableEvent> &events)
{
    std::sort(events.begin(), events.end(),
              [](const RunnableEvent &a, const RunnableEvent &b) {
                  return dispatch_order::firesBefore({a.when, a.id},
                                                     {b.when, b.id});
              });
}

} // namespace

EventId
SimScheduler::schedule(SimDuration delay, std::function<void()> fn,
                       EventLabel label, std::uint64_t causal_id)
{
    RCH_ASSERT(delay >= 0, "negative delay ", delay);
    return scheduleAt(now_ + delay, std::move(fn), label, causal_id);
}

EventId
SimScheduler::scheduleAt(SimTime when, std::function<void()> fn,
                         EventLabel label, std::uint64_t causal_id)
{
    RCH_ASSERT(when >= now_, "scheduleAt in the past: when=", when,
               " now=", now_);
    RCH_ASSERT(fn != nullptr, "null event function");
    return pending_.push(when, Event{std::move(fn), label, causal_id});
}

bool
SimScheduler::cancel(EventId id)
{
    return pending_.take(id).has_value();
}

void
SimScheduler::dispatch(SimTime when, Event &&event)
{
    now_ = when;
    ++executed_;
#if RCHDROID_TRACING
    if (event.causal_id != 0) {
        if (trace::Tracer *tracer = trace::Tracer::current()) {
            // Carry the flow id across the raw hop: any message a
            // looper accepts inside this callback inherits it (see
            // Looper::enqueue). Save/restore keeps nesting safe.
            const std::uint64_t previous = tracer->pendingCausal();
            tracer->setPendingCausal(event.causal_id);
            event.fn();
            tracer->setPendingCausal(previous);
            return;
        }
    }
#endif
    event.fn();
}

bool
SimScheduler::step()
{
    const std::optional<SimTime> when = pending_.nextWhen();
    if (!when)
        return false;
    dispatch(*when, *pending_.popDue(*when));
    return true;
}

std::vector<RunnableEvent>
SimScheduler::runnableNow() const
{
    std::vector<RunnableEvent> runnable;
    const std::optional<SimTime> head = pending_.nextWhen();
    if (!head)
        return runnable;
    pending_.forEach([&](SimTime when, EventId id, const Event &event) {
        if (when == *head)
            runnable.push_back(RunnableEvent{id, when, event.label});
    });
    sortInDispatchOrder(runnable);
    return runnable;
}

std::vector<RunnableEvent>
SimScheduler::pendingInOrder() const
{
    std::vector<RunnableEvent> pending;
    pending.reserve(pending_.size());
    pending_.forEach([&](SimTime when, EventId id, const Event &event) {
        pending.push_back(RunnableEvent{id, when, event.label});
    });
    sortInDispatchOrder(pending);
    return pending;
}

bool
SimScheduler::runEventById(EventId id)
{
    std::optional<SimTime> when;
    pending_.forEach([&](SimTime event_when, EventId event_id, const Event &) {
        if (event_id == id)
            when = event_when;
    });
    if (!when)
        return false;
    RCH_ASSERT(*when == *pending_.nextWhen(),
               "runEventById would run the future early: when=", *when,
               " head=", *pending_.nextWhen());
    dispatch(*when, *pending_.take(id));
    return true;
}

void
SimScheduler::runUntil(SimTime limit)
{
    std::uint64_t guard = 0;
    for (;;) {
        const std::optional<SimTime> when = pending_.nextWhen();
        if (!when || *when > limit)
            break;
        step();
        RCH_ASSERT(++guard < kMaxEventsPerRun, "event storm before ",
                   formatSimTime(limit));
    }
    if (now_ < limit)
        now_ = limit;
}

void
SimScheduler::runUntilIdle()
{
    std::uint64_t guard = 0;
    while (step()) {
        RCH_ASSERT(++guard < kMaxEventsPerRun, "runUntilIdle event storm");
    }
}

} // namespace rchdroid
