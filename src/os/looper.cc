#include "os/looper.h"

#include <algorithm>
#include <utility>

#include "os/observer.h"
#include "platform/logging.h"
#include "platform/metrics.h"
#include "platform/tracing.h"

namespace rchdroid {

thread_local Looper *Looper::current_ = nullptr;

Looper::Looper(SimScheduler &scheduler, std::string name)
    : scheduler_(scheduler), name_(std::move(name))
{
    obs::notify(&obs::Observer::onLooperCreated, *this);
}

Looper::~Looper()
{
    if (wakeup_event_ != kInvalidEventId)
        scheduler_.cancel(wakeup_event_);
    obs::notify(&obs::Observer::onLooperDestroyed, *this);
}

void
Looper::enqueue(Message msg)
{
    msg.when = std::max(msg.when, scheduler_.now());
    msg.analysis_id = ++next_msg_id_;
    obs::notify(&obs::Observer::onMessageSend, *this, msg.analysis_id,
                msg.when, msg.tag);
#if RCHDROID_TRACING
    // Producer side of the causal flow edge. Three cases:
    //  - posted from inside some looper's dispatch: fresh flow id, and
    //    the flow-start lands at the post site inside the producer's
    //    dispatch span (cost-aware clock);
    //  - pre-set id (explicitly threaded chain, e.g. AsyncTask): the
    //    producer already emitted its own start, mark the hand-off with
    //    a step when we are inside a span to land it in;
    //  - posted from a raw scheduler event carrying a pending causal id
    //    (a binder leg): inherit silently — the edge spans the binder
    //    send site to this message's dispatch, so the binder latency
    //    counts as queue wait.
    if (trace::Tracer *tracer = trace::Tracer::current()) {
        Looper *producer = current();
        const bool in_dispatch = producer != nullptr &&
                                 producer->isDispatching();
        if (msg.causal_id != 0) {
            if (in_dispatch)
                tracer->flowAt(trace::Phase::kFlowStep, tracer->currentLane(),
                               tracer->now(), msg.causal_id,
                               msg.tag.empty() ? "post" : msg.tag,
                               /*bind_enclosing=*/false);
        } else if (in_dispatch) {
            msg.causal_id = beginTraceFlow(producer,
                                           msg.tag.empty() ? "post" : msg.tag);
        } else if (tracer->pendingCausal() != 0) {
            msg.causal_id = tracer->pendingCausal();
        }
    }
#endif
    queue_.enqueue(std::move(msg));
    metrics::observe(metrics::Histogram::kQueueDepth,
                     static_cast<double>(queue_.size()));
    armWakeup();
}

void
Looper::post(std::function<void()> fn, SimDuration delay, SimDuration cost,
             std::string tag)
{
    Message msg;
    msg.callback = std::move(fn);
    msg.when = scheduler_.now() + delay;
    msg.cost = cost;
    msg.tag = std::move(tag);
    enqueue(std::move(msg));
}

void
Looper::consumeCpu(SimDuration extra)
{
    RCH_ASSERT(dispatching_, "consumeCpu outside a dispatch on ", name_);
    RCH_ASSERT(extra >= 0, "negative cpu cost ", extra);
    current_cost_ += extra;
}

SimTime
Looper::currentCostEnd() const
{
    RCH_ASSERT(dispatching_, "currentCostEnd outside a dispatch on ", name_);
    return current_start_ + current_cost_;
}

void
Looper::armWakeup()
{
    if (dispatching_) {
        // Re-armed after the in-flight dispatch finishes.
        return;
    }
    auto next = queue_.nextWhen();
    if (!next) {
        if (wakeup_event_ != kInvalidEventId) {
            scheduler_.cancel(wakeup_event_);
            wakeup_event_ = kInvalidEventId;
        }
        return;
    }
    const SimTime target =
        std::max({*next, busy_until_, scheduler_.now()});
    if (wakeup_event_ != kInvalidEventId)
        scheduler_.cancel(wakeup_event_);
    // The label makes this wakeup visible to the model checker's
    // NondetSeam as "this looper is runnable": a looper has at most one
    // armed wakeup, so the label names the simulated thread uniquely.
    wakeup_event_ = scheduler_.scheduleAt(target, [this] { onWakeup(); },
                                          EventLabel{this, name_.c_str()});
}

void
Looper::onWakeup()
{
    wakeup_event_ = kInvalidEventId;
    auto msg = queue_.popDue(scheduler_.now());
    if (!msg) {
        // The head message is not due yet; re-arm.
        armWakeup();
        return;
    }

    dispatching_ = true;
    current_start_ = scheduler_.now();
    current_cost_ = msg->cost;
    current_tag_ = std::move(msg->tag);
    Looper *previous_current = current();
    setCurrent(this);
    obs::notify(&obs::Observer::onDispatchBegin, *this, msg->analysis_id,
                current_tag_);
#if RCHDROID_TRACING
    // One thread-local load each for the registry and the tracer; the
    // pointers are reused after the callback so the per-dispatch cost
    // of disabled instrumentation stays at two loads + two branches.
    metrics::MetricsRegistry *registry = metrics::MetricsRegistry::current();
    if (registry) {
        registry->add(metrics::Counter::kMessagesDispatched);
        registry->observe(
            metrics::Histogram::kDispatchLatencyUs,
            static_cast<double>(current_start_ - msg->when) / 1000.0);
    }
    // Mirror the dispatch as a span on this looper's trace lane. The B
    // lands at the dispatch start; nested TraceScopes inside the
    // callback stamp themselves with the cost-aware clock, so they nest
    // inside [start, cost end] with real widths.
    trace::Tracer *tracer = trace::Tracer::current();
    std::uint32_t previous_lane = 0;
    if (tracer) {
        previous_lane = tracer->currentLane();
        tracer->setCurrentLane(tracer->laneId(name_));
        tracer->beginOnAt(tracer->currentLane(), current_start_,
                          current_tag_.empty() ? "message" : current_tag_,
                          "dispatch");
        // Consumer side of the causal edge: bound to the dispatch span
        // just opened, at its begin, so the profiler reads queue wait
        // as (consumer span begin - producer flow ts).
        if (msg->causal_id != 0) {
            tracer->flowAt(msg->causal_continues ? trace::Phase::kFlowStep
                                                 : trace::Phase::kFlowEnd,
                           tracer->currentLane(), current_start_,
                           msg->causal_id,
                           current_tag_.empty() ? "message" : current_tag_,
                           /*bind_enclosing=*/true);
        }
    }
#endif

    msg->callback();

    busy_until_ = current_start_ + current_cost_;
    obs::notify(&obs::Observer::onDispatchEnd, *this, current_start_,
                busy_until_);
    setCurrent(previous_current);
    total_busy_ += current_cost_;
    ++dispatched_;
#if RCHDROID_TRACING
    if (registry) {
        registry->observe(metrics::Histogram::kDispatchCostUs,
                          static_cast<double>(current_cost_) / 1000.0);
    }
    if (tracer) {
        tracer->endOnAt(tracer->currentLane(), busy_until_);
        tracer->setCurrentLane(previous_lane);
    }
#endif
    dispatching_ = false;
    current_tag_.clear();
    armWakeup();
}

std::uint64_t
beginTraceFlow(const Looper *producer, const std::string &name)
{
#if RCHDROID_TRACING
    trace::Tracer *tracer = trace::Tracer::current();
    if (tracer == nullptr || producer == nullptr ||
        !producer->isDispatching())
        return 0;
    const std::uint64_t id = tracer->newFlowId();
    tracer->flowAt(trace::Phase::kFlowStart, tracer->currentLane(),
                   tracer->now(), id, name, /*bind_enclosing=*/false);
    return id;
#else
    (void)producer;
    (void)name;
    return 0;
#endif
}

} // namespace rchdroid
