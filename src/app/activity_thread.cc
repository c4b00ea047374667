#include "app/activity_thread.h"

#include <algorithm>
#include <utility>

#include "os/observer.h"
#include "platform/logging.h"
#include "platform/metrics.h"
#include "platform/tracing.h"

namespace rchdroid {

namespace detail {

void
sendStartActivity(ActivityThread &thread, const std::string &component)
{
    ActivityManager *am = thread.activityManager();
    if (!am)
        return;
    Intent intent;
    intent.component = component;
    intent.source_process = thread.processName();
    am->startActivity(intent);
}

} // namespace detail

ActivityThread::ActivityThread(SimScheduler &scheduler, ProcessParams params,
                               std::shared_ptr<const ResourceTable> resources,
                               const ResourceCostModel &resource_costs,
                               const FrameworkCosts &costs)
    : scheduler_(scheduler),
      params_(std::move(params)),
      resources_(std::move(resources), resource_costs),
      inflater_(resources_, costs.inflate_per_node),
      costs_(costs),
      ui_looper_(scheduler, params_.process_name + ".main"),
      worker_looper_(scheduler, params_.process_name + ".async")
{
}

void
ActivityThread::registerActivityFactory(const std::string &component,
                                        ActivityFactory factory)
{
    RCH_ASSERT(factory != nullptr, "null factory for ", component);
    factories_[component] = std::move(factory);
}

void
ActivityThread::emitEvent(TelemetryKind kind, std::string_view detail)
{
    TelemetryEvent event;
    event.time = scheduler_.now();
    event.kind = kind;
    event.detail = detail;
    obs::notify(&obs::Observer::onTelemetry, scheduler_, event);
}

std::shared_ptr<Activity>
ActivityThread::activityForToken(ActivityToken token)
{
    auto it = activities_.find(token);
    return it != activities_.end() ? it->second : nullptr;
}

std::shared_ptr<Activity>
ActivityThread::foregroundActivity()
{
    for (auto &[token, activity] : activities_) {
        (void)token;
        if (isForeground(activity->lifecycleState()))
            return activity;
    }
    return nullptr;
}

std::shared_ptr<Activity>
ActivityThread::shadowActivity()
{
    for (auto &[token, activity] : activities_) {
        (void)token;
        if (activity->isShadow())
            return activity;
    }
    return nullptr;
}

void
ActivityThread::dropActivity(ActivityToken token)
{
    activities_.erase(token);
}

std::shared_ptr<Activity>
ActivityThread::createInstance(const std::string &component,
                               ActivityToken token)
{
    auto it = factories_.find(component);
    if (it == factories_.end())
        RCH_FATAL(params_.process_name, ": no factory for ", component);
    std::shared_ptr<Activity> activity = it->second();
    RCH_ASSERT(activity != nullptr, "factory returned null for ", component);
    activity->setToken(token);
    ActivityContext context;
    context.ui_looper = &ui_looper_;
    context.resources = &resources_;
    context.inflater = &inflater_;
    context.costs = costs_;
    context.thread = this;
    activity->attachContext(std::move(context));
    return activity;
}

std::shared_ptr<Activity>
ActivityThread::performLaunchActivity(const LaunchArgs &args,
                                      const Bundle *saved, bool as_sunny)
{
    const trace::TraceScope span("app.performLaunch", args.component, "app");
    auto activity = createInstance(args.component, args.token);
    activities_[args.token] = activity;
    metrics::set(metrics::Gauge::kLiveActivities,
                 static_cast<double>(activities_.size()));
    runAppCode([&] {
        activity->performCreate(args.config, saved);
        activity->performStart();
        if (saved)
            activity->performRestoreInstanceState(*saved);
        activity->performResume(as_sunny);
    });
    return activity;
}

void
ActivityThread::notifyResumedAtCostEnd(ActivityToken token)
{
    // Posted with zero delay on the UI looper, the continuation runs when
    // the in-flight dispatch's accumulated cost window closes — i.e. when
    // the launch work actually finishes on the simulated thread.
    ui_looper_.post([this, token] {
        emitEvent(kinds::kAppResumed, params_.process_name);
        if (am_)
            am_->activityResumed(token);
    },
                    0, 0, "notifyResumed");
}

void
ActivityThread::scheduleLaunchActivity(const LaunchArgs &args)
{
    if (crashed())
        return;
    ui_looper_.post(
        [this, args] {
            if (args.sunny && handler_) {
                handler_->onSunnyLaunch(*this, args);
                return;
            }
            performLaunchActivity(args, nullptr, /*as_sunny=*/false);
            notifyResumedAtCostEnd(args.token);
        },
        0, costs_.transaction_handle, "scheduleLaunchActivity");
}

void
ActivityThread::scheduleRelaunchActivity(ActivityToken token,
                                         const Configuration &config)
{
    if (crashed())
        return;
    ui_looper_.post(
        [this, token, config] {
            auto activity = activityForToken(token);
            if (!activity)
                return;
            // The stock restart: save state, tear the instance down, and
            // recreate it under the new configuration — all on the UI
            // thread, which stays busy (frozen) for the whole sequence.
            Bundle saved;
            runAppCode([&] {
                // Stock Android: the default, partial per-widget save.
                saved = activity->saveInstanceStateNow(/*full=*/false);
                activity->performPause();
                activity->performStop();
                activity->performDestroy();
            });
            activities_.erase(token);
            // In-flight async tasks keep the dead instance (and its view
            // tree) reachable, exactly like a leaked Java reference.
            for (const auto &task : in_flight_) {
                if (task->owner() && task->owner().get() == activity.get()) {
                    leaked_.push_back(activity);
                    break;
                }
            }
            LaunchArgs args;
            args.token = token;
            args.component = activity->component();
            args.config = config;
            performLaunchActivity(args, &saved, /*as_sunny=*/false);
            notifyResumedAtCostEnd(token);
        },
        0, costs_.transaction_handle, "scheduleRelaunchActivity");
}

void
ActivityThread::scheduleConfigurationChanged(ActivityToken token,
                                             const Configuration &config)
{
    if (crashed())
        return;
    ui_looper_.post(
        [this, token, config] {
            if (handler_) {
                // performActivityConfigurationChanged, as modified by
                // RCHDroid (Table 2): delegate to the handler.
                handler_->onConfigurationChanged(*this, token, config);
                return;
            }
            // No handler: the app declared it handles changes itself.
            if (auto activity = activityForToken(token)) {
                runAppCode(
                    [&] { activity->performConfigurationChanged(config); });
                notifyResumedAtCostEnd(token);
            }
        },
        0, costs_.transaction_handle, "scheduleConfigurationChanged");
}

void
ActivityThread::scheduleDestroyActivity(ActivityToken token)
{
    if (crashed())
        return;
    ui_looper_.post(
        [this, token] {
            auto activity = activityForToken(token);
            if (!activity)
                return;
            const bool was_foreground =
                isForeground(activity->lifecycleState());
            runAppCode([&] { activity->performDestroy(); });
            activities_.erase(token);
            if (was_foreground && handler_)
                handler_->onForegroundGone(*this, token);
            if (am_)
                am_->activityDestroyed(token);
        },
        0, costs_.transaction_handle, "scheduleDestroyActivity");
}

void
ActivityThread::scheduleStopActivity(ActivityToken token)
{
    if (crashed())
        return;
    ui_looper_.post(
        [this, token] {
            auto activity = activityForToken(token);
            if (!activity || !isForeground(activity->lifecycleState()))
                return;
            if (activity->isSunny())
                activity->degradeSunnyToResumed();
            runAppCode([&] {
                activity->performPause();
                activity->performStop();
            });
            if (handler_)
                handler_->onForegroundGone(*this, token);
            if (am_)
                am_->activityStopped(token);
        },
        0, costs_.transaction_handle, "scheduleStopActivity");
}

void
ActivityThread::scheduleResumeActivity(ActivityToken token)
{
    if (crashed())
        return;
    ui_looper_.post(
        [this, token] {
            auto activity = activityForToken(token);
            if (!activity)
                return;
            if (activity->lifecycleState() == LifecycleState::Stopped) {
                runAppCode([&] {
                    activity->performStart();
                    activity->performResume();
                });
            }
            notifyResumedAtCostEnd(token);
        },
        0, costs_.transaction_handle, "scheduleResumeActivity");
}

void
ActivityThread::runAppCode(const std::function<void()> &fn)
{
    if (crashed())
        return;
    // The app-code scope tells the analysis layer that destroyed-view
    // touches in here are the simulated app bug under study (absorbed by
    // this crash guard), not the framework breaking its own protocol.
    obs::notify(&obs::Observer::onAppCodeBegin);
    try {
        fn();
    } catch (const UiException &e) {
        handleCrash(e);
    }
    obs::notify(&obs::Observer::onAppCodeEnd);
}

void
ActivityThread::handleCrash(const UiException &e)
{
    CrashInfo info;
    info.kind = e.kind();
    info.reason = e.what();
    info.time = scheduler_.now();
    crash_ = info;
    RCH_LOGE("ActivityThread", params_.process_name,
             " FATAL EXCEPTION: ", e.what());
    metrics::add(metrics::Counter::kAppCrashes);
    emitEvent(kinds::kAppCrash, e.what());
    // Process death releases everything.
    activities_.clear();
    leaked_.clear();
    in_flight_.clear();
    if (am_)
        am_->processCrashed(params_.process_name, e.what());
}

void
ActivityThread::postAppCallback(std::function<void()> fn, SimDuration cost,
                                std::string tag)
{
    postAppCallbackAt(scheduler_.now(), std::move(fn), cost, std::move(tag));
}

void
ActivityThread::postAppCallbackAt(SimTime when, std::function<void()> fn,
                                  SimDuration cost, std::string tag,
                                  std::uint64_t causal_id)
{
    Message msg;
    msg.callback = [this, fn = std::move(fn)] { runAppCode(fn); };
    msg.when = when;
    msg.cost = cost;
    msg.tag = tag.empty() ? "appCallback" : std::move(tag);
    msg.causal_id = causal_id;
    ui_looper_.enqueue(std::move(msg));
}

void
ActivityThread::noteAsyncStarted(const std::shared_ptr<AsyncTask> &task)
{
    in_flight_.push_back(task);
    emitEvent(kinds::kAppAsyncStarted, task->name());
}

void
ActivityThread::noteAsyncFinished(const std::shared_ptr<AsyncTask> &task)
{
    in_flight_.erase(
        std::remove(in_flight_.begin(), in_flight_.end(), task),
        in_flight_.end());
    emitEvent(kinds::kAppAsyncFinished, task->name());
    // Drop leaked activities no longer pinned by any in-flight task.
    auto still_pinned = [this](const std::shared_ptr<Activity> &activity) {
        for (const auto &t : in_flight_) {
            if (t->owner() && t->owner().get() == activity.get())
                return true;
        }
        return false;
    };
    leaked_.erase(std::remove_if(leaked_.begin(), leaked_.end(),
                                 [&](const auto &a) {
                                     return !still_pinned(a);
                                 }),
                  leaked_.end());
}

std::size_t
ActivityThread::totalHeapBytes() const
{
    if (crashed())
        return 0;
    std::size_t total = params_.base_heap_bytes;
    for (const auto &[token, activity] : activities_) {
        (void)token;
        total += activity->memoryFootprintBytes();
    }
    for (const auto &activity : leaked_)
        total += activity->memoryFootprintBytes();
    return total;
}

} // namespace rchdroid
