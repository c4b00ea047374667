#include "ams/atms.h"

#include <utility>

#include "os/observer.h"
#include "platform/logging.h"
#include "platform/metrics.h"

namespace rchdroid {

const char *
runtimeChangeModeName(RuntimeChangeMode mode)
{
    switch (mode) {
      case RuntimeChangeMode::Restart: return "Android-10";
      case RuntimeChangeMode::RchDroid: return "RCHDroid";
    }
    return "Unknown";
}

Atms::Atms(SimScheduler &scheduler, const AtmsCosts &costs,
           const IpcLatencyModel &client_latency)
    : scheduler_(scheduler),
      costs_(costs),
      client_latency_(client_latency),
      looper_(scheduler, "system_server.atms"),
      starter_(std::make_unique<ActivityStarter>(*this))
{
}

Atms::~Atms() = default;

void
Atms::registerProcess(const std::string &process, ActivityClient &client)
{
    clients_[process] = &client;
}

void
Atms::declareComponent(const std::string &component, ComponentInfo info)
{
    components_[component] = info;
}

ComponentInfo
Atms::componentInfo(const std::string &component) const
{
    auto it = components_.find(component);
    return it != components_.end() ? it->second : ComponentInfo{};
}

void
Atms::emitEvent(TelemetryKind kind, const std::string &detail,
                double value)
{
    TelemetryEvent event;
    event.time = scheduler_.now();
    event.kind = kind;
    event.detail = detail;
    event.value = value;
    obs::notify(&obs::Observer::onTelemetry, scheduler_, event);
}

ActivityClient *
Atms::clientFor(const std::string &process)
{
    auto it = clients_.find(process);
    return it != clients_.end() ? it->second : nullptr;
}

void
Atms::callClient(const std::string &process, std::function<void()> fn,
                 std::size_t payload_bytes)
{
    ActivityClient *client = clientFor(process);
    if (!client) {
        RCH_LOGW("ATMS", "no client bound for process ", process);
        return;
    }
    (void)client;
    // A transaction issued from inside a costly ATMS dispatch departs
    // when the server-side work completes, then crosses the binder.
    SimDuration departure_delay = 0;
    if (looper_.isDispatching())
        departure_delay = looper_.currentCostEnd() - scheduler_.now();
    // Flow-start at the binder send site: the client-side message this
    // transaction enqueues inherits the id through the scheduler slot
    // (pending causal), so the edge spans the whole server->client hop
    // and the binder latency shows up as queue wait.
    const std::uint64_t causal_id = beginTraceFlow(&looper_, "binder");
    scheduler_.schedule(departure_delay +
                            client_latency_.oneWay(payload_bytes),
                        std::move(fn), EventLabel{}, causal_id);
}

ActivityRecord &
Atms::createRecord(const std::string &component, const std::string &process)
{
    const ActivityToken token = next_token_++;
    auto [it, inserted] = records_.emplace(
        token, ActivityRecord(token, component, process, config_,
                              scheduler_.now()));
    RCH_ASSERT(inserted, "duplicate token");
    it->second.setHandlesConfigChanges(
        componentInfo(component).handles_config_changes);
    return it->second;
}

ActivityRecord *
Atms::mutableRecordFor(ActivityToken token)
{
    auto it = records_.find(token);
    return it != records_.end() ? &it->second : nullptr;
}

const ActivityRecord *
Atms::recordFor(ActivityToken token) const
{
    auto it = records_.find(token);
    return it != records_.end() ? &it->second : nullptr;
}

const StarterStats &
Atms::starterStats() const
{
    return starter_->stats();
}

ActivityToken
Atms::foregroundToken() const
{
    const TaskRecord *top = stack_.topTask();
    return top ? top->top() : kInvalidToken;
}

void
Atms::updateConfiguration(const Configuration &config)
{
    // Timestamp the arrival: the paper measures handling time from the
    // configuration change arriving at the ATMS.
    emitEvent(kinds::kAtmsConfigChange, config.toString());
    metrics::add(metrics::Counter::kConfigChanges);
    looper_.post([this, config] { handleConfigChange(config); }, 0,
                 costs_.config_dispatch, "updateConfiguration");
}

void
Atms::handleConfigChange(const Configuration &config)
{
    const std::uint32_t change_bits = config_.diff(config);
    config_ = config;
    if (change_bits == kConfigNone)
        return;

    ActivityRecord *top = mutableRecordFor(foregroundToken());
    if (!top)
        return;

    if (top->handlesConfigChanges()) {
        // Manifest android:configChanges: deliver onConfigurationChanged
        // to the app, no relaunch — on both systems.
        top->setConfiguration(config);
        const ActivityToken token = top->token();
        ActivityClient *client = clientFor(top->process());
        if (client) {
            callClient(top->process(), [client, token, config] {
                client->scheduleConfigurationChanged(token, config);
            });
        }
        return;
    }

    if (mode_ == RuntimeChangeMode::Restart) {
        // ensureActivityConfiguration, stock behaviour: the record's
        // configuration no longer matches; relaunch the instance.
        top->setConfiguration(config);
        top->setState(RecordState::Launching);
        const ActivityToken token = top->token();
        const std::string process = top->process();
        ActivityClient *client = clientFor(process);
        if (client) {
            callClient(process, [client, token, config] {
                client->scheduleRelaunchActivity(token, config);
            });
        }
        metrics::add(metrics::Counter::kRelaunches);
        emitEvent(kinds::kAtmsRelaunch, top->component(),
                  static_cast<double>(token));
        return;
    }

    // RCHDroid: ensureActivityConfiguration modified to skip the
    // relaunch test (paper §3.1 Step 1). The client handler will shadow
    // the instance and request a sunny start.
    top->setConfiguration(config);
    const ActivityToken token = top->token();
    const std::string process = top->process();
    ActivityClient *client = clientFor(process);
    if (client) {
        callClient(process, [client, token, config] {
            client->scheduleConfigurationChanged(token, config);
        });
    }
    emitEvent(kinds::kAtmsShadowHandling, top->component(),
              static_cast<double>(token));
}

void
Atms::pressBack()
{
    looper_.post(
        [this] {
            ActivityRecord *top = mutableRecordFor(foregroundToken());
            if (!top)
                return;
            const ActivityToken token = top->token();
            ActivityClient *client = clientFor(top->process());
            emitEvent(kinds::kAtmsBack, top->component(),
                      static_cast<double>(token));
            if (client) {
                callClient(top->process(), [client, token] {
                    client->scheduleDestroyActivity(token);
                });
            }
        },
        0, costs_.transaction_handle, "pressBack");
}

void
Atms::startActivity(const Intent &intent)
{
    looper_.post([this, intent] { starter_->startActivityUnchecked(intent); },
                 0, costs_.start_activity_base, "startActivity");
}

void
Atms::activityResumed(ActivityToken token)
{
    looper_.post(
        [this, token] {
            if (ActivityRecord *record = mutableRecordFor(token)) {
                record->setState(RecordState::Resumed);
                emitEvent(kinds::kAtmsActivityResumed, record->component(),
                          static_cast<double>(token));
            }
        },
        0, costs_.transaction_handle, "activityResumed");
}

void
Atms::activityPaused(ActivityToken token)
{
    looper_.post(
        [this, token] {
            if (ActivityRecord *record = mutableRecordFor(token))
                record->setState(RecordState::Paused);
        },
        0, costs_.transaction_handle, "activityPaused");
}

void
Atms::activityStopped(ActivityToken token)
{
    looper_.post(
        [this, token] {
            if (ActivityRecord *record = mutableRecordFor(token))
                record->setState(RecordState::Stopped);
        },
        0, costs_.transaction_handle, "activityStopped");
}

void
Atms::activityDestroyed(ActivityToken token)
{
    looper_.post(
        [this, token] {
            if (ActivityRecord *record = mutableRecordFor(token)) {
                if (TaskRecord *task = stack_.taskContaining(token))
                    task->remove(token);
                emitEvent(kinds::kAtmsActivityDestroyed, record->component(),
                          static_cast<double>(token));
                records_.erase(token);
                // The record revealed beneath (back navigation) resumes.
                ActivityRecord *revealed =
                    mutableRecordFor(foregroundToken());
                if (revealed && revealed->state() != RecordState::Resumed) {
                    ActivityClient *client = clientFor(revealed->process());
                    const ActivityToken next = revealed->token();
                    if (client) {
                        callClient(revealed->process(), [client, next] {
                            client->scheduleResumeActivity(next);
                        });
                    }
                }
            }
        },
        0, costs_.transaction_handle, "activityDestroyed");
}

void
Atms::shadowActivityReclaimed(ActivityToken token)
{
    looper_.post(
        [this, token] {
            ActivityRecord *record = mutableRecordFor(token);
            if (!record || !record->isShadow())
                return;
            if (TaskRecord *task = stack_.taskContaining(token))
                task->remove(token);
            emitEvent(kinds::kAtmsShadowReclaimed, record->component(),
                      static_cast<double>(token));
            records_.erase(token);
        },
        0, costs_.transaction_handle, "shadowActivityReclaimed");
}

void
Atms::processCrashed(const std::string &process, const std::string &reason)
{
    looper_.post(
        [this, process, reason] {
            emitEvent(kinds::kAtmsProcessCrashed, process + ": " + reason);
            if (TaskRecord *task = stack_.taskForProcess(process)) {
                for (ActivityToken token : task->tokens())
                    records_.erase(token);
                stack_.removeTask(task->id());
            }
        },
        0, costs_.transaction_handle, "processCrashed");
}

} // namespace rchdroid
