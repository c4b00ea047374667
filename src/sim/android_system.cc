#include "sim/android_system.h"

#include <utility>

#include "platform/logging.h"
#include "platform/tracing.h"

namespace rchdroid::sim {

/** Heap sampling period of startMemorySampling(). */
constexpr SimDuration kMemorySampleInterval = milliseconds(10);

/**
 * Client → system_server binder proxy: every IActivityTaskManager call
 * crosses the modelled binder before reaching the ATMS (whose methods
 * then post onto the ATMS looper).
 */
class AndroidSystem::AtmsProxy final : public ActivityManager
{
  public:
    AtmsProxy(SimScheduler &scheduler, Atms &atms, SimDuration latency)
        : scheduler_(scheduler), atms_(atms), latency_(latency)
    {
    }

    void
    startActivity(const Intent &intent) override
    {
        defer([this, intent] { atms_.startActivity(intent); });
    }

    void
    activityResumed(ActivityToken token) override
    {
        defer([this, token] { atms_.activityResumed(token); });
    }

    void
    activityStopped(ActivityToken token) override
    {
        defer([this, token] { atms_.activityStopped(token); });
    }

    void
    activityDestroyed(ActivityToken token) override
    {
        defer([this, token] { atms_.activityDestroyed(token); });
    }

    void
    shadowActivityReclaimed(ActivityToken token) override
    {
        defer([this, token] { atms_.shadowActivityReclaimed(token); });
    }

    void
    processCrashed(const std::string &process,
                   const std::string &reason) override
    {
        defer([this, process, reason] {
            atms_.processCrashed(process, reason);
        });
    }

  private:
    void
    defer(std::function<void()> fn)
    {
        // Flow-start at the client send site (inside the app dispatch
        // that issued the IActivityTaskManager call); the ATMS-side
        // message inherits the id through the scheduler slot.
        const std::uint64_t causal_id =
            beginTraceFlow(Looper::current(), "binder");
        // Labeled "binder" for the model checker's NondetSeam. Several
        // binder legs may be tied at one instant; both orders stay
        // explored because both legs post to the ATMS looper, so their
        // observed footprints overlap.
        scheduler_.schedule(latency_, std::move(fn), EventLabel{"binder"},
                            causal_id);
    }

    SimScheduler &scheduler_;
    Atms &atms_;
    SimDuration latency_;
};

AndroidSystem::AndroidSystem(SystemOptions options)
    : options_(std::move(options)),
      energy_(options_.device.power, /*cores=*/6)
{
    const bool analysis_on = options_.analysis_enabled.value_or(
        analysis::analysisEnabledByDefault());
    if (analysis_on) {
        analysis::AnalyzerOptions analysis_options = options_.analysis;
        if (!analysis_options.abort_on_violation)
            analysis_options.abort_on_violation =
                analysis::analysisAbortByDefault();
        analysis_guard_ =
            std::make_unique<analysis::ScopedAnalyzer>(analysis_options);
        if (analysis_guard_->installed())
            analysis_guard_->analyzer().sink().setTelemetrySource(&scheduler_);
    }
#if RCHDROID_TRACING
    // One trace "process" per system: sequential systems in a binary
    // restart sim time at zero, and separate pids keep every lane's
    // timestamps monotonic. The clock is cost-aware — inside a Looper
    // dispatch "now" is the message's accumulated-cost end — so nested
    // spans get real widths even though sim time freezes in callbacks.
    if (trace::Tracer *tracer = trace::Tracer::current()) {
        tracer->beginProcess(std::string("device[") +
                             runtimeChangeModeName(options_.mode) + "]");
        tracer->setClock([this] {
            Looper *looper = Looper::current();
            if (looper && looper->isDispatching())
                return looper->currentCostEnd();
            return scheduler_.now();
        });
    }
#endif
    atms_ = std::make_unique<Atms>(scheduler_, options_.device.atms,
                                   options_.device.binder_latency);
    atms_->setMode(options_.mode);
    atms_->setInitialConfiguration(options_.native_config);
}

AndroidSystem::~AndroidSystem()
{
#if RCHDROID_TRACING
    // The installed clock closure reads this system's scheduler; it must
    // not outlive us.
    if (trace::Tracer *tracer = trace::Tracer::current())
        tracer->clearClock();
#endif
}

void
AndroidSystem::onDispatchEnd(Looper &looper, SimTime start, SimTime end)
{
    if (&looper.scheduler() == &scheduler_ && end > start)
        cpu_.onBusyInterval(start, end, looper.currentTag());
}

void
AndroidSystem::onTelemetry(const SimScheduler &source,
                           const TelemetryEvent &event)
{
    if (&source == &scheduler_)
        trace_.record(event);
}

analysis::Analyzer *
AndroidSystem::analyzer()
{
    return analysis_guard_ && analysis_guard_->installed()
               ? &analysis_guard_->analyzer()
               : nullptr;
}

InstalledApp &
AndroidSystem::installCustom(const CustomAppParams &params)
{
    RCH_ASSERT(apps_.find(params.process) == apps_.end(),
               "app already installed: ", params.process);
    RCH_ASSERT(params.factory != nullptr, "install needs a factory");
    auto installed = std::make_unique<InstalledApp>();
    installed->process = params.process;
    installed->component = params.component;

    ProcessParams process_params;
    process_params.process_name = params.process;
    process_params.base_heap_bytes = params.base_heap_bytes;
    auto resources = params.resources
                         ? params.resources
                         : std::make_shared<const ResourceTable>();
    installed->thread = std::make_unique<ActivityThread>(
        scheduler_, process_params, std::move(resources),
        options_.device.resources, options_.device.framework);
    installed->thread->registerActivityFactory(params.component,
                                               params.factory);

    installed->am_proxy = std::make_unique<AtmsProxy>(
        scheduler_, *atms_, options_.device.binder_latency);
    installed->thread->setActivityManager(installed->am_proxy.get());

    atms_->registerProcess(params.process, *installed->thread);
    ComponentInfo info;
    info.handles_config_changes = params.handles_config_changes;
    atms_->declareComponent(params.component, info);

    if (options_.mode == RuntimeChangeMode::RchDroid) {
        installed->handler = std::make_unique<RchClientHandler>(options_.rch);
        installed->handler->attach(*installed->thread);
    }
    auto [it, inserted] =
        apps_.emplace(params.process, std::move(installed));
    RCH_ASSERT(inserted, "duplicate install");
    return *it->second;
}

InstalledApp &
AndroidSystem::install(const apps::AppSpec &spec)
{
    apps::BuiltApp built = apps::buildAppResources(spec);
    CustomAppParams params;
    params.process = spec.process();
    params.component = spec.component();
    params.factory = apps::makeAppFactory(spec, built);
    params.resources = built.resources;
    params.base_heap_bytes = spec.base_heap_bytes;
    // The RuntimeDroid patch declares android:configChanges so the
    // framework delivers the change for in-app handling.
    params.handles_config_changes =
        spec.handles_config_changes || spec.runtimedroid_patched;
    InstalledApp &app = installCustom(params);
    app.spec = spec;
    app.built = std::move(built);
    return app;
}

InstalledApp &
AndroidSystem::installed(const apps::AppSpec &spec)
{
    return installedProcess(spec.process());
}

InstalledApp &
AndroidSystem::installedProcess(const std::string &process)
{
    auto it = apps_.find(process);
    RCH_ASSERT(it != apps_.end(), "app not installed: ", process);
    return *it->second;
}

ActivityThread &
AndroidSystem::threadFor(const apps::AppSpec &spec)
{
    return *installed(spec).thread;
}

void
AndroidSystem::launchProcess(const std::string &process)
{
    InstalledApp &app = installedProcess(process);
    Intent intent;
    intent.component = app.component;
    intent.source_process = app.process;
    intent.flags = kFlagNewTask;
    const std::size_t resumed_before =
        trace_.countOfKind(kinds::kAtmsActivityResumed);
    app.am_proxy->startActivity(intent);
    const bool ok = runUntil(
        [this, resumed_before] {
            return trace_.countOfKind(kinds::kAtmsActivityResumed) >
                   resumed_before;
        },
        seconds(30));
    RCH_ASSERT(ok, "launch of ", process, " did not complete");
}

void
AndroidSystem::launch(const apps::AppSpec &spec)
{
    launchProcess(spec.process());
}

std::shared_ptr<apps::SimulatedApp>
AndroidSystem::foregroundApp(const apps::AppSpec &spec)
{
    auto activity = installed(spec).thread->foregroundActivity();
    return std::dynamic_pointer_cast<apps::SimulatedApp>(activity);
}

std::shared_ptr<Activity>
AndroidSystem::foregroundActivityOf(const std::string &process)
{
    return installedProcess(process).thread->foregroundActivity();
}

void
AndroidSystem::applyUserState(const apps::AppSpec &spec)
{
    InstalledApp &app = installed(spec);
    app.thread->postAppCallback(
        [this, &spec] {
            if (auto foreground = foregroundApp(spec))
                apps::applyCanonicalState(*foreground);
        },
        milliseconds(1), "driver.applyState");
    runFor(milliseconds(5));
}

apps::StateCheckResult
AndroidSystem::verifyCriticalState(const apps::AppSpec &spec)
{
    // Observation only — run directly, like reading the screen.
    auto foreground = foregroundApp(spec);
    if (!foreground) {
        apps::StateCheckResult result;
        result.preserved = false;
        result.losses.push_back(installed(spec).thread->crashed()
                                    ? "app crashed"
                                    : "no foreground activity");
        return result;
    }
    return apps::verifyCriticalState(*foreground);
}

void
AndroidSystem::clickUpdateButton(const apps::AppSpec &spec)
{
    InstalledApp &app = installed(spec);
    app.thread->postAppCallback(
        [this, &spec] {
            if (auto foreground = foregroundApp(spec))
                foreground->clickUpdateButton();
        },
        microseconds(300), "driver.click");
    runFor(milliseconds(1));
}

void
AndroidSystem::changeConfiguration(const Configuration &config)
{
    atms_->updateConfiguration(config);
}

void
AndroidSystem::rotate()
{
    changeConfiguration(atms_->currentConfiguration().rotated());
}

void
AndroidSystem::wmSize(int width_px, int height_px)
{
    changeConfiguration(
        atms_->currentConfiguration().resized(width_px, height_px));
}

void
AndroidSystem::wmSizeReset()
{
    // `wm size reset` restores the panel's native size; locale and other
    // axes are untouched.
    Configuration config = options_.native_config;
    config.locale = atms_->currentConfiguration().locale;
    changeConfiguration(config);
}

void
AndroidSystem::setLocale(const std::string &locale)
{
    changeConfiguration(atms_->currentConfiguration().withLocale(locale));
}

void
AndroidSystem::setKeyboardAttached(bool attached)
{
    Configuration config = atms_->currentConfiguration();
    config.keyboard =
        attached ? KeyboardState::Attached : KeyboardState::None;
    changeConfiguration(config);
}

void
AndroidSystem::pressBack()
{
    atms_->pressBack();
}

void
AndroidSystem::declareExtraComponent(const std::string &process,
                                     const std::string &component,
                                     ActivityFactory factory,
                                     bool handles_config_changes)
{
    InstalledApp &app = installedProcess(process);
    app.thread->registerActivityFactory(component, std::move(factory));
    ComponentInfo info;
    info.handles_config_changes = handles_config_changes;
    atms_->declareComponent(component, info);
}

Configuration
AndroidSystem::currentConfiguration() const
{
    return atms_->currentConfiguration();
}

void
AndroidSystem::runFor(SimDuration duration)
{
    scheduler_.runUntil(scheduler_.now() + duration);
}

bool
AndroidSystem::runUntil(const std::function<bool()> &predicate,
                        SimDuration timeout)
{
    const SimTime deadline = scheduler_.now() + timeout;
    while (!predicate()) {
        if (scheduler_.now() >= deadline)
            return false;
        if (!scheduler_.step()) {
            // Nothing pending: the condition can never become true.
            return predicate();
        }
    }
    return true;
}

bool
AndroidSystem::waitHandlingComplete(SimDuration timeout)
{
    const std::size_t resumed_before =
        trace_.countOfKind(kinds::kAtmsActivityResumed);
    const std::size_t crashes_before = trace_.countOfKind(kinds::kAppCrash);
    const bool done = runUntil(
        [this, resumed_before, crashes_before] {
            return trace_.countOfKind(kinds::kAtmsActivityResumed) >
                       resumed_before ||
                   trace_.countOfKind(kinds::kAppCrash) > crashes_before;
        },
        timeout);
    return done &&
           trace_.countOfKind(kinds::kAtmsActivityResumed) > resumed_before;
}

std::size_t
AndroidSystem::appHeapBytes(const apps::AppSpec &spec)
{
    return installed(spec).thread->totalHeapBytes();
}

MemorySampler &
AndroidSystem::startMemorySampling(const apps::AppSpec &spec)
{
    InstalledApp &app = installed(spec);
    if (!app.memory) {
        ActivityThread *thread = app.thread.get();
        app.memory = std::make_unique<MemorySampler>(
            scheduler_, [thread] { return thread->totalHeapBytes(); },
            kMemorySampleInterval);
    }
    app.memory->start();
    return *app.memory;
}

} // namespace rchdroid::sim
