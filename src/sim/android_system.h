/**
 * @file
 * AndroidSystem: the full simulated device — one system_server (ATMS)
 * plus app processes, wired over the modelled binder, with trace, CPU
 * and memory instrumentation attached.
 *
 * This is the top-level façade every bench, example and integration
 * test drives: install apps, launch them, poke user state, issue
 * `wm size`-style configuration changes, and read the paper's metrics
 * back out.
 */
#ifndef RCHDROID_SIM_ANDROID_SYSTEM_H
#define RCHDROID_SIM_ANDROID_SYSTEM_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ams/atms.h"
#include "analysis/analyzer.h"
#include "app/activity_thread.h"
#include "apps/app_builder.h"
#include "apps/corpus.h"
#include "apps/simulated_app.h"
#include "apps/user_driver.h"
#include "os/observer.h"
#include "rch/rch_client_handler.h"
#include "sim/cpu_tracker.h"
#include "sim/device_model.h"
#include "sim/energy_model.h"
#include "sim/memory_sampler.h"
#include "sim/trace.h"

namespace rchdroid::sim {

/** Construction parameters of a simulated device. */
struct SystemOptions
{
    /** Which runtime-change handling the framework runs. */
    RuntimeChangeMode mode = RuntimeChangeMode::Restart;
    /** RCHDroid tuning (used when mode == RchDroid). */
    RchConfig rch;
    /** Hardware calibration. */
    DeviceModel device = DeviceModel::rk3399();
    /** Memory sampling period for startMemorySampling(). */
    SimDuration memory_sample_interval = milliseconds(10);
    /**
     * Boot configuration. The paper's eval board drives an HDMI screen
     * and boots landscape 1920×1080; `wm size 1080x1920` then makes it
     * portrait and `wm size reset` returns here.
     */
    Configuration native_config = Configuration::defaultLandscape();
    /**
     * Run the analysis subsystem (race detector + lifecycle checker)
     * for this system's lifetime. Unset → environment/build default
     * (on in debug builds; RCHDROID_ANALYSIS=1/0 overrides).
     */
    std::optional<bool> analysis_enabled;
    /** Checker configuration used when the subsystem runs. */
    analysis::AnalyzerOptions analysis;
};

/**
 * Parameters for installing a hand-written app (an Activity subclass of
 * your own) rather than a corpus-described SimulatedApp. This is the
 * quickstart path of the examples.
 */
struct CustomAppParams
{
    /** Process name, e.g. "com.example.photos". */
    std::string process;
    /** Main component, e.g. "com.example.photos/.GalleryActivity". */
    std::string component;
    /** Factory producing fresh instances of your Activity subclass. */
    ActivityFactory factory;
    /** The app's resources (may be an empty table). */
    std::shared_ptr<const ResourceTable> resources;
    std::size_t base_heap_bytes = 32u << 20;
    /** Manifest android:configChanges. */
    bool handles_config_changes = false;
};

/**
 * One installed app process and its harness attachments.
 */
struct InstalledApp
{
    /** Corpus spec; default-constructed for custom installs. */
    apps::AppSpec spec;
    apps::BuiltApp built;
    std::string process;
    std::string component;
    std::unique_ptr<ActivityThread> thread;
    /** Present when the system runs in RchDroid mode. */
    std::unique_ptr<RchClientHandler> handler;
    std::unique_ptr<MemorySampler> memory;
    /** The proxy the thread uses to reach the ATMS over binder. */
    std::unique_ptr<ActivityManager> am_proxy;
};

/**
 * The simulated device. It subscribes to the thread's observer chain
 * and passes its TraceRecorder and CpuTracker the telemetry and busy
 * intervals that come from its own scheduler, so several systems can
 * live on one thread.
 */
class AndroidSystem : private obs::Observer
{
  public:
    explicit AndroidSystem(SystemOptions options = {});
    ~AndroidSystem();

    AndroidSystem(const AndroidSystem &) = delete;
    AndroidSystem &operator=(const AndroidSystem &) = delete;

    /** @name Core access
     * @{
     */
    SimScheduler &scheduler() { return scheduler_; }
    Atms &atms() { return *atms_; }
    TraceRecorder &trace() { return trace_; }
    CpuTracker &cpuTracker() { return cpu_; }
    EnergyModel &energy() { return energy_; }
    const SystemOptions &options() const { return options_; }
    /**
     * The analyzer this system subscribed, or null — analysis disabled,
     * or another analyzer (e.g. a test's own) was subscribed first and
     * keeps receiving the events.
     */
    analysis::Analyzer *analyzer();
    /** @} */

    /** @name App management
     * @{
     */
    /** Install a corpus app (process + resources + factory + handler). */
    InstalledApp &install(const apps::AppSpec &spec);
    /** Install a hand-written app (your own Activity subclass). */
    InstalledApp &installCustom(const CustomAppParams &params);
    /** Launch the main activity and run until it is resumed. */
    void launch(const apps::AppSpec &spec);
    /** Launch a custom app's main activity by process name. */
    void launchProcess(const std::string &process);
    InstalledApp &installed(const apps::AppSpec &spec);
    InstalledApp &installedProcess(const std::string &process);
    ActivityThread &threadFor(const apps::AppSpec &spec);
    /** Foreground instance as a SimulatedApp; null when gone/crashed. */
    std::shared_ptr<apps::SimulatedApp>
    foregroundApp(const apps::AppSpec &spec);
    /** Foreground activity of a custom app; null when gone/crashed. */
    std::shared_ptr<Activity>
    foregroundActivityOf(const std::string &process);
    /** Installed app processes keyed by process name (introspection). */
    const std::map<std::string, std::unique_ptr<InstalledApp>> &
    installedApps() const
    {
        return apps_;
    }
    /**
     * Register an additional component of an installed app (a second
     * screen reachable via Activity::startActivity).
     */
    void declareExtraComponent(const std::string &process,
                               const std::string &component,
                               ActivityFactory factory,
                               bool handles_config_changes = false);
    /** @} */

    /** @name Scripted user actions (run on the app's UI thread)
     * @{
     */
    /** Put the app into the canonical user state. */
    void applyUserState(const apps::AppSpec &spec);
    /** Observe whether the critical state survived. */
    apps::StateCheckResult verifyCriticalState(const apps::AppSpec &spec);
    /** Tap the app's update button. */
    void clickUpdateButton(const apps::AppSpec &spec);
    /** @} */

    /** @name Device actions
     * @{
     */
    /** Apply a full configuration. */
    void changeConfiguration(const Configuration &config);
    /** Rotate the screen (the most common runtime change). */
    void rotate();
    /** `adb shell wm size WxH`. */
    void wmSize(int width_px, int height_px);
    /** `adb shell wm size reset`. */
    void wmSizeReset();
    /** Switch the system locale. */
    void setLocale(const std::string &locale);
    /** Attach/detach a hardware keyboard (the paper's third example). */
    void setKeyboardAttached(bool attached);
    /** User back press on the foreground activity. */
    void pressBack();
    Configuration currentConfiguration() const;
    /** @} */

    /** @name Clock control
     * @{
     */
    void runFor(SimDuration duration);
    /**
     * Run until `predicate` holds or `timeout` elapses.
     * @return true when the predicate held.
     */
    bool runUntil(const std::function<bool()> &predicate,
                  SimDuration timeout);
    /**
     * Run until one more handling episode completes (or a crash ends
     * it). @return true on completion, false on crash/timeout.
     */
    bool waitHandlingComplete(SimDuration timeout = seconds(10));
    /** @} */

    /** @name Measurements
     * @{
     */
    /** Duration of the most recent completed handling episode, ms. */
    double lastHandlingMs() const { return trace_.lastHandlingMs(); }
    /** Current heap of the app's process. */
    std::size_t appHeapBytes(const apps::AppSpec &spec);
    /** Begin periodic heap sampling for the app. */
    MemorySampler &startMemorySampling(const apps::AppSpec &spec);
    /** @} */

  private:
    class AtmsProxy;

    /** @name Observer: this system's busy intervals and telemetry
     * @{
     */
    void onDispatchEnd(Looper &looper, SimTime start, SimTime end) override;
    void onTelemetry(const SimScheduler &source,
                     const TelemetryEvent &event) override;
    /** @} */

    /**
     * Declared first so it is destroyed last: the analyzer must stay
     * subscribed while apps_/atms_ tear down (their destructors report
     * object-gone events). Nothing declared before apps_/atms_ reports
     * to the chain.
     */
    std::unique_ptr<analysis::ScopedAnalyzer> analysis_guard_;
    SystemOptions options_;
    SimScheduler scheduler_;
    TraceRecorder trace_;
    CpuTracker cpu_;
    /** Feeds trace_ and cpu_; ends before they die, after apps_/atms_. */
    obs::Subscription subscription_{*this};
    EnergyModel energy_;
    std::unique_ptr<Atms> atms_;
    std::map<std::string, std::unique_ptr<InstalledApp>> apps_;
};

} // namespace rchdroid::sim

#endif // RCHDROID_SIM_ANDROID_SYSTEM_H
