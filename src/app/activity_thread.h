/**
 * @file
 * ActivityThread: the app process's main-thread dispatcher, mirroring
 * android.app.ActivityThread.
 *
 * Owns the UI looper, the async worker looper, the app's resources and
 * inflater, the live activity instances, and the crash guard that turns
 * an uncaught UiException into a simulated process death. The runtime-
 * change behaviour is pluggable (ClientRuntimeChangeHandler) — the
 * paper's Table 2 modifications to this class are implemented by
 * rch::RchClientHandler hooking these methods.
 */
#ifndef RCHDROID_APP_ACTIVITY_THREAD_H
#define RCHDROID_APP_ACTIVITY_THREAD_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/activity.h"
#include "app/async_task.h"
#include "app/binder_interfaces.h"
#include "app/framework_costs.h"
#include "app/runtime_change_handler.h"
#include "os/looper.h"
#include "os/scheduler.h"
#include "platform/telemetry.h"
#include "view/ui_exceptions.h"

namespace rchdroid {

/** Factory producing a fresh instance of an app's activity subclass. */
using ActivityFactory = std::function<std::unique_ptr<Activity>()>;

/** Static parameters of a simulated app process. */
struct ProcessParams
{
    /** Process name, e.g. "com.example.photos". */
    std::string process_name;
    /**
     * Baseline heap of the process outside activity objects (code, art
     * heap, caches). Dominates the Fig. 8 / Fig. 14b absolute numbers.
     */
    std::size_t base_heap_bytes = 0;
};

/** Details of a simulated process crash. */
struct CrashInfo
{
    UiFailureKind kind = UiFailureKind::NullPointer;
    std::string reason;
    SimTime time = 0;
};

/**
 * The client side of the activity runtime.
 */
class ActivityThread final : public ActivityClient
{
  public:
    /**
     * @param scheduler Shared discrete-event core.
     * @param params Process identity and memory baseline.
     * @param resources The app's declared resources.
     * @param resource_costs Load-cost model (from sim::DeviceModel).
     * @param costs Framework cost constants (from sim::DeviceModel).
     */
    ActivityThread(SimScheduler &scheduler, ProcessParams params,
                   std::shared_ptr<const ResourceTable> resources,
                   const ResourceCostModel &resource_costs,
                   const FrameworkCosts &costs);

    ActivityThread(const ActivityThread &) = delete;
    ActivityThread &operator=(const ActivityThread &) = delete;

    /** @name Wiring
     * @{
     */
    void setActivityManager(ActivityManager *am) { am_ = am; }
    ActivityManager *activityManager() { return am_; }
    void setClientHandler(ClientRuntimeChangeHandler *handler)
    { handler_ = handler; }
    ClientRuntimeChangeHandler *clientHandler() { return handler_; }
    void registerActivityFactory(const std::string &component,
                                 ActivityFactory factory);
    /** @} */

    /** @name Introspection
     * @{
     */
    const std::string &processName() const { return params_.process_name; }
    Looper &uiLooper() { return ui_looper_; }
    Looper &workerLooper() { return worker_looper_; }
    SimScheduler &scheduler() { return scheduler_; }
    ResourceManager &resources() { return resources_; }
    LayoutInflater &inflater() { return inflater_; }
    const FrameworkCosts &costs() const { return costs_; }
    /** @} */

    /** @name Activity registry
     * @{
     */
    std::shared_ptr<Activity> activityForToken(ActivityToken token);
    /** The activity currently Resumed or Sunny, if any. */
    std::shared_ptr<Activity> foregroundActivity();
    /** The activity currently in the Shadow state, if any. */
    std::shared_ptr<Activity> shadowActivity();
    std::size_t liveActivityCount() const { return activities_.size(); }
    /** Live instances keyed by token (model-checker fingerprints). */
    const std::map<ActivityToken, std::shared_ptr<Activity>> &
    activities() const
    {
        return activities_;
    }
    /** Remove `token` from the registry without lifecycle side effects
     *  (used by handlers that already drove the lifecycle). */
    void dropActivity(ActivityToken token);
    /** @} */

    /** @name ActivityClient (transactions from the ATMS)
     * @{
     */
    void scheduleLaunchActivity(const LaunchArgs &args) override;
    void scheduleRelaunchActivity(ActivityToken token,
                                  const Configuration &config) override;
    void scheduleConfigurationChanged(ActivityToken token,
                                      const Configuration &config) override;
    void scheduleDestroyActivity(ActivityToken token) override;
    void scheduleStopActivity(ActivityToken token) override;
    void scheduleResumeActivity(ActivityToken token) override;
    /** @} */

    /** @name Launch machinery (used by handlers)
     * All run inside the current UI dispatch, accumulating cost.
     * @{
     */
    /**
     * Create, initialise and resume a fresh instance.
     * @param args Launch parameters (token, component, config).
     * @param saved Saved instance state to restore, or null.
     * @param as_sunny Resume into the Sunny state.
     * @return The new instance.
     */
    std::shared_ptr<Activity> performLaunchActivity(const LaunchArgs &args,
                                                    const Bundle *saved,
                                                    bool as_sunny);
    /** Report activityResumed to the ATMS once current costs settle. */
    void notifyResumedAtCostEnd(ActivityToken token);
    /** @} */

    /** @name App-code execution
     * @{
     */
    /**
     * Run app code under the crash guard: an escaping UiException kills
     * the process (Fig. 9's Android-10 trace).
     */
    void runAppCode(const std::function<void()> &fn);
    /** Post crash-guarded app code to the UI looper. */
    void postAppCallback(std::function<void()> fn, SimDuration cost = 0,
                         std::string tag = {});
    /**
     * Same, delivered no earlier than the absolute time `when`. A
     * non-zero `causal_id` threads an existing tracer flow through the
     * message (AsyncTask's result hop reuses its execute-site flow id);
     * the producer-side flow step is emitted by Looper::enqueue.
     */
    void postAppCallbackAt(SimTime when, std::function<void()> fn,
                           SimDuration cost = 0, std::string tag = {},
                           std::uint64_t causal_id = 0);
    /** @} */

    /** @name Async-task bookkeeping
     * @{
     */
    void noteAsyncStarted(const std::shared_ptr<AsyncTask> &task);
    void noteAsyncFinished(const std::shared_ptr<AsyncTask> &task);
    std::size_t inFlightAsyncTasks() const { return in_flight_.size(); }
    /** The in-flight tasks themselves (model-checker oracles). */
    const std::vector<std::shared_ptr<AsyncTask>> &inFlightAsyncList() const
    {
        return in_flight_;
    }
    /** @} */

    /** @name Process health and accounting
     * @{
     */
    bool crashed() const { return crash_.has_value(); }
    const std::optional<CrashInfo> &crashInfo() const { return crash_; }
    /**
     * Total simulated heap: base + live activities + activities kept
     * alive only by in-flight async references (the classic leak).
     * Zero after a crash (process gone).
     */
    std::size_t totalHeapBytes() const;
    /** @} */

  private:
    void emitEvent(TelemetryKind kind, std::string_view detail);
    void handleCrash(const UiException &e);
    std::shared_ptr<Activity> createInstance(const std::string &component,
                                             ActivityToken token);

    SimScheduler &scheduler_;
    ProcessParams params_;
    ResourceManager resources_;
    LayoutInflater inflater_;
    FrameworkCosts costs_;
    Looper ui_looper_;
    Looper worker_looper_;
    ActivityManager *am_ = nullptr;
    ClientRuntimeChangeHandler *handler_ = nullptr;
    std::map<std::string, ActivityFactory> factories_;
    std::map<ActivityToken, std::shared_ptr<Activity>> activities_;
    /** Destroyed activities still referenced by in-flight tasks. */
    std::vector<std::shared_ptr<Activity>> leaked_;
    std::vector<std::shared_ptr<AsyncTask>> in_flight_;
    std::optional<CrashInfo> crash_;
};

} // namespace rchdroid

#endif // RCHDROID_APP_ACTIVITY_THREAD_H
