/**
 * @file
 * Atms: the ActivityTaskManagerService of the simulated system_server,
 * mirroring com.android.server.wm.ActivityTaskManagerService.
 *
 * Owns the activity stack, the activity records, and the per-process
 * client bindings. Configuration updates enter the system here (the
 * `wm size` / rotation path), and the runtime-change handling mode
 * selects between the stock relaunch and RCHDroid's suppressed-relaunch
 * path (the paper's modified ensureActivityConfiguration).
 */
#ifndef RCHDROID_AMS_ATMS_H
#define RCHDROID_AMS_ATMS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ams/activity_record.h"
#include "ams/activity_stack.h"
#include "ams/activity_starter.h"
#include "ams/atms_costs.h"
#include "app/binder_interfaces.h"
#include "app/intent.h"
#include "os/ipc.h"
#include "os/looper.h"
#include "os/scheduler.h"
#include "platform/telemetry.h"

namespace rchdroid {

/** Which runtime-change handling the framework applies. */
enum class RuntimeChangeMode : std::uint8_t {
    /** Stock Android 10: destroy + recreate the foreground activity. */
    Restart,
    /** RCHDroid: shadow/sunny states, no restart. */
    RchDroid,
};

const char *runtimeChangeModeName(RuntimeChangeMode mode);

/** Manifest-declared properties of a component. */
struct ComponentInfo
{
    /** android:configChanges — the app handles changes itself. */
    bool handles_config_changes = false;
};

/**
 * The activity task manager service.
 */
class Atms final : public ActivityManager
{
  public:
    /**
     * @param scheduler Shared discrete-event core.
     * @param costs Server-side cost constants.
     * @param client_latency Binder latency towards app processes.
     */
    Atms(SimScheduler &scheduler, const AtmsCosts &costs,
         const IpcLatencyModel &client_latency);
    ~Atms() override;

    Atms(const Atms &) = delete;
    Atms &operator=(const Atms &) = delete;

    /** @name Wiring
     * @{
     */
    Looper &looper() { return looper_; }
    void setMode(RuntimeChangeMode mode) { mode_ = mode; }
    RuntimeChangeMode mode() const { return mode_; }
    /** Bind an app process's client interface. */
    void registerProcess(const std::string &process, ActivityClient &client);
    /** Register a component's manifest info (PackageManager stand-in). */
    void declareComponent(const std::string &component, ComponentInfo info);
    /** @} */

    /** @name Device-facing entry points
     * @{
     */
    /**
     * Apply a new device configuration (`wm size`, rotation, locale).
     * Timestamped as the start of runtime-change handling.
     */
    void updateConfiguration(const Configuration &config);
    /**
     * User back press: destroy the foreground activity; the record
     * beneath it (if any) resumes once the destruction is reported.
     */
    void pressBack();
    const Configuration &currentConfiguration() const { return config_; }
    /**
     * Set the boot-time configuration directly (no change dispatch, no
     * telemetry); used once at system construction.
     */
    void setInitialConfiguration(const Configuration &config)
    { config_ = config; }
    /** @} */

    /** @name ActivityManager (transactions from app processes)
     * @{
     */
    void startActivity(const Intent &intent) override;
    void activityResumed(ActivityToken token) override;
    void activityPaused(ActivityToken token) override;
    void activityStopped(ActivityToken token) override;
    void activityDestroyed(ActivityToken token) override;
    void shadowActivityReclaimed(ActivityToken token) override;
    void processCrashed(const std::string &process,
                        const std::string &reason) override;
    /** @} */

    /** @name Introspection (tests, sim harness)
     * @{
     */
    const ActivityRecord *recordFor(ActivityToken token) const;
    const ActivityStack &stack() const { return stack_; }
    std::size_t recordCount() const { return records_.size(); }
    /** Token of the foreground record, or kInvalidToken. */
    ActivityToken foregroundToken() const;
    const AtmsCosts &costs() const { return costs_; }
    /** Launch-path counters (normal/sunny/flip), for tests and benches. */
    const StarterStats &starterStats() const;
    /** @} */

  private:
    friend class ActivityStarter;

    void handleConfigChange(const Configuration &config);
    /** Deliver fn to the process's client after the binder latency. */
    void callClient(const std::string &process, std::function<void()> fn,
                    std::size_t payload_bytes = 0);
    ActivityClient *clientFor(const std::string &process);
    ActivityRecord &createRecord(const std::string &component,
                                 const std::string &process);
    ActivityRecord *mutableRecordFor(ActivityToken token);
    void emitEvent(TelemetryKind kind, const std::string &detail,
                   double value = 0.0);
    ComponentInfo componentInfo(const std::string &component) const;

    SimScheduler &scheduler_;
    AtmsCosts costs_;
    IpcLatencyModel client_latency_;
    Looper looper_;
    RuntimeChangeMode mode_ = RuntimeChangeMode::Restart;
    Configuration config_;
    ActivityStack stack_;
    std::map<ActivityToken, ActivityRecord> records_;
    std::map<std::string, ActivityClient *> clients_;
    std::map<std::string, ComponentInfo> components_;
    std::unique_ptr<ActivityStarter> starter_;
    ActivityToken next_token_ = 1;
};

} // namespace rchdroid

#endif // RCHDROID_AMS_ATMS_H
