/**
 * @file
 * The two binder-style interfaces between the app process and the
 * system_server, mirroring AOSP's IApplicationThread (server → client)
 * and IActivityTaskManager (client → server).
 *
 * The sim layer implements proxies that deliver these calls after the
 * modelled one-way binder latency; unit tests may wire the interfaces
 * directly.
 */
#ifndef RCHDROID_APP_BINDER_INTERFACES_H
#define RCHDROID_APP_BINDER_INTERFACES_H

#include <cstdint>
#include <string>

#include "app/intent.h"
#include "resources/configuration.h"

namespace rchdroid {

/** Server-issued identifier of an ActivityRecord. */
using ActivityToken = std::uint64_t;

/** Sentinel for "no record". */
inline constexpr ActivityToken kInvalidToken = 0;

/** Arguments of a scheduleLaunchActivity transaction. */
struct LaunchArgs
{
    ActivityToken token = kInvalidToken;
    std::string component;
    Configuration config;
    /**
     * True when this launch is the sunny half of a runtime change
     * (intent carried kFlagSunny).
     */
    bool sunny = false;
    /**
     * True when the ATMS coin-flipped an existing shadow record instead
     * of creating a new one: the client must re-foreground its shadow
     * instance rather than construct a new activity.
     */
    bool flipped = false;
    /**
     * Token of the record that was moved to the shadow state by this
     * launch (the previous foreground), or kInvalidToken.
     */
    ActivityToken shadowed_token = kInvalidToken;
};

/**
 * What the system_server can ask the app process to do
 * (IApplicationThread).
 */
class ActivityClient
{
  public:
    virtual ~ActivityClient() = default;

    /** Create (or flip) and bring an activity to the foreground. */
    virtual void scheduleLaunchActivity(const LaunchArgs &args) = 0;

    /**
     * The stock restarting-based handling: destroy the instance and
     * recreate it under the new configuration, same record.
     */
    virtual void scheduleRelaunchActivity(ActivityToken token,
                                          const Configuration &config) = 0;

    /**
     * Deliver a configuration change without relaunch — either because
     * the app declared it handles changes itself, or because RCHDroid's
     * modified ensureActivityConfiguration suppressed the relaunch.
     */
    virtual void scheduleConfigurationChanged(ActivityToken token,
                                              const Configuration &config) = 0;

    /** Tear an activity down (back press, task removal, shadow GC). */
    virtual void scheduleDestroyActivity(ActivityToken token) = 0;

    /**
     * Move a foreground activity to the background (another task came
     * to the front): pause + stop. Under RCHDroid this also releases
     * the process's shadow instance immediately (§3.5: "If the
     * foreground activity instance is terminated or switched, the
     * corresponding shadow-state activity will be released
     * immediately").
     */
    virtual void scheduleStopActivity(ActivityToken token) = 0;

    /** Bring a stopped activity back to the foreground (task switch). */
    virtual void scheduleResumeActivity(ActivityToken token) = 0;
};

/**
 * What the app process can ask the system_server to do
 * (IActivityTaskManager).
 */
class ActivityManager
{
  public:
    virtual ~ActivityManager() = default;

    /** Request an activity start (normal or sunny-flagged). */
    virtual void startActivity(const Intent &intent) = 0;

    /** Lifecycle reports; the ATMS timestamps handling completion. */
    virtual void activityResumed(ActivityToken token) = 0;
    virtual void activityStopped(ActivityToken token) = 0;
    virtual void activityDestroyed(ActivityToken token) = 0;

    /**
     * RCHDroid GC: the client reclaimed its shadow instance; drop the
     * shadow record so later coin-flips do not find a dangling entry.
     */
    virtual void shadowActivityReclaimed(ActivityToken token) = 0;

    /** The app process died (uncaught exception). */
    virtual void processCrashed(const std::string &process,
                                const std::string &reason) = 0;
};

} // namespace rchdroid

#endif // RCHDROID_APP_BINDER_INTERFACES_H
