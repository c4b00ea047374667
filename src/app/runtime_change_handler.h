/**
 * @file
 * ClientRuntimeChangeHandler: the strategy interface through which the
 * ActivityThread delegates runtime-change handling.
 *
 * Its one implementation is RchClientHandler, the paper's contribution
 * (shadow/sunny states, lazy migration, GC). With no handler installed
 * the ActivityThread keeps the stock Android 10 behaviour: the ATMS
 * relaunches the activity.
 *
 * This mirrors how the prototype patches specific framework methods
 * (performActivityConfigurationChanged, performLaunchActivity,
 * handleResumeActivity — Table 2): the hook points are fixed, the
 * behaviour behind them is what RCHDroid replaces.
 */
#ifndef RCHDROID_APP_RUNTIME_CHANGE_HANDLER_H
#define RCHDROID_APP_RUNTIME_CHANGE_HANDLER_H

#include "app/binder_interfaces.h"
#include "resources/configuration.h"

namespace rchdroid {

class ActivityThread;

/**
 * Client-side runtime-change strategy.
 */
class ClientRuntimeChangeHandler
{
  public:
    virtual ~ClientRuntimeChangeHandler() = default;

    /**
     * The ATMS delivered a configuration change for `token` without a
     * relaunch (RCHDroid mode, or an app that handles changes itself
     * when no handler is installed).
     */
    virtual void onConfigurationChanged(ActivityThread &thread,
                                        ActivityToken token,
                                        const Configuration &config) = 0;

    /**
     * The ATMS scheduled a sunny-flagged launch (fresh record or a
     * coin-flip of an existing shadow record).
     */
    virtual void onSunnyLaunch(ActivityThread &thread,
                               const LaunchArgs &args) = 0;

    /**
     * The foreground activity is going away (destroy/switch); release
     * any shadow resources immediately (paper §3.5).
     */
    virtual void onForegroundGone(ActivityThread &thread,
                                  ActivityToken token) = 0;
};

} // namespace rchdroid

#endif // RCHDROID_APP_RUNTIME_CHANGE_HANDLER_H
