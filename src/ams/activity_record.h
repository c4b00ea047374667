/**
 * @file
 * ActivityRecord: the system_server's bookkeeping entry for one activity
 * instance, mirroring com.android.server.wm.ActivityRecord with the
 * RCHDroid addition of Table 2 — the shadow-state field and its
 * accessors (11 LoC in the paper's patch).
 */
#ifndef RCHDROID_AMS_ACTIVITY_RECORD_H
#define RCHDROID_AMS_ACTIVITY_RECORD_H

#include <cstdint>
#include <string>

#include "app/binder_interfaces.h"
#include "os/observer.h"
#include "platform/time.h"
#include "resources/configuration.h"

namespace rchdroid {

/** Server-side visibility of a record's client instance. */
enum class RecordState : std::uint8_t {
    Launching,
    Resumed,
    Paused,
    Stopped,
    Destroyed,
};

/**
 * One activity's server-side record.
 */
class ActivityRecord
{
  public:
    ActivityRecord(ActivityToken token, std::string component,
                   std::string process, Configuration config,
                   SimTime created_at)
        : token_(token),
          component_(std::move(component)),
          process_(std::move(process)),
          config_(std::move(config)),
          created_at_(created_at)
    {
    }

    ~ActivityRecord()
    {
        obs::notify(&obs::Observer::onObjectGone, this);
    }

    ActivityToken token() const { return token_; }
    const std::string &component() const { return component_; }
    const std::string &process() const { return process_; }

    const Configuration &configuration() const { return config_; }
    void
    setConfiguration(Configuration config)
    {
        noteAccess(/*is_write=*/true);
        config_ = std::move(config);
    }

    RecordState
    state() const
    {
        noteAccess(/*is_write=*/false);
        return state_;
    }
    void
    setState(RecordState state)
    {
        noteAccess(/*is_write=*/true);
        state_ = state;
    }

    /** @name RCHDroid shadow field (Table 2)
     * @{
     */
    bool
    isShadow() const
    {
        noteAccess(/*is_write=*/false);
        return shadow_;
    }
    void
    setShadow(bool shadow, SimTime now)
    {
        noteAccess(/*is_write=*/true);
        shadow_ = shadow;
        if (shadow)
            shadow_since_ = now;
    }
    SimTime shadowSince() const { return shadow_since_; }
    /** @} */

    /** Whether the app's manifest declares android:configChanges. */
    bool handlesConfigChanges() const { return handles_config_changes_; }
    void setHandlesConfigChanges(bool handles)
    { handles_config_changes_ = handles; }

    SimTime createdAt() const { return created_at_; }

  private:
    /** Report a record access to the observer chain. */
    void
    noteAccess(bool is_write) const
    {
        obs::notify(&obs::Observer::onSharedAccess, this, "ActivityRecord",
                    component_, is_write);
    }

    ActivityToken token_;
    std::string component_;
    std::string process_;
    Configuration config_;
    RecordState state_ = RecordState::Launching;
    bool shadow_ = false;
    SimTime shadow_since_ = 0;
    bool handles_config_changes_ = false;
    SimTime created_at_ = 0;
};

} // namespace rchdroid

#endif // RCHDROID_AMS_ACTIVITY_RECORD_H
