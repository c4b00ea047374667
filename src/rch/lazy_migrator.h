/**
 * @file
 * LazyMigrator: catches the generic invalidate() step of updates landing
 * on a shadow-state activity and replays them onto the mapped sunny view
 * (paper §3.3, "lazy-migration").
 *
 * Installed as the shadow activity's InvalidationListener; the sunny
 * activity never carries one, so migrated updates do not echo back.
 */
#ifndef RCHDROID_RCH_LAZY_MIGRATOR_H
#define RCHDROID_RCH_LAZY_MIGRATOR_H

#include "app/activity.h"
#include "rch/rch_config.h"

namespace rchdroid {

/**
 * The invalidate-hook half of the view-tree migration scheme.
 */
class LazyMigrator final : public InvalidationListener
{
  public:
    /** @param stats Shared counter sink (owned by the handler). */
    explicit LazyMigrator(RchStats &stats);

    /**
     * A view of `activity` was invalidated. When the activity is in the
     * shadow state and the view has a sunny peer, the view's typed
     * migration policy (Table 1) is applied to the peer and the
     * calibrated migration cost is charged to the UI looper.
     */
    void onViewInvalidated(Activity &activity, View &view) override;

    /** Views migrated since construction (also mirrored into stats). */
    std::uint64_t migratedViews() const { return migrated_; }

  private:
    RchStats &stats_;
    std::uint64_t migrated_ = 0;
    /** Re-entrancy latch: applyMigration may cascade invalidations. */
    bool migrating_ = false;
    /** Batch detection: UI-looper dispatch the last migration ran in. */
    std::uint64_t last_dispatch_seq_ = 0;
    bool seen_dispatch_ = false;
};

} // namespace rchdroid

#endif // RCHDROID_RCH_LAZY_MIGRATOR_H
