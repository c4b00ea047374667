#include "rch/lazy_migrator.h"

#include "platform/logging.h"
#include "platform/metrics.h"

namespace rchdroid {

LazyMigrator::LazyMigrator(RchStats &stats) : stats_(stats)
{
}

void
LazyMigrator::onViewInvalidated(Activity &activity, View &view)
{
    if (!activity.isShadow())
        return;
    if (migrating_)
        return;
    View *peer = view.sunnyPeer();
    if (!peer || peer->isDestroyed())
        return;

    migrating_ = true;
    // Charge the interception + typed attribute transfer (Table 1). The
    // fixed interception overhead applies once per UI dispatch (one
    // async-result batch), the per-view cost on every migrated view.
    Looper *looper = activity.context().ui_looper;
    if (looper && looper->isDispatching()) {
        const std::uint64_t dispatch_seq = looper->dispatchedMessages();
        if (dispatch_seq != last_dispatch_seq_ || !seen_dispatch_) {
            looper->consumeCpu(activity.context().costs.migrate_batch_base);
            last_dispatch_seq_ = dispatch_seq;
            seen_dispatch_ = true;
            metrics::add(metrics::Counter::kMigrateBatches);
        }
        looper->consumeCpu(activity.context().costs.migrate_per_view);
    }
    view.applyMigration(*peer);
    ++migrated_;
    ++stats_.views_migrated;
    // Which view types the lazy policy actually touches (Table 1 is
    // priced per typed attribute set, so the type mix matters).
    metrics::addLabeled(metrics::Counter::kViewsMigrated, view.typeName());
    migrating_ = false;
}

} // namespace rchdroid
