#include "rch/rch_client_handler.h"

#include <algorithm>

#include "os/observer.h"
#include "platform/logging.h"
#include "platform/metrics.h"
#include "platform/tracing.h"

namespace rchdroid {

RchClientHandler::RchClientHandler(RchConfig config)
    : config_(config),
      mapper_(config_.mapping_strategy),
      migrator_(stats_),
      gc_policy_(config_)
{
}

void
RchClientHandler::attach(ActivityThread &thread)
{
    thread.setClientHandler(this);
}

void
RchClientHandler::armGcTimer(ActivityThread &thread)
{
    // The doGcForShadowIfNeeded timer runs only while a shadow instance
    // exists; it disarms itself once there is nothing to collect, so an
    // idle process schedules no work.
    if (gc_timer_armed_)
        return;
    gc_timer_armed_ = true;
    // The handler owns the tick closure; posted copies capture only raw
    // pointers back to it (a self-capturing shared_ptr closure would
    // never be reclaimed).
    ActivityThread *thread_ptr = &thread;
    gc_tick_ = [this, thread_ptr] {
        if (thread_ptr->crashed() || !thread_ptr->shadowActivity()) {
            gc_timer_armed_ = false;
            return;
        }
        doGcForShadowIfNeeded(*thread_ptr);
        if (!thread_ptr->shadowActivity()) {
            gc_timer_armed_ = false;
            return;
        }
        thread_ptr->uiLooper().post(gc_tick_, config_.gc_interval,
                                    thread_ptr->costs().gc_check, "gcTick");
    };
    thread.uiLooper().post(gc_tick_, config_.gc_interval,
                           thread.costs().gc_check, "gcTick");
}

void
RchClientHandler::onConfigurationChanged(ActivityThread &thread,
                                         ActivityToken token,
                                         const Configuration &config)
{
    auto activity = thread.activityForToken(token);
    if (!activity)
        return;
    if (!isForeground(activity->lifecycleState())) {
        // A second change arrived while the previous one is still in
        // flight; the pending sunny launch already carries the newest
        // configuration from the ATMS, so this delivery is stale.
        return;
    }
    ++stats_.runtime_changes;
    RCH_TRACE_SCOPE_ARG("rch.shadowDemotion", activity->component(), "rch");

    // Detach any stale listener before the snapshot; the instance keeps
    // serving async callbacks in the shadow state, where the migrator
    // (re-installed below) catches the invalidations.
    activity->setInvalidationListener(nullptr);

    // Step 1 (Fig. 3): snapshot state and enter the shadow state.
    thread.runAppCode([&] { activity->enterShadowState(); });
    gc_policy_.noteShadowEntered(thread.scheduler().now());
    metrics::add(metrics::Counter::kShadowEntered);
    activity->setInvalidationListener(&migrator_);
    armGcTimer(thread);

    // Step 2: request the sunny-state start. The request departs when
    // the snapshot work completes; posting the IPC as a continuation on
    // the UI looper models that ordering.
    Intent intent;
    intent.component = activity->component();
    intent.source_process = thread.processName();
    intent.flags = kFlagSunny;
    ActivityManager *am = thread.activityManager();
    if (am) {
        thread.uiLooper().post([am, intent] { am->startActivity(intent); },
                               0, 0, "requestSunnyStart");
    }
    (void)config;
}

void
RchClientHandler::onSunnyLaunch(ActivityThread &thread,
                                const LaunchArgs &args)
{
    if (args.flipped)
        performFlip(thread, args);
    else
        performInitLaunch(thread, args);
}

void
RchClientHandler::performInitLaunch(ActivityThread &thread,
                                    const LaunchArgs &args)
{
    auto shadow = thread.activityForToken(args.shadowed_token);
    if (!shadow || !shadow->isShadow())
        shadow = thread.shadowActivity();

    // Step 3 (Fig. 3): create the sunny instance from the shadow
    // snapshot, then build the essence-based mapping.
    const Bundle *saved =
        (shadow && shadow->hasShadowSnapshot()) ? &shadow->shadowSnapshot()
                                                : nullptr;
    RCH_TRACE_SCOPE_ARG("rch.initLaunch", args.component, "rch");
    auto sunny = thread.performLaunchActivity(args, saved, /*as_sunny=*/true);
    ++stats_.init_launches;

    if (shadow) {
        RCH_TRACE_SCOPE("rch.buildMapping", "rch");
        const MappingResult mapping = mapper_.buildMapping(*sunny, *shadow);
        stats_.views_mapped += static_cast<std::uint64_t>(mapping.wired);
        stats_.views_unmatched +=
            static_cast<std::uint64_t>(std::max(mapping.unmatched, 0));
        metrics::add(metrics::Counter::kMapWired,
                     static_cast<std::uint64_t>(mapping.wired));
        metrics::add(metrics::Counter::kMapUnmatched,
                     static_cast<std::uint64_t>(std::max(mapping.unmatched, 0)));
        metrics::observe(metrics::Histogram::kMappedViewsPerBuild,
                         static_cast<double>(mapping.wired));
        shadow->setInvalidationListener(&migrator_);
    }
    thread.notifyResumedAtCostEnd(args.token);
}

void
RchClientHandler::performFlip(ActivityThread &thread, const LaunchArgs &args)
{
    auto incoming = thread.activityForToken(args.token);
    if (!incoming) {
        // A GC tick reclaimed the shadow the ATMS picked while this
        // launch was in flight (the ATMS ignores the late reclaim: the
        // record is sunny by then). Create the instance afresh from the
        // outgoing shadow, as if there had been no shadow to flip to.
        performInitLaunch(thread, args);
        return;
    }
    auto outgoing = thread.activityForToken(args.shadowed_token);
    RCH_ASSERT(incoming->isShadow(),
               "flip target is not a shadow instance");
    RCH_ASSERT(outgoing, "flip source instance missing");
    ++stats_.flips;
    RCH_TRACE_SCOPE_ARG("rch.flipSync", incoming->component(), "rch");
    // The flip is a full synchronisation point between the instances:
    // everything the displaced foreground did is ordered before anything
    // the incoming instance does from here on.
    obs::notify(&obs::Observer::onSyncBarrier, &thread, "coinFlip");

    Looper &ui = thread.uiLooper();
    if (ui.isDispatching())
        ui.consumeCpu(thread.costs().flip_fixed);

    // The outgoing foreground normally entered the shadow state already
    // when the configuration change was delivered (onConfigurationChanged
    // snapshots and shadows before requesting the sunny start); cover
    // the direct sunny-start path too.
    outgoing->setInvalidationListener(nullptr);
    if (isForeground(outgoing->lifecycleState())) {
        thread.runAppCode([&] { outgoing->enterShadowState(); });
        gc_policy_.noteShadowEntered(thread.scheduler().now());
    }
    RCH_ASSERT(outgoing->isShadow(), "flip source is not shadowed");
    armGcTimer(thread);

    // Sync the freshest state outgoing → incoming through the peer
    // pointers wired at mapping time (no re-mapping needed: the links
    // were stored in both directions).
    incoming->setInvalidationListener(nullptr);
    int synced = 0;
    thread.runAppCode([&] {
        outgoing->window().decorView().visit([&synced](View &v) {
            if (View *peer = v.sunnyPeer(); peer && !peer->isDestroyed()) {
                v.applyMigration(*peer);
                ++synced;
            }
        });
    });
    if (ui.isDispatching())
        ui.consumeCpu(thread.costs().flip_sync_per_view * synced);

    // Bring the incoming instance to the foreground under the new
    // configuration.
    thread.runAppCode([&] {
        incoming->enterSunnyStateFromShadow();
        incoming->performConfigurationChanged(args.config);
    });
    outgoing->setInvalidationListener(&migrator_);
    thread.notifyResumedAtCostEnd(args.token);
}

void
RchClientHandler::onForegroundGone(ActivityThread &thread,
                                   ActivityToken token)
{
    (void)token;
    // Paper §3.5: "If the foreground activity instance is terminated or
    // switched, the corresponding shadow-state activity will be released
    // immediately."
    if (auto shadow = thread.shadowActivity())
        releaseShadow(thread, shadow);
}

bool
RchClientHandler::doGcForShadowIfNeeded(ActivityThread &thread)
{
    auto shadow = thread.shadowActivity();
    if (!shadow)
        return false;
    RCH_TRACE_SCOPE_ARG("rch.gcCheck", shadow->component(), "rch");
    const SimTime now = thread.scheduler().now();
    const GcDecision decision =
        gc_policy_.decide(now, shadow->shadowEnteredAt());
    if (decision != GcDecision::Collect) {
        ++stats_.gc_keeps;
        metrics::add(decision == GcDecision::KeepYoung
                         ? metrics::Counter::kGcKeptYoung
                         : metrics::Counter::kGcKeptFrequent);
        return false;
    }
    releaseShadow(thread, shadow);
    ++stats_.gc_collections;
    metrics::add(metrics::Counter::kGcCollected);
    return true;
}

void
RchClientHandler::releaseShadow(ActivityThread &thread,
                                const std::shared_ptr<Activity> &shadow)
{
    const ActivityToken token = shadow->token();
    shadow->setInvalidationListener(nullptr);
    // GC barrier: the collection orders every migration the shadow
    // instance performed before any later work observes its absence.
    obs::notify(&obs::Observer::onSyncBarrier, &thread, "shadowGc");
    thread.runAppCode([&] { shadow->performDestroy(); });
    thread.dropActivity(token);
    if (auto foreground = thread.foregroundActivity()) {
        if (foreground->isSunny())
            foreground->degradeSunnyToResumed();
    }
    if (ActivityManager *am = thread.activityManager())
        am->shadowActivityReclaimed(token);
}

} // namespace rchdroid
