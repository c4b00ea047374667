#include "app/activity.h"

#include <algorithm>
#include <utility>

#include "os/observer.h"
#include "platform/logging.h"

namespace rchdroid {

std::atomic<std::uint64_t> Activity::next_instance_id_{1};

Activity::Activity(std::string component)
    : component_(std::move(component)),
      instance_id_(next_instance_id_.fetch_add(1, std::memory_order_relaxed))
{
}

Activity::~Activity()
{
    obs::notify(&obs::Observer::onActivityGone, this);
}

void
Activity::attachContext(ActivityContext context)
{
    RCH_ASSERT(context.resources != nullptr, "context needs resources");
    RCH_ASSERT(context.inflater != nullptr, "context needs an inflater");
    context_ = std::move(context);
}

void
Activity::chargeCpu(SimDuration cost)
{
    if (cost <= 0)
        return;
    if (context_.ui_looper && context_.ui_looper->isDispatching())
        context_.ui_looper->consumeCpu(cost);
}

void
Activity::emitEvent(TelemetryKind kind)
{
    if (!context_.ui_looper)
        return;
    TelemetryEvent event;
    event.time = context_.ui_looper->now();
    event.kind = kind;
    event.detail = component_;
    obs::notify(&obs::Observer::onTelemetry, context_.ui_looper->scheduler(),
                event);
}

void
Activity::transitionTo(LifecycleState next)
{
    // Reported before validity is enforced so the protocol checker can
    // record an illegal attempt even when the assert below is the thing
    // that stops it.
    obs::notify(&obs::Observer::onLifecycleTransition, this,
                context_.thread, component_, instance_id_,
                static_cast<std::uint8_t>(state_),
                static_cast<std::uint8_t>(next));
    RCH_ASSERT(isValidTransition(state_, next), component_, " instance ",
               instance_id_, ": illegal lifecycle transition ",
               lifecycleStateName(state_), " -> ", lifecycleStateName(next));
    state_ = next;
}

void
Activity::performCreate(const Configuration &config, const Bundle *saved)
{
    transitionTo(LifecycleState::Created);
    config_ = config;
    window_.decorView().attachToHost(this);
    chargeCpu(context_.costs.activity_construct);
    chargeCpu(context_.costs.on_create_base);
    onCreate(saved);
    // Views inflated during onCreate were attached under the decor; make
    // sure the whole tree points back at this host.
    window_.decorView().visit(
        [this](View &v) { v.attachToHost(this); });
}

void
Activity::performStart()
{
    transitionTo(LifecycleState::Started);
    chargeCpu(context_.costs.on_start);
    onStart();
}

void
Activity::performRestoreInstanceState(const Bundle &saved)
{
    RCH_ASSERT(state_ == LifecycleState::Started,
               "restore outside Started: ", lifecycleStateName(state_));
    const Bundle &views = saved.getBundle("views");
    const int n = window_.countViews();
    chargeCpu(context_.costs.restore_state_per_view * n);
    if (!views.empty())
        window_.decorView().restoreHierarchyState(views, "r");
    if (saved.contains("fragments")) {
        // Fragment state is replayed when the app re-attaches each
        // fragment (by tag), as on Android.
        fragmentManager().setPendingRestoredState(
            saved.getBundle("fragments"));
    }
    onRestoreInstanceState(saved.getBundle("app"));
}

void
Activity::performResume(bool as_sunny)
{
    transitionTo(as_sunny ? LifecycleState::Sunny : LifecycleState::Resumed);
    chargeCpu(context_.costs.on_resume);
    const int n = window_.countViews();
    chargeCpu((context_.costs.layout_per_view + context_.costs.draw_per_view) *
              n);
    chargeCpu(context_.costs.draw_per_kib *
              static_cast<SimDuration>(drawableBytesInTree() / 1024));
    window_.layout(config_.screen_width_px, config_.screen_height_px);
    if (as_sunny)
        window_.decorView().dispatchSunnyStateChanged(true);
    onResume();
    emitEvent(kinds::kActivityResumed);
}

void
Activity::performPause()
{
    transitionTo(LifecycleState::Paused);
    chargeCpu(context_.costs.on_pause);
    onPause();
}

void
Activity::performStop()
{
    transitionTo(LifecycleState::Stopped);
    chargeCpu(context_.costs.on_stop);
    onStop();
}

void
Activity::performDestroy()
{
    const int n = window_.countViews();
    // Fast-path teardown used by relaunch and shadow GC: Android funnels
    // these through pause/stop internally. The intermediate hops follow
    // the Fig. 4 edges (Shadow goes straight to Destroyed, its only exit
    // besides the coin flip); costs are charged as one destroy below.
    if (state_ == LifecycleState::Resumed || state_ == LifecycleState::Sunny)
        transitionTo(LifecycleState::Paused);
    if (state_ == LifecycleState::Paused)
        transitionTo(LifecycleState::Stopped);
    transitionTo(LifecycleState::Destroyed);
    chargeCpu(context_.costs.on_destroy_base +
              context_.costs.destroy_per_view * n);
    // Dialogs still attached to this window token leak: Android logs
    // the leak and force-closes them (the process survives).
    for (Dialog *dialog : dialogs_) {
        if (dialog->isShowing()) {
            emitEvent(kinds::kAppWindowLeaked);
            dialog->onOwnerDestroyed();
        }
    }
    onDestroy();
    window_.decorView().markDestroyed();
    shadow_snapshot_ = Bundle{};
    has_shadow_snapshot_ = false;
    emitEvent(kinds::kActivityDestroyed);
}

void
Activity::performConfigurationChanged(const Configuration &config)
{
    config_ = config;
    window_.layout(config.screen_width_px, config.screen_height_px);
    // Full relayout + redraw under the new geometry.
    chargeCpu((context_.costs.layout_per_view + context_.costs.draw_per_view) *
              window_.countViews());
    chargeCpu(context_.costs.draw_per_kib *
              static_cast<SimDuration>(drawableBytesInTree() / 1024));
    onConfigurationChanged(config);
}

Bundle
Activity::saveInstanceStateNow(bool full)
{
    Bundle out;
    Bundle views;
    const int n = window_.countViews();
    chargeCpu(context_.costs.save_state_base +
              context_.costs.save_state_per_view * n);
    window_.decorView().saveHierarchyState(views, full, "r");
    out.putBundle("views", std::move(views));
    if (fragment_manager_ && fragment_manager_->attachedCount() > 0) {
        Bundle fragments;
        fragment_manager_->saveAllState(fragments);
        out.putBundle("fragments", std::move(fragments));
    }
    Bundle app;
    onSaveInstanceState(app);
    out.putBundle("app", std::move(app));
    return out;
}

const Bundle &
Activity::enterShadowState()
{
    RCH_ASSERT(state_ == LifecycleState::Resumed ||
                   state_ == LifecycleState::Sunny,
               "enterShadowState from ", lifecycleStateName(state_));
    // The explicit RCHDroid snapshot: full per-view coverage.
    shadow_snapshot_ = saveInstanceStateNow(/*full=*/true);
    has_shadow_snapshot_ = true;
    transitionTo(LifecycleState::Shadow);
    window_.decorView().dispatchSunnyStateChanged(false);
    window_.decorView().dispatchShadowStateChanged(true);
    shadow_entered_at_ =
        context_.ui_looper ? context_.ui_looper->now() : 0;
    emitEvent(kinds::kActivityEnterShadow);
    return shadow_snapshot_;
}

void
Activity::enterSunnyStateFromShadow()
{
    transitionTo(LifecycleState::Sunny);
    window_.decorView().dispatchShadowStateChanged(false);
    window_.decorView().dispatchSunnyStateChanged(true);
    shadow_snapshot_ = Bundle{};
    has_shadow_snapshot_ = false;
    emitEvent(kinds::kActivityFlipToSunny);
}

void
Activity::degradeSunnyToResumed()
{
    transitionTo(LifecycleState::Resumed);
    window_.decorView().dispatchSunnyStateChanged(false);
}

std::unordered_map<std::string, View *>
Activity::getAllSunnyViews()
{
    std::unordered_map<std::string, View *> table;
    int n = 0;
    window_.decorView().visit([&table, &n](View &v) {
        ++n;
        if (!v.id().empty())
            table.emplace(v.id(), &v);
    });
    chargeCpu(context_.costs.mapping_insert_per_view * n);
    return table;
}

int
Activity::setSunnyViews(const std::unordered_map<std::string, View *> &sunny)
{
    int wired = 0;
    int n = 0;
    window_.decorView().visit([&sunny, &wired, &n](View &v) {
        ++n;
        if (v.id().empty())
            return;
        auto it = sunny.find(v.id());
        if (it == sunny.end())
            return;
        v.setSunnyPeer(it->second);
        it->second->setSunnyPeer(&v); // reverse link: free coin-flips
        ++wired;
    });
    chargeCpu(context_.costs.mapping_wire_per_view * n);
    return wired;
}

View &
Activity::setContentView(ResourceId layout_id)
{
    RCH_ASSERT(context_.inflater, "setContentView before attachContext");
    auto inflated = context_.inflater->inflate(layout_id, config_);
    if (!inflated) {
        RCH_FATAL(component_, ": setContentView failed: ",
                  inflated.status().toString());
    }
    chargeCpu(inflated.value().cost);
    View &content = window_.setContent(std::move(inflated).value().value);
    window_.decorView().visit([this](View &v) { v.attachToHost(this); });
    return content;
}

View &
Activity::setContentView(std::unique_ptr<View> content)
{
    chargeCpu(context_.costs.inflate_per_node * content->countViews());
    View &installed = window_.setContent(std::move(content));
    window_.decorView().visit([this](View &v) { v.attachToHost(this); });
    return installed;
}

View *
Activity::findViewById(const std::string &id)
{
    return window_.decorView().findViewById(id);
}

int
Activity::showingDialogCount() const
{
    int n = 0;
    for (const Dialog *dialog : dialogs_)
        n += dialog->isShowing();
    return n;
}

void
Activity::registerDialog(Dialog *dialog)
{
    dialogs_.push_back(dialog);
}

void
Activity::unregisterDialog(Dialog *dialog)
{
    dialogs_.erase(std::remove(dialogs_.begin(), dialogs_.end(), dialog),
                   dialogs_.end());
}

FragmentManager &
Activity::fragmentManager()
{
    if (!fragment_manager_)
        fragment_manager_ = std::make_unique<FragmentManager>(*this);
    return *fragment_manager_;
}

void
Activity::startActivity(const std::string &target_component)
{
    RCH_ASSERT(context_.thread, "startActivity before attach");
    // Declared in activity_thread.h; the indirection avoids a circular
    // include (the thread knows its process name and ATMS binding).
    detail::sendStartActivity(*context_.thread, target_component);
}

ResourceManager &
Activity::resources()
{
    RCH_ASSERT(context_.resources, "resources before attachContext");
    return *context_.resources;
}

std::size_t
Activity::memoryFootprintBytes() const
{
    std::size_t bytes = 2048; // Activity object + context plumbing.
    bytes += window_.memoryFootprintBytes();
    bytes += private_heap_bytes_;
    if (has_shadow_snapshot_)
        bytes += shadow_snapshot_.approximateSizeBytes();
    return bytes;
}

std::size_t
Activity::drawableBytesInTree() const
{
    std::size_t total = 0;
    window_.decorView().visitConst(
        [&total](const View &v) { total += v.drawableBytes(); });
    return total;
}

void
Activity::onViewInvalidated(View &view)
{
    if (invalidation_listener_)
        invalidation_listener_->onViewInvalidated(*this, view);
}

} // namespace rchdroid
