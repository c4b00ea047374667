/**
 * @file
 * Activity: one user-facing screen instance, mirroring
 * android.app.Activity with the RCHDroid additions of Table 2: the
 * Shadow/Sunny states with accessors, getAllSunnyViews (the essence-
 * mapping hash table), and setSunnyViews (peer-pointer wiring).
 *
 * App code subclasses Activity and overrides the lifecycle callbacks;
 * the framework drives instances exclusively through the perform*
 * methods, as AOSP's ActivityThread does via Instrumentation.
 */
#ifndef RCHDROID_APP_ACTIVITY_H
#define RCHDROID_APP_ACTIVITY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "app/dialog.h"
#include "app/fragment.h"
#include "app/framework_costs.h"
#include "app/lifecycle.h"
#include "app/window.h"
#include "os/bundle.h"
#include "os/looper.h"
#include "platform/telemetry.h"
#include "resources/configuration.h"
#include "resources/resource_manager.h"
#include "view/layout_inflater.h"

namespace rchdroid {

class Activity;
class ActivityThread;

namespace detail {
/** Bridge used by Activity::startActivity (defined with ActivityThread). */
void sendStartActivity(ActivityThread &thread, const std::string &component);
} // namespace detail

/**
 * Observer of invalidations on an activity's tree; RCHDroid's lazy
 * migrator implements this to catch the "final update step" of async
 * callbacks landing on a shadow-state activity (paper §3.3).
 */
class InvalidationListener
{
  public:
    virtual ~InvalidationListener() = default;

    virtual void onViewInvalidated(Activity &activity, View &view) = 0;
};

/**
 * Everything an activity needs from its hosting process. Supplied by
 * ActivityThread; built directly in unit tests.
 */
struct ActivityContext
{
    /** UI looper; costs are charged here when it is dispatching. */
    Looper *ui_looper = nullptr;
    ResourceManager *resources = nullptr;
    LayoutInflater *inflater = nullptr;
    FrameworkCosts costs;
    /** Hosting process; app code uses it to spawn AsyncTasks. */
    ActivityThread *thread = nullptr;
};

/**
 * Base class of all simulated app screens.
 */
class Activity : public ViewTreeHost
{
  public:
    /**
     * @param component Component name, e.g. "com.example/.Main".
     */
    explicit Activity(std::string component);
    ~Activity() override;

    /** @name Identity
     * @{
     */
    const std::string &component() const { return component_; }
    /** Process-unique instance number (new per construction). */
    std::uint64_t instanceId() const { return instance_id_; }
    std::uint64_t token() const { return token_; }
    void setToken(std::uint64_t token) { token_ = token; }
    /** @} */

    /** @name Wiring (framework-only)
     * @{
     */
    void attachContext(ActivityContext context);
    const ActivityContext &context() const { return context_; }
    void setInvalidationListener(InvalidationListener *listener)
    { invalidation_listener_ = listener; }
    InvalidationListener *invalidationListener()
    { return invalidation_listener_; }
    /** @} */

    /** @name State inspection
     * @{
     */
    LifecycleState lifecycleState() const { return state_; }
    const Configuration &configuration() const { return config_; }
    Window &window() { return window_; }
    const Window &window() const { return window_; }
    bool isDestroyed() const
    { return state_ == LifecycleState::Destroyed; }
    /** @} */

    /** @name RCHDroid state (Table 2: Activity modifications)
     * @{
     */
    bool isShadow() const { return state_ == LifecycleState::Shadow; }
    bool isSunny() const { return state_ == LifecycleState::Sunny; }
    /**
     * Enter the shadow state: snapshot instance state, flag the tree,
     * transition Resumed/Sunny → Shadow. Returns the snapshot.
     */
    Bundle enterShadowState();
    /** Leave shadow for the foreground (coin-flip target). */
    void enterSunnyStateFromShadow();
    /** Downgrade Sunny → Resumed (shadow partner collected). */
    void degradeSunnyToResumed();
    /**
     * Build the essence-mapping hash table of this (sunny) activity:
     * view id → view, for every id-bearing view (paper §3.3, Fig. 5).
     */
    std::unordered_map<std::string, View *> getAllSunnyViews();
    /**
     * Wire this (shadow) activity's views to their sunny peers through
     * the hash table built by getAllSunnyViews. Views whose id misses
     * the table keep a null peer (dynamically added views; they simply
     * do not migrate, like RuntimeDroid's unhandled cases — but unlike
     * RuntimeDroid this never crashes).
     * @return Number of views wired.
     */
    int setSunnyViews(const std::unordered_map<std::string, View *> &sunny);
    /** @} */

    /** @name Lifecycle driving (framework-only perform* methods)
     * Each charges its calibrated cost to the dispatching UI looper.
     * @{
     */
    void performCreate(const Configuration &config, const Bundle *saved);
    void performStart();
    void performRestoreInstanceState(const Bundle &saved);
    /** @param as_sunny Resume into the Sunny state (RCHDroid launch). */
    void performResume(bool as_sunny = false);
    void performPause();
    void performStop();
    void performDestroy();
    /** Deliver a configuration change without recreation. */
    void performConfigurationChanged(const Configuration &config);
    /** @} */

    /**
     * Snapshot instance state: the framework saves the view hierarchy
     * under "views" and the app's onSaveInstanceState output under
     * "app" — mirroring Activity.onSaveInstanceState's default
     * behaviour plus the user hook.
     *
     * @param full Stock Android saves the default (partial) per-widget
     *        state; RCHDroid's explicit snapshot (paper §3.3) saves the
     *        complete state of every view.
     */
    Bundle saveInstanceStateNow(bool full);

    /** @name App-facing helpers (called from lifecycle callbacks)
     * @{
     */
    /** Inflate a layout resource and install it as content. */
    View &setContentView(ResourceId layout_id);
    /** Install an already-built tree as content (dynamic UIs). */
    View &setContentView(std::unique_ptr<View> content);
    /** Find a view by id in the window; null when absent. */
    View *findViewById(const std::string &id);
    /** The activity's fragment registry (created on first use). */
    FragmentManager &fragmentManager();
    /**
     * Navigate to another activity of this app (Context.startActivity):
     * sends the start intent to the ATMS through the hosting process.
     */
    void startActivity(const std::string &component);
    /** Dialogs currently showing on this activity's window token. */
    int showingDialogCount() const;
    /** Dialog wiring (called by Dialog's ctor/dtor). */
    void registerDialog(Dialog *dialog);
    void unregisterDialog(Dialog *dialog);
    /** Typed findViewById; null when absent or wrong type. */
    template <typename T>
    T *
    findViewByIdAs(const std::string &id)
    {
        return dynamic_cast<T *>(findViewById(id));
    }
    ResourceManager &resources();
    /** @} */

    /** Time this instance last entered the shadow state. */
    SimTime shadowEnteredAt() const { return shadow_entered_at_; }

    /** Snapshot captured on the last enterShadowState(). */
    bool hasShadowSnapshot() const { return has_shadow_snapshot_; }
    const Bundle &shadowSnapshot() const { return shadow_snapshot_; }

    /** Approximate heap footprint: object + window tree + snapshots. */
    std::size_t memoryFootprintBytes() const;

    /** Total decoded drawable bytes in the window (redraw-cost input). */
    std::size_t drawableBytesInTree() const;

    /**
     * Extra per-instance heap beyond the view tree (app caches, in-flight
     * bitmaps); set from the AppSpec by the simulated app. A retained
     * shadow instance keeps this resident — the bulk of RCHDroid's
     * memory overhead in Fig. 8 / Fig. 14b.
     */
    std::size_t privateHeapBytes() const { return private_heap_bytes_; }
    void setPrivateHeapBytes(std::size_t bytes)
    { private_heap_bytes_ = bytes; }

    /** @name ViewTreeHost
     * @{
     */
    void onViewInvalidated(View &view) override;
    bool isShadowTree() const override { return isShadow(); }
    std::string hostName() const override { return component_; }
    Looper *uiLooper() const override { return context_.ui_looper; }
    /** @} */

  protected:
    /** @name App-overridable lifecycle callbacks
     * @{
     */
    virtual void onCreate(const Bundle *saved_state) { (void)saved_state; }
    virtual void onStart() {}
    virtual void onResume() {}
    virtual void onPause() {}
    virtual void onStop() {}
    virtual void onDestroy() {}
    /** Save app-private state (beyond view hierarchy) into out_state. */
    virtual void onSaveInstanceState(Bundle &out_state) { (void)out_state; }
    virtual void onRestoreInstanceState(const Bundle &saved)
    { (void)saved; }
    virtual void onConfigurationChanged(const Configuration &config)
    { (void)config; }
    /** @} */

    /** Charge virtual CPU to the UI looper when inside a dispatch. */
    void chargeCpu(SimDuration cost);

    /**
     * Emit a telemetry event tagged with this component, from the UI
     * looper's scheduler; dropped without a UI looper.
     */
    void emitEvent(TelemetryKind kind, double value = 0.0);

  private:
    void transitionTo(LifecycleState next);

    /**
     * Atomic because activities are constructed concurrently on parallel
     * experiment worker threads. The id only labels diagnostics (lifecycle
     * checker, panics), so cross-thread assignment order does not matter.
     */
    static std::atomic<std::uint64_t> next_instance_id_;

    std::string component_;
    std::uint64_t instance_id_;
    std::uint64_t token_ = 0;
    ActivityContext context_;
    Configuration config_;
    Window window_;
    LifecycleState state_ = LifecycleState::Initial;
    InvalidationListener *invalidation_listener_ = nullptr;
    SimTime shadow_entered_at_ = 0;
    /** Snapshot held while in the shadow state (memory-accounted). */
    Bundle shadow_snapshot_;
    bool has_shadow_snapshot_ = false;
    std::size_t private_heap_bytes_ = 0;
    std::unique_ptr<FragmentManager> fragment_manager_;
    std::vector<Dialog *> dialogs_;
};

} // namespace rchdroid

#endif // RCHDROID_APP_ACTIVITY_H
