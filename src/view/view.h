/**
 * @file
 * View: the base class of the widget hierarchy, mirroring
 * android.view.View with the RCHDroid additions from Table 2 — the
 * Shadow/Sunny state flags, the sunny-peer pointer, and the modified
 * invalidate() that lets the framework catch the "final update step" of
 * any app logic (paper §3.3).
 */
#ifndef RCHDROID_VIEW_VIEW_H
#define RCHDROID_VIEW_VIEW_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "os/bundle.h"
#include "platform/time.h"
#include "view/ui_exceptions.h"

namespace rchdroid {

class Looper;
class View;
class ViewGroup;

/**
 * Host interface the owning activity implements; plays the role of
 * Android's ViewRootImpl/AttachInfo callbacks. The RCHDroid lazy
 * migrator observes invalidations through onViewInvalidated.
 */
class ViewTreeHost
{
  public:
    virtual ~ViewTreeHost() = default;

    /** A view in this tree was invalidated (the final update step). */
    virtual void onViewInvalidated(View &view) = 0;

    /** True when this tree belongs to a shadow-state activity. */
    virtual bool isShadowTree() const = 0;

    /** Trace label, usually the activity name. */
    virtual std::string hostName() const = 0;

    /**
     * The thread allowed to mutate this tree, or null when the host
     * enforces no thread affinity (bare test hosts). Mutating a view
     * from another looper throws CalledFromWrongThreadException, as on
     * Android ("updating the user interface can only be done by the
     * activity thread", paper §2.1).
     */
    virtual Looper *uiLooper() const { return nullptr; }
};

/**
 * Base widget.
 *
 * Ownership: children are owned by their parent ViewGroup; the root is
 * owned by the activity's Window. A destroyed tree keeps its objects
 * (simulating Java references held by async callbacks) but any mutation
 * throws UiException, reproducing the post-restart crash.
 */
class View
{
  public:
    /** @param id View id (may be empty = no id, like android:id absent). */
    explicit View(std::string id);
    virtual ~View();

    View(const View &) = delete;
    View &operator=(const View &) = delete;

    /** @name Identity and hierarchy
     * @{
     */
    const std::string &id() const { return id_; }
    ViewGroup *parent() { return parent_; }
    const ViewGroup *parent() const { return parent_; }
    /** Widget class name, e.g. "TextView". */
    virtual const char *typeName() const { return "View"; }
    /** @} */

    /** @name Attachment and liveness
     * @{
     */
    void attachToHost(ViewTreeHost *host);
    /** Mark the whole subtree released (activity destroyed). */
    void markDestroyed();
    bool isDestroyed() const { return destroyed_; }
    ViewTreeHost *host() { return host_; }
    /** @} */

    /** @name RCHDroid state (Table 2: View modifications)
     * @{
     */
    bool isShadow() const { return shadow_; }
    bool isSunny() const { return sunny_; }
    virtual void setShadow(bool shadow) { shadow_ = shadow; }
    virtual void setSunny(bool sunny) { sunny_ = sunny; }
    /** Peer view in the sunny-state tree; null outside a migration pair. */
    View *sunnyPeer() { return sunny_peer_; }
    const View *sunnyPeer() const { return sunny_peer_; }
    void setSunnyPeer(View *peer) { sunny_peer_ = peer; }
    /** @} */

    /**
     * Invalidate: the generic final step of every view update. Marks the
     * view dirty and notifies the host — where RCHDroid's lazy migration
     * hooks in (paper §3.3: "any updates to views will finally trigger a
     * generic invalidate function").
     */
    void invalidate();

    bool isDirty() const { return dirty_; }
    void clearDirty() { dirty_ = false; }

    /** Generation counter: bumps on every invalidate (test observability). */
    std::uint64_t invalidateCount() const { return invalidate_count_; }

    /** @name Instance state (onSaveInstanceState plumbing)
     * Mirrors View.saveHierarchyState / restoreHierarchyState with one
     * crucial distinction the effectiveness results rest on:
     *
     *  - Default mode (`full == false`, stock Android): only views with
     *    an id participate, and each widget saves only what AOSP's
     *    default onSaveInstanceState saves (EditText text yes, TextView
     *    text no, ProgressBar progress no, ...). This partial coverage
     *    is why the Table 3 / Table 5 apps lose state across restarts.
     *
     *  - Full mode (`full == true`, RCHDroid's explicit snapshot, part
     *    of the paper's 79-LoC View patch): every widget saves its
     *    complete migratable state, and id-less views are keyed by
     *    their structural path so nothing is skipped.
     * @{
     */
    /**
     * Save this view's state into `container`.
     * @param full Full (RCHDroid) vs default (stock) coverage.
     * @param path Structural path of this view, e.g. "0/2"; used as the
     *        key fallback for id-less views in full mode.
     */
    void saveHierarchyState(Bundle &container, bool full = false,
                            const std::string &path = {}) const;
    /** Restore from `container`, trying the id key then the path key. */
    void restoreHierarchyState(const Bundle &container,
                               const std::string &path = {});
    /**
     * Key this view's state is stored under, or null to skip.
     * @param path_key "@" followed by this view's structural path (the
     *        path-key form), so an id-less view's key is this string.
     */
    const std::string *stateKey(bool full, const std::string &path_key) const;
    /** @} */

    /**
     * Assign this subtree's frames inside the given slot. A plain view
     * takes the slot as its frame; containers also arrange their
     * children.
     */
    virtual void layoutSubtree(int left, int top, int width, int height);

    /**
     * Apply this view's migratable attributes onto `target`: the Table 1
     * policy of the "basic type of view" this widget derives from (text,
     * image, list, scroll, video, progress; a plain View migrates only
     * base state). Overriding it is what puts a widget in a basic type,
     * so a user-defined subclass migrates as its base class does.
     * `target` must be the same basic type.
     */
    virtual void applyMigration(View &target) const;

    /** @name Geometry (assigned by the layout pass)
     * @{
     */
    void setFrame(int left, int top, int width, int height);
    int frameLeft() const { return left_; }
    int frameTop() const { return top_; }
    int frameWidth() const { return width_; }
    int frameHeight() const { return height_; }
    /** @} */

    /** Approximate heap footprint of this view object (not children). */
    virtual std::size_t memoryFootprintBytes() const;

    /** Decoded drawable bytes held by this view (ImageView overrides). */
    virtual std::size_t drawableBytes() const { return 0; }

    /** Visit this subtree pre-order. */
    virtual void visit(const std::function<void(View &)> &fn);
    /** Const pre-order visit (distinct name avoids overload ambiguity). */
    virtual void visitConst(const std::function<void(const View &)> &fn) const;

    /** Number of views in this subtree. */
    int countViews() const;

    /** Find a descendant (or self) by id; null when absent. */
    virtual View *findViewById(const std::string &id);

  protected:
    /** Throw NullPointer when this view has been released. */
    void requireAlive(const char *operation) const;

    /**
     * Report a read of this view's migratable state to the analysis
     * hooks (no-op when analysis is off). Widget getters whose values
     * feed app logic call this so the race detector sees cross-thread
     * reads — the silent half of the concurrent-update bugs the paper's
     * async scenarios produce.
     */
    void noteSharedRead() const;

    /** Subclass hooks for typed state.
     * @param full Full (RCHDroid) vs default (stock Android) coverage. */
    virtual void onSaveState(Bundle &state, bool full) const;
    virtual void onRestoreState(const Bundle &state);

    /**
     * Container recursion hooks (overridden by ViewGroup). `path_key` is
     * this view's path key; a container extends it in place for each
     * child and gives it back unchanged.
     */
    virtual void dispatchSaveChildren(Bundle &container, bool full,
                                      std::string &path_key) const;
    virtual void dispatchRestoreChildren(const Bundle &container,
                                         std::string &path_key);

    /** ViewGroup wires parents through this. */
    void setParent(ViewGroup *parent) { parent_ = parent; }
    friend class ViewGroup;

  private:
    /** The save and restore walks over one path-key buffer. */
    void saveTree(Bundle &container, bool full, std::string &path_key) const;
    void restoreTree(const Bundle &container, std::string &path_key);

    std::string id_;
    ViewGroup *parent_ = nullptr;
    ViewTreeHost *host_ = nullptr;
    bool destroyed_ = false;
    bool dirty_ = false;
    bool shadow_ = false;
    bool sunny_ = false;
    View *sunny_peer_ = nullptr;
    std::uint64_t invalidate_count_ = 0;
    int left_ = 0, top_ = 0, width_ = 0, height_ = 0;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_VIEW_H
