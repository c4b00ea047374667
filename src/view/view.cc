#include "view/view.h"

#include <utility>

#include "os/looper.h"
#include "os/observer.h"
#include "platform/logging.h"
#include "view/view_group.h"

namespace rchdroid {

const char *
migrationClassName(MigrationClass cls)
{
    switch (cls) {
      case MigrationClass::Generic: return "Generic";
      case MigrationClass::Text: return "Text";
      case MigrationClass::Image: return "Image";
      case MigrationClass::List: return "List";
      case MigrationClass::Scroll: return "Scroll";
      case MigrationClass::Video: return "Video";
      case MigrationClass::Progress: return "Progress";
    }
    return "Unknown";
}

View::View(std::string id) : id_(std::move(id))
{
}

View::~View()
{
    obs::notify(&obs::Observer::onObjectGone, this);
}

void
View::attachToHost(ViewTreeHost *host)
{
    host_ = host;
}

void
View::detachFromHost()
{
    host_ = nullptr;
}

void
View::markDestroyed()
{
    visit([](View &v) {
        v.destroyed_ = true;
        v.host_ = nullptr;
        // The surviving peer must not keep a link into the freed tree.
        if (v.sunny_peer_ != nullptr && v.sunny_peer_->sunny_peer_ == &v)
            v.sunny_peer_->sunny_peer_ = nullptr;
        v.sunny_peer_ = nullptr;
    });
}

void
View::invalidate()
{
    if (destroyed_)
        obs::notify(&obs::Observer::onDestroyedViewMutation, this, typeName(),
                    id_);
    requireAlive("invalidate");
    // Android's thread-affinity rule: only the activity (UI) thread may
    // mutate the tree. Mutations outside any dispatch (direct test
    // drivers) are exempt, as are hosts without an affinity.
    if (host_) {
        Looper *ui = host_->uiLooper();
        Looper *running = Looper::current();
        if (ui && running && running != ui) {
            throw UiException(UiFailureKind::WrongThread,
                              std::string(typeName()) + " '" + id_ +
                                  "' mutated from thread " +
                                  running->name());
        }
    }
    // Report the write only after the affinity check: a wrong-thread
    // mutation is already rejected (and studied) as a simulated crash,
    // so the race detector's job is the accesses Android permits but
    // does not order — above all wrong-thread *reads*.
    obs::notify(&obs::Observer::onSharedAccess, this, typeName(), id_,
                /*is_write=*/true);
    dirty_ = true;
    ++invalidate_count_;
    if (host_)
        host_->onViewInvalidated(*this);
}

void
View::noteSharedRead() const
{
    obs::notify(&obs::Observer::onSharedAccess, this, typeName(), id_,
                /*is_write=*/false);
}

void
View::requireAlive(const char *operation) const
{
    if (destroyed_) {
        throw UiException(UiFailureKind::NullPointer,
                          std::string(operation) + " on released " +
                              typeName() + " '" + id_ + "'");
    }
}

std::string
View::stateKey(bool full, const std::string &path) const
{
    if (!id_.empty())
        return id_;
    // Stock Android skips id-less views; RCHDroid's explicit snapshot
    // keys them by structural path instead.
    if (full && !path.empty())
        return "@" + path;
    return {};
}

void
View::saveHierarchyState(Bundle &container, bool full,
                         const std::string &path) const
{
    const std::string key = stateKey(full, path);
    if (!key.empty()) {
        Bundle state;
        onSaveState(state, full);
        if (!state.empty())
            container.putBundle(key, std::move(state));
    }
    // Children always participate, whether or not this view has a key —
    // Android's dispatchSaveInstanceState recurses unconditionally.
    dispatchSaveChildren(container, full, path);
}

void
View::restoreHierarchyState(const Bundle &container, const std::string &path)
{
    // Try the id key first, then the structural-path key a full-mode
    // save may have used.
    if (!id_.empty() && container.contains(id_)) {
        onRestoreState(container.getBundle(id_));
    } else {
        const std::string path_key = "@" + path;
        if (!path.empty() && container.contains(path_key))
            onRestoreState(container.getBundle(path_key));
    }
    dispatchRestoreChildren(container, path);
}

void
View::dispatchSaveChildren(Bundle &container, bool full,
                           const std::string &path) const
{
    (void)container;
    (void)full;
    (void)path;
}

void
View::dispatchRestoreChildren(const Bundle &container, const std::string &path)
{
    (void)container;
    (void)path;
}

void
View::onSaveState(Bundle &state, bool full) const
{
    (void)state;
    (void)full;
}

void
View::onRestoreState(const Bundle &state)
{
    (void)state;
}

void
View::applyMigration(View &target) const
{
    // The Generic policy: nothing type-specific to carry over. Dirtiness
    // still propagates so the sunny tree redraws.
    target.invalidate();
}

void
View::setFrame(int left, int top, int width, int height)
{
    left_ = left;
    top_ = top;
    width_ = width;
    height_ = height;
}

std::size_t
View::memoryFootprintBytes() const
{
    // Rough parity with a bare android.view.View instance.
    return 512 + id_.size();
}

void
View::visit(const std::function<void(View &)> &fn)
{
    fn(*this);
}

void
View::visitConst(const std::function<void(const View &)> &fn) const
{
    fn(*this);
}

int
View::countViews() const
{
    int n = 0;
    visitConst([&n](const View &) { ++n; });
    return n;
}

View *
View::findViewById(const std::string &id)
{
    return id_ == id ? this : nullptr;
}

} // namespace rchdroid
