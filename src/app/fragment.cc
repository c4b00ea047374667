#include "app/fragment.h"

#include <algorithm>
#include <utility>

#include "app/activity.h"
#include "platform/logging.h"

namespace rchdroid {

Fragment::Fragment(std::string tag) : tag_(std::move(tag))
{
    RCH_ASSERT(!tag_.empty(), "fragment tag must be non-empty");
}

FragmentManager::FragmentManager(Activity &activity) : activity_(activity)
{
}

Status
FragmentManager::attach(const std::string &container_id,
                        std::shared_ptr<Fragment> fragment)
{
    if (!fragment)
        return Status::invalidArgument("null fragment");
    if (fragment->isAttached())
        return Status::failedPrecondition("fragment '" + fragment->tag() +
                                          "' already attached");
    if (findByTag(fragment->tag()))
        return Status::alreadyExists("tag '" + fragment->tag() + "' in use");

    View *container_view = activity_.findViewById(container_id);
    auto *container = dynamic_cast<ViewGroup *>(container_view);
    if (!container)
        return Status::notFound("no container view group '" + container_id +
                                "'");

    std::unique_ptr<View> view = fragment->onCreateView();
    if (!view)
        return Status::internal("onCreateView returned null for '" +
                                fragment->tag() + "'");
    fragment->view_ = &container->addChild(std::move(view));
    fragment->container_id_ = container_id;
    // Keep the tree host-consistent (new views must report invalidations
    // to the activity, or lazy migration would miss them).
    fragment->view_->visit(
        [this](View &v) { v.attachToHost(&activity_); });
    // Match the activity's current RCHDroid flags.
    if (activity_.isShadow()) {
        fragment->view_->visit([](View &v) { v.setShadow(true); });
    } else if (activity_.isSunny()) {
        fragment->view_->visit([](View &v) { v.setSunny(true); });
    }

    // Replay saved state captured before a restart / shadow snapshot.
    if (pending_restored_.contains(fragment->tag())) {
        // `state` points into pending_restored_: read it all before the
        // entry is removed.
        const Bundle &state = pending_restored_.getBundle(fragment->tag());
        fragment->view_->restoreHierarchyState(state.getBundle("views"),
                                               "f");
        fragment->onRestoreState(state.getBundle("own"));
        pending_restored_.remove(fragment->tag());
    }

    fragments_.push_back(Entry{container_id, std::move(fragment)});
    return Status::ok();
}

Status
FragmentManager::detach(const std::string &tag)
{
    auto it = std::find_if(fragments_.begin(), fragments_.end(),
                           [&tag](const Entry &entry) {
                               return entry.fragment->tag() == tag;
                           });
    if (it == fragments_.end())
        return Status::notFound("no attached fragment '" + tag + "'");

    Fragment &fragment = *it->fragment;
    auto *container = dynamic_cast<ViewGroup *>(
        activity_.findViewById(it->container_id));
    if (container) {
        for (std::size_t i = 0; i < container->childCount(); ++i) {
            if (&container->childAt(i) == fragment.view_) {
                container->removeChildAt(i);
                break;
            }
        }
    }
    fragment.view_ = nullptr;
    fragment.container_id_.clear();
    fragments_.erase(it);
    return Status::ok();
}

std::shared_ptr<Fragment>
FragmentManager::findByTag(const std::string &tag)
{
    for (const auto &entry : fragments_) {
        if (entry.fragment->tag() == tag)
            return entry.fragment;
    }
    return nullptr;
}

void
FragmentManager::saveAllState(Bundle &container) const
{
    for (const auto &entry : fragments_) {
        Bundle state;
        Bundle views;
        if (entry.fragment->view_) {
            // Fragment views are saved in full: this rides on the same
            // explicit-snapshot machinery as the activity tree.
            entry.fragment->view_->saveHierarchyState(views, /*full=*/true,
                                                      "f");
        }
        state.putBundle("views", std::move(views));
        Bundle own;
        entry.fragment->onSaveState(own);
        state.putBundle("own", std::move(own));
        state.putString("container", entry.container_id);
        container.putBundle(entry.fragment->tag(), std::move(state));
    }
}

void
FragmentManager::setPendingRestoredState(Bundle state)
{
    pending_restored_ = std::move(state);
}

} // namespace rchdroid
