#include "view/view_group.h"

#include <charconv>
#include <utility>

#include "platform/logging.h"

namespace rchdroid {

ViewGroup::ViewGroup(std::string id) : View(std::move(id))
{
}

View &
ViewGroup::addChild(std::unique_ptr<View> child)
{
    RCH_ASSERT(child != nullptr, "null child");
    RCH_ASSERT(child->parent() == nullptr, "child already has a parent");
    child->setParent(this);
    if (host())
        child->attachToHost(host());
    children_.push_back(std::move(child));
    return *children_.back();
}

void
ViewGroup::removeChildAt(std::size_t index)
{
    RCH_ASSERT(index < children_.size(), "child index out of range");
    children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(index));
}

View &
ViewGroup::childAt(std::size_t index)
{
    RCH_ASSERT(index < children_.size(), "child index out of range");
    return *children_[index];
}

const View &
ViewGroup::childAt(std::size_t index) const
{
    RCH_ASSERT(index < children_.size(), "child index out of range");
    return *children_[index];
}

void
ViewGroup::dispatchShadowStateChanged(bool shadow)
{
    visit([shadow](View &v) { v.setShadow(shadow); });
}

void
ViewGroup::dispatchSunnyStateChanged(bool sunny)
{
    visit([sunny](View &v) { v.setSunny(sunny); });
}

void
ViewGroup::visit(const std::function<void(View &)> &fn)
{
    fn(*this);
    for (auto &child : children_)
        child->visit(fn);
}

void
ViewGroup::visitConst(const std::function<void(const View &)> &fn) const
{
    fn(*this);
    for (const auto &child : children_)
        child->visitConst(fn);
}

View *
ViewGroup::findViewById(const std::string &view_id)
{
    if (id() == view_id)
        return this;
    for (auto &child : children_) {
        if (View *found = child->findViewById(view_id))
            return found;
    }
    return nullptr;
}

std::size_t
ViewGroup::memoryFootprintBytes() const
{
    // Children accounted separately by tree walkers; charge the slots.
    return View::memoryFootprintBytes() + 64 +
           children_.size() * sizeof(void *);
}

void
ViewGroup::layoutSubtree(int left, int top, int width, int height)
{
    setFrame(left, top, width, height);
    for (auto &child : children_)
        child->layoutSubtree(left, top, width, height);
}

void
ViewGroup::onSaveState(Bundle &state, bool full) const
{
    // Groups carry no own state by default; subclasses (ScrollView) add
    // theirs on top. Children are handled by dispatchSaveChildren.
    (void)state;
    (void)full;
}

void
ViewGroup::onRestoreState(const Bundle &state)
{
    (void)state;
}

namespace {

/** Extend a path key in place to its i-th child's: "@path/i", or "@i"
 * under an empty path. */
void
appendChildIndex(std::string &path_key, std::size_t i)
{
    if (path_key.size() > 1)
        path_key += '/';
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof digits, i).ptr;
    path_key.append(digits, end);
}

} // namespace

void
ViewGroup::dispatchSaveChildren(Bundle &container, bool full,
                                std::string &path_key) const
{
    const std::size_t length = path_key.size();
    for (std::size_t i = 0; i < children_.size(); ++i) {
        appendChildIndex(path_key, i);
        children_[i]->saveTree(container, full, path_key);
        path_key.resize(length);
    }
}

void
ViewGroup::dispatchRestoreChildren(const Bundle &container,
                                   std::string &path_key)
{
    const std::size_t length = path_key.size();
    for (std::size_t i = 0; i < children_.size(); ++i) {
        appendChildIndex(path_key, i);
        children_[i]->restoreTree(container, path_key);
        path_key.resize(length);
    }
}

LinearLayout::LinearLayout(std::string id, Direction direction)
    : ViewGroup(std::move(id)), direction_(direction)
{
}

void
LinearLayout::layoutSubtree(int left, int top, int width, int height)
{
    setFrame(left, top, width, height);
    const auto n = static_cast<int>(childCount());
    if (n == 0)
        return;
    if (direction_ == Direction::Vertical) {
        const int slot = height / n;
        for (int i = 0; i < n; ++i) {
            childAt(static_cast<std::size_t>(i))
                .layoutSubtree(left, top + i * slot, width, slot);
        }
    } else {
        const int slot = width / n;
        for (int i = 0; i < n; ++i) {
            childAt(static_cast<std::size_t>(i))
                .layoutSubtree(left + i * slot, top, slot, height);
        }
    }
}

FrameLayout::FrameLayout(std::string id) : ViewGroup(std::move(id))
{
}

ScrollView::ScrollView(std::string id) : ViewGroup(std::move(id))
{
}

void
ScrollView::scrollTo(int y)
{
    requireAlive("scrollTo");
    if (y == scroll_y_)
        return;
    scroll_y_ = y;
    invalidate();
}

void
ScrollView::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<ScrollView *>(&target);
    RCH_ASSERT(peer, "Scroll migration onto ", target.typeName());
    peer->scrollTo(scroll_y_);
}

void
ScrollView::onSaveState(Bundle &state, bool full) const
{
    ViewGroup::onSaveState(state, full);
    // ScrollView persists its offset by default on Android too.
    state.putInt("scrollY", scroll_y_);
}

void
ScrollView::onRestoreState(const Bundle &state)
{
    ViewGroup::onRestoreState(state);
    scroll_y_ = static_cast<int>(state.getInt("scrollY", scroll_y_));
}

DecorView::DecorView() : ViewGroup("decor")
{
}

std::size_t
DecorView::memoryFootprintBytes() const
{
    // The decor view carries the window background and frame chrome.
    return ViewGroup::memoryFootprintBytes() + 4096;
}

} // namespace rchdroid
