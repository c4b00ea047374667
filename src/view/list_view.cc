#include "view/list_view.h"

#include <utility>

#include "platform/logging.h"

namespace rchdroid {

AbsListView::AbsListView(std::string id) : View(std::move(id))
{
}

void
AbsListView::setItems(std::vector<std::string> items)
{
    requireAlive("setItems");
    items_ = std::move(items);
    const auto n = static_cast<int>(items_.size());
    if (selector_position_ >= n)
        selector_position_ = -1;
    if (checked_item_ >= n)
        checked_item_ = -1;
    if (first_visible_ >= n)
        first_visible_ = 0;
    invalidate();
}

void
AbsListView::setSelectorPosition(int position)
{
    requireAlive("setSelectorPosition");
    RCH_ASSERT(position >= -1 && position < static_cast<int>(items_.size()),
               "selector out of range: ", position);
    if (position == selector_position_)
        return;
    selector_position_ = position;
    invalidate();
}

void
AbsListView::setItemChecked(int position)
{
    requireAlive("setItemChecked");
    RCH_ASSERT(position >= 0 && position < static_cast<int>(items_.size()),
               "checked item out of range: ", position);
    if (position == checked_item_)
        return;
    checked_item_ = position;
    invalidate();
}

void
AbsListView::clearItemChecked()
{
    requireAlive("clearItemChecked");
    if (checked_item_ == -1)
        return;
    checked_item_ = -1;
    invalidate();
}

void
AbsListView::scrollToPosition(int position)
{
    requireAlive("scrollToPosition");
    RCH_ASSERT(position >= 0, "negative scroll position");
    if (position == first_visible_)
        return;
    first_visible_ = position;
    invalidate();
}

void
AbsListView::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<AbsListView *>(&target);
    RCH_ASSERT(peer, "List migration onto ", target.typeName());
    // The sunny instance re-ran the app's adapter logic; items may differ
    // in count under the new configuration. Carry state defensively.
    if (selector_position_ >= 0 &&
        selector_position_ < static_cast<int>(peer->itemCount())) {
        peer->setSelectorPosition(selector_position_);
    }
    if (checked_item_ >= 0 &&
        checked_item_ < static_cast<int>(peer->itemCount())) {
        peer->setItemChecked(checked_item_);
    }
    if (first_visible_ < static_cast<int>(peer->itemCount()))
        peer->scrollToPosition(first_visible_);
}

std::size_t
AbsListView::memoryFootprintBytes() const
{
    std::size_t bytes = View::memoryFootprintBytes() + 512;
    for (const auto &item : items_)
        bytes += 64 + item.size();
    return bytes;
}

void
AbsListView::onSaveState(Bundle &state, bool full) const
{
    // Stock AbsListView freezes only the scroll position by default;
    // the selector and checked item — the paper's "state loss
    // (selection list)" class — survive only under the full snapshot.
    state.putInt("firstVisible", first_visible_);
    if (full) {
        state.putInt("selector", selector_position_);
        state.putInt("checked", checked_item_);
    }
}

void
AbsListView::onRestoreState(const Bundle &state)
{
    // Restoration happens before the adapter may have filled the new
    // instance; clamp on use rather than here, like AbsListView does.
    selector_position_ =
        static_cast<int>(state.getInt("selector", selector_position_));
    checked_item_ = static_cast<int>(state.getInt("checked", checked_item_));
    first_visible_ =
        static_cast<int>(state.getInt("firstVisible", first_visible_));
}

ListView::ListView(std::string id) : AbsListView(std::move(id))
{
}

} // namespace rchdroid
