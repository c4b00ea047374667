/**
 * @file
 * The AbsListView family: AbsListView and ListView, mirroring
 * android.widget.AbsListView and ListView.
 *
 * Table 1 migration policy: positionSelector + setItemChecked — the
 * selector position and the checked item are read from the shadow view
 * and re-applied on the sunny view. Reproduces every "State loss
 * (selection list)" entry of Table 5 and the Orbot bridge-selection
 * example of Fig. 13(d).
 */
#ifndef RCHDROID_VIEW_LIST_VIEW_H
#define RCHDROID_VIEW_LIST_VIEW_H

#include <string>
#include <vector>

#include "view/view.h"

namespace rchdroid {

/**
 * Displays a scrollable collection of item views.
 *
 * Items are modelled as strings (an adapter's rendered labels); what the
 * migration machinery needs is the selection/checked/scroll state, not
 * the item rendering.
 */
class AbsListView : public View
{
  public:
    explicit AbsListView(std::string id);

    const char *typeName() const override { return "AbsListView"; }

    /** Replace the adapter contents; resets selection if out of range. */
    void setItems(std::vector<std::string> items);
    const std::vector<std::string> &items() const { return items_; }
    std::size_t itemCount() const { return items_.size(); }

    /** @name Selector position (Table 1: positionSelector)
     * @{
     */
    int selectorPosition() const { return selector_position_; }
    void setSelectorPosition(int position);
    /** @} */

    /** @name Checked item (Table 1: setItemChecked)
     * @{
     */
    int checkedItem() const { noteSharedRead(); return checked_item_; }
    void setItemChecked(int position);
    void clearItemChecked();
    /** @} */

    /** First visible row (scroll state). */
    int firstVisiblePosition() const { return first_visible_; }
    void scrollToPosition(int position);

    void applyMigration(View &target) const override;
    std::size_t memoryFootprintBytes() const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    std::vector<std::string> items_;
    int selector_position_ = -1;
    int checked_item_ = -1;
    int first_visible_ = 0;
};

/**
 * A vertical list, mirroring android.widget.ListView.
 */
class ListView : public AbsListView
{
  public:
    explicit ListView(std::string id);
    const char *typeName() const override { return "ListView"; }
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_LIST_VIEW_H
