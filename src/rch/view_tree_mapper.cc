#include "rch/view_tree_mapper.h"

#include "os/observer.h"
#include "platform/logging.h"

namespace rchdroid {

MappingResult
ViewTreeMapper::buildMapping(Activity &sunny, Activity &shadow) const
{
    // The mapping rewires peer pointers across both whole trees; report
    // it as a write on each tree so a concurrent traversal elsewhere is
    // caught as a race.
    obs::notify(&obs::Observer::onSharedAccess, &sunny.window().decorView(),
                "ViewTree", sunny.component(), /*is_write=*/true);
    obs::notify(&obs::Observer::onSharedAccess, &shadow.window().decorView(),
                "ViewTree", shadow.component(), /*is_write=*/true);
    switch (strategy_) {
      case MappingStrategy::HashTable:
        return buildWithHashTable(sunny, shadow);
      case MappingStrategy::LinearScan:
        return buildWithLinearScan(sunny, shadow);
    }
    RCH_PANIC("unknown mapping strategy");
}

MappingResult
ViewTreeMapper::buildWithHashTable(Activity &sunny, Activity &shadow) const
{
    MappingResult result;
    // Step 1 (Fig. 5): hash table of view ids over the sunny tree —
    // getAllSunnyViews, charged at mapping_insert_per_view.
    auto table = sunny.getAllSunnyViews();
    result.sunny_ids = static_cast<int>(table.size());
    // Step 2: traverse the shadow tree, look each id up, store the
    // pointer — setSunnyViews, charged at mapping_wire_per_view.
    result.wired = shadow.setSunnyViews(table);
    int shadow_ids = 0;
    shadow.window().decorView().visitConst([&shadow_ids](const View &v) {
        if (!v.id().empty())
            ++shadow_ids;
    });
    result.unmatched = shadow_ids - result.wired;
    return result;
}

MappingResult
ViewTreeMapper::buildWithLinearScan(Activity &sunny, Activity &shadow) const
{
    // Ablation: no hash table — each shadow view searches the sunny tree
    // by id. The per-lookup cost is proportional to the nodes visited,
    // so the total is O(n²); charged through the same per-view constant
    // multiplied by the visit count.
    MappingResult result;
    View &sunny_root = sunny.window().decorView();
    sunny_root.visitConst([&result](const View &v) {
        if (!v.id().empty())
            ++result.sunny_ids;
    });

    const int sunny_nodes = sunny_root.countViews();
    const SimDuration per_probe =
        shadow.context().costs.mapping_wire_per_view;
    Looper *looper = shadow.context().ui_looper;

    int shadow_ids = 0;
    shadow.window().decorView().visit([&](View &v) {
        if (v.id().empty())
            return;
        ++shadow_ids;
        // findViewById walks the tree: charge a visit-proportional cost.
        if (looper && looper->isDispatching())
            looper->consumeCpu(per_probe * sunny_nodes);
        if (View *peer = sunny_root.findViewById(v.id())) {
            v.setSunnyPeer(peer);
            peer->setSunnyPeer(&v);
            ++result.wired;
        }
    });
    result.unmatched = shadow_ids - result.wired;
    return result;
}

} // namespace rchdroid
