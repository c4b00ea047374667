/**
 * @file
 * ResourceManager: per-app resource access with a load-cost model,
 * mirroring android.content.res.Resources backed by AssetManager.
 *
 * Every resolution reports the virtual CPU cost the caller must charge to
 * its looper; drawables decode proportionally to their pixel count,
 * layouts parse proportionally to node count. These costs are what make
 * an activity restart expensive — and what RCHDroid's flip path avoids
 * re-paying.
 */
#ifndef RCHDROID_RESOURCES_RESOURCE_MANAGER_H
#define RCHDROID_RESOURCES_RESOURCE_MANAGER_H

#include <cstdint>
#include <memory>

#include "platform/status.h"
#include "platform/time.h"
#include "resources/configuration.h"
#include "resources/resource_table.h"

namespace rchdroid {

/** Cost parameters of resource resolution (values from sim::DeviceModel). */
struct ResourceCostModel
{
    /** Table lookup + qualifier match for any resource. */
    SimDuration lookup_cost = 0;
    /** Fixed cost of opening/decoding a drawable asset. */
    SimDuration drawable_base_cost = 0;
    /** Incremental decode cost per KiB of bitmap data. */
    SimDuration drawable_per_kib = 0;
    /** Parse cost per layout node. */
    SimDuration layout_per_node = 0;
};

/** A resolved value plus the CPU cost of having resolved it. */
template <typename T>
struct Loaded
{
    T value;
    SimDuration cost = 0;
};

/** Running counters of what an app has loaded (telemetry for benches). */
struct ResourceLoadStats
{
    std::uint64_t string_loads = 0;
    std::uint64_t drawable_loads = 0;
    std::uint64_t layout_loads = 0;
    std::uint64_t dimension_loads = 0;
    /** Total bitmap bytes decoded. */
    std::uint64_t drawable_bytes = 0;
    /** Total virtual CPU spent resolving. */
    SimDuration total_cost = 0;
};

/**
 * Cost-aware façade over one app's ResourceTable.
 */
class ResourceManager
{
  public:
    /**
     * @param table The app's declared resources (shared; immutable after
     *              app construction).
     * @param cost_model Device-calibrated load costs.
     */
    ResourceManager(std::shared_ptr<const ResourceTable> table,
                    ResourceCostModel cost_model);

    const ResourceTable &table() const { return *table_; }
    /** The table as shared with every other holder (caches key on it). */
    const std::shared_ptr<const ResourceTable> &sharedTable() const
    {
        return table_;
    }
    const ResourceCostModel &costModel() const { return cost_model_; }

    /** @name Cost-reporting resolution
     * @{
     */
    Result<Loaded<StringValue>> loadString(ResourceId id,
                                           const Configuration &config);
    Result<Loaded<DrawableValue>> loadDrawable(ResourceId id,
                                               const Configuration &config);
    /** The table's own variant, not a copy (see resolveLayout). */
    Result<Loaded<const LayoutValue *>> loadLayout(
        ResourceId id, const Configuration &config);
    Result<Loaded<DimensionValue>> loadDimension(ResourceId id,
                                                 const Configuration &config);
    /** @} */

    const ResourceLoadStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

  private:
    std::shared_ptr<const ResourceTable> table_;
    ResourceCostModel cost_model_;
    ResourceLoadStats stats_;
};

} // namespace rchdroid

#endif // RCHDROID_RESOURCES_RESOURCE_MANAGER_H
