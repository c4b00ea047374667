#include "resources/resource_manager.h"

#include <utility>

#include "platform/logging.h"

namespace rchdroid {

ResourceManager::ResourceManager(std::shared_ptr<const ResourceTable> table,
                                 ResourceCostModel cost_model)
    : table_(std::move(table)), cost_model_(cost_model)
{
    RCH_ASSERT(table_ != nullptr, "resource table required");
}

Result<Loaded<StringValue>>
ResourceManager::loadString(ResourceId id, const Configuration &config)
{
    auto resolved = table_->resolveString(id, config);
    if (!resolved)
        return resolved.status();
    const SimDuration cost = cost_model_.lookup_cost;
    ++stats_.string_loads;
    stats_.total_cost += cost;
    return Loaded<StringValue>{std::move(resolved).value(), cost};
}

Result<Loaded<DrawableValue>>
ResourceManager::loadDrawable(ResourceId id, const Configuration &config)
{
    auto resolved = table_->resolveDrawable(id, config);
    if (!resolved)
        return resolved.status();
    const auto kib =
        static_cast<SimDuration>((resolved.value().byteSize() + 1023) / 1024);
    const SimDuration cost = cost_model_.lookup_cost +
                             cost_model_.drawable_base_cost +
                             cost_model_.drawable_per_kib * kib;
    ++stats_.drawable_loads;
    stats_.drawable_bytes += resolved.value().byteSize();
    stats_.total_cost += cost;
    return Loaded<DrawableValue>{std::move(resolved).value(), cost};
}

Result<Loaded<const LayoutValue *>>
ResourceManager::loadLayout(ResourceId id, const Configuration &config)
{
    auto resolved = table_->resolveLayout(id, config);
    if (!resolved)
        return resolved.status();
    const int nodes = resolved.value()->root.countNodes();
    const SimDuration cost =
        cost_model_.lookup_cost + cost_model_.layout_per_node * nodes;
    ++stats_.layout_loads;
    stats_.total_cost += cost;
    return Loaded<const LayoutValue *>{resolved.value(), cost};
}

Result<Loaded<DimensionValue>>
ResourceManager::loadDimension(ResourceId id, const Configuration &config)
{
    auto resolved = table_->resolveDimension(id, config);
    if (!resolved)
        return resolved.status();
    const SimDuration cost = cost_model_.lookup_cost;
    ++stats_.dimension_loads;
    stats_.total_cost += cost;
    return Loaded<DimensionValue>{std::move(resolved).value(), cost};
}

} // namespace rchdroid
