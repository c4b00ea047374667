/**
 * @file
 * LayoutInflater: builds a view tree from a layout resource under the
 * active configuration, mirroring android.view.LayoutInflater.
 *
 * Inflation is the costly step an activity restart re-pays in full:
 * every node costs parse + construct time and every referenced resource
 * (@string/..., @drawable/...) is re-resolved and re-decoded under the
 * new configuration. The inflater reports this accumulated cost so the
 * activity can charge its UI looper.
 *
 * Host work is another matter: the first inflate of a layout variant
 * compiles it into an InflatePlan (element kinds, resource ids, parsed
 * attributes), and later inflates of that variant walk the plan. Plans
 * are cached per resource table, so every inflater over the same table
 * on a host thread shares them. Every inflate still loads, counts and
 * charges each resource under its own configuration, so virtual time
 * does not depend on the plan cache.
 */
#ifndef RCHDROID_VIEW_LAYOUT_INFLATER_H
#define RCHDROID_VIEW_LAYOUT_INFLATER_H

#include <memory>

#include "resources/resource_manager.h"
#include "view/view.h"

namespace rchdroid {

/** A layout tree compiled for inflation (defined in layout_inflater.cc). */
struct InflatePlan;

/**
 * Element-name-driven view construction with cost accounting.
 */
class LayoutInflater
{
  public:
    /**
     * @param resources The app's resource manager (not owned).
     * @param per_node_inflate_cost Construction cost per view node,
     *        from sim::DeviceModel.
     */
    LayoutInflater(ResourceManager &resources,
                   SimDuration per_node_inflate_cost);

    /**
     * Inflate a layout resource under `config`.
     * @return The constructed tree plus the total virtual CPU cost
     *         (parse + construct + resource loads).
     */
    Result<Loaded<std::unique_ptr<View>>> inflate(ResourceId layout_id,
                                                  const Configuration &config);

  private:
    /** Build the plan's element and its subtree; adds to `cost`. */
    Result<std::unique_ptr<View>> build(const InflatePlan &plan,
                                        const Configuration &config,
                                        SimDuration &cost);

    /** Build the plan's element alone, loading its resources. */
    Result<std::unique_ptr<View>> makeView(const InflatePlan &plan,
                                           const Configuration &config,
                                           SimDuration &cost);

    ResourceManager &resources_;
    SimDuration per_node_inflate_cost_;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_LAYOUT_INFLATER_H
