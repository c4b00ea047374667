/**
 * @file
 * app_builder: turns an AppSpec into the artefacts an install needs —
 * the app's ResourceTable (strings, drawables, and the main layout in
 * portrait and landscape variants) and an ActivityFactory producing
 * SimulatedApp instances.
 */
#ifndef RCHDROID_APPS_APP_BUILDER_H
#define RCHDROID_APPS_APP_BUILDER_H

#include <memory>

#include "app/activity_thread.h"
#include "apps/app_spec.h"
#include "resources/resource_table.h"

namespace rchdroid::apps {

/** Everything needed to install one app into a simulated system. */
struct BuiltApp
{
    std::shared_ptr<const ResourceTable> resources;
    ResourceId main_layout = 0;
};

/**
 * Declare the app's resources: a "main" layout with portrait and
 * landscape variants (forcing configuration-dependent resolution, like
 * the paper's layout-land / layout-port benchmark files), the strings it
 * references, and one drawable per ImageView sized per the spec.
 *
 * The last app built on the calling thread is memoized: a call with an
 * equal spec returns the same immutable table.
 */
BuiltApp buildAppResources(const AppSpec &spec);

/** The layout tree the builder generates (exposed for tests). */
LayoutNode buildMainLayout(const AppSpec &spec);

/** Factory producing SimulatedApp instances for ActivityThread. */
ActivityFactory makeAppFactory(const AppSpec &spec, const BuiltApp &built);

} // namespace rchdroid::apps

#endif // RCHDROID_APPS_APP_BUILDER_H
