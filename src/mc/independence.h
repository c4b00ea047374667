/**
 * @file
 * Derive a static independence spec for one corpus app from its
 * declarative AppSpec: the loopers its differential-harness scenario
 * dispatches app steps on (the AsyncTask worker and the main looper
 * that runs the completion and RCHDroid's GC tick), each owned by the
 * app's process.
 *
 * The derived spec is never closed-world: app scenarios inject
 * configuration changes, which are global. So it never lets the
 * explorer prune, and makeAppScenario() does not build it. Its one
 * caller is the e2ebench mc_explore probe that times its construction;
 * ROADMAP.md's item on deleting the static guidance removes it
 * together with that probe.
 */
#ifndef RCHDROID_MC_INDEPENDENCE_H
#define RCHDROID_MC_INDEPENDENCE_H

#include "apps/app_spec.h"
#include "sa/mhp.h"
#include "sa/model_ir.h"

namespace rchdroid::mc {

/** Derive the open-world spec for one app under one handling model. */
sa::IndependenceSpec independenceForApp(const apps::AppSpec &spec,
                                        sa::HandlingModel handling);

} // namespace rchdroid::mc

#endif // RCHDROID_MC_INDEPENDENCE_H
