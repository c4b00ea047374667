/**
 * @file
 * Forward fixpoint dataflow over the lifecycle CFG.
 *
 * Boundary condition: the user puts the app into its state while the
 * activity is Resumed (the §6 methodology — "when it is running in a
 * state, we change screen sizes"), so the solver injects Live for every
 * location at the Resumed node and propagates through the edges'
 * transfer functions until nothing changes. Join is set union, facts
 * only grow, and the CFG is tiny (≤ 16 nodes), so the fixpoint is a
 * handful of iterations.
 */
#ifndef RCHDROID_SA_DATAFLOW_H
#define RCHDROID_SA_DATAFLOW_H

#include <cstddef>
#include <string>
#include <vector>

#include "sa/lattice.h"
#include "sa/model_ir.h"

namespace rchdroid::sa {

/** The fixpoint solution: one fact per (node, location). */
struct FlowSolution
{
    /** Tracked locations: the width of each node's row in `facts`. */
    std::size_t locations = 0;
    /** One block of rows: facts[node * locations + location_index]. */
    std::vector<StateFact> facts;
    /** Worklist passes until quiescence (observability/tests). */
    int iterations = 0;

    StateFact at(LcNode node, std::size_t location) const
    {
        return location < locations
                   ? facts[static_cast<std::size_t>(node) * locations +
                           location]
                   : kFactBottom;
    }

    /**
     * May the location's value be gone when the app is next observed at
     * `node`? True when some path lost the only copy, or when no path
     * makes it live again in the observed instance.
     */
    bool mayLose(LcNode node, std::size_t location) const
    {
        const StateFact fact = at(node, location);
        return (fact & kLost) != 0 || (fact & kLive) == 0;
    }

    /** Per-node "loc: Live|Saved" dump for debugging. */
    std::string describe(const AppModel &model) const;
};

/** Run the fixpoint. */
FlowSolution solve(const AppModel &model);

} // namespace rchdroid::sa

#endif // RCHDROID_SA_DATAFLOW_H
