#include "sa/dataflow.h"

#include <algorithm>

namespace rchdroid::sa {

FlowSolution
solve(const AppModel &model)
{
    FlowSolution solution;
    const std::size_t n_locations = model.locations.size();
    solution.locations = n_locations;
    solution.facts.assign(kLcNodeCount * n_locations, kFactBottom);
    const auto row = [&solution, n_locations](LcNode node) {
        return solution.facts.data() +
               static_cast<std::size_t>(node) * n_locations;
    };

    // Boundary: every tracked value is live in the foreground instance
    // once the user has put the app into its state at Resumed.
    std::fill_n(row(LcNode::Resumed), n_locations, kLive);

    bool changed = true;
    while (changed) {
        changed = false;
        ++solution.iterations;
        for (const LcEdge &edge : model.edges) {
            const StateFact *from = row(edge.from);
            StateFact *to = row(edge.to);
            for (std::size_t i = 0; i < n_locations; ++i) {
                if (from[i] == kFactBottom)
                    continue;
                const StateFact incoming =
                    transferFact(from[i], edge.effect, model.locations[i]);
                const StateFact joined = joinFacts(to[i], incoming);
                if (joined != to[i]) {
                    to[i] = joined;
                    changed = true;
                }
            }
        }
    }
    return solution;
}

std::string
FlowSolution::describe(const AppModel &model) const
{
    std::string out;
    for (std::size_t n = 0; n < kLcNodeCount; ++n) {
        const auto node = static_cast<LcNode>(n);
        if (!model.reachable(node))
            continue;
        out += lcNodeName(node);
        out += ":";
        for (std::size_t i = 0; i < model.locations.size(); ++i) {
            out += " ";
            out += model.locations[i].traits.location;
            out += "=";
            out += stateFactName(at(node, i));
        }
        out += "\n";
    }
    return out;
}

} // namespace rchdroid::sa
