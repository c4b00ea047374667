#include "sa/mhp.h"

#include <bit>

#include "platform/logging.h"

namespace rchdroid::sa {

LocationMask
locationBit(std::size_t index)
{
    return index < 31 ? (LocationMask{1} << index) : kViewsBit;
}

std::string
maskToString(const AppModel &model, LocationMask mask)
{
    std::string out;
    for (std::size_t i = 0; i < model.locations.size() && i < 31; ++i) {
        if ((mask & locationBit(i)) == 0)
            continue;
        if (!out.empty())
            out += ", ";
        out += model.locations[i].traits.location;
    }
    if (mask & kViewsBit) {
        if (!out.empty())
            out += ", ";
        out += "captured views";
    }
    return out.empty() ? "none" : out;
}

namespace {

/** All location bits of the model (view-backed user state). */
LocationMask
allLocations(const AppModel &model)
{
    LocationMask mask = 0;
    for (std::size_t i = 0; i < model.locations.size(); ++i)
        mask |= locationBit(i);
    return mask;
}

/** Locations whose fact at `node` includes `residence`. */
LocationMask
locationsWithFact(const AppModel &model, const FlowSolution &flow,
                  LcNode node, StateFact residence)
{
    LocationMask mask = 0;
    for (std::size_t i = 0; i < model.locations.size(); ++i) {
        if ((flow.at(node, i) & residence) != 0)
            mask |= locationBit(i);
    }
    return mask;
}

void
applyEffectMasks(CgNode &node, const LcEdge &edge, const AppModel &model,
                 const FlowSolution &flow, bool original_instance)
{
    switch (edge.effect) {
      case EdgeEffect::None:
        break;
      case EdgeEffect::Materialize:
        // Building a view tree writes every view-backed location of
        // the instance being built; only the original instance is the
        // one async captures may target.
        node.writes |= allLocations(model);
        if (original_instance)
            node.writes |= kViewsBit;
        break;
      case EdgeEffect::SaveDefault:
      case EdgeEffect::SaveFull:
        node.reads |= allLocations(model);
        break;
      case EdgeEffect::DestroyViews:
        // The restart teardown destroys the old instance's tree and,
        // with it, every location still Live there.
        node.teardown |=
            kViewsBit | locationsWithFact(model, flow, edge.from, kLive);
        break;
      case EdgeEffect::EnterShadow:
        break;
      case EdgeEffect::Restore:
        node.writes |= allLocations(model);
        break;
      case EdgeEffect::Migrate:
        // Lazy migration reads the parked shadow tree into the sunny
        // instance's views.
        node.reads |= kViewsBit;
        node.writes |= allLocations(model);
        break;
      case EdgeEffect::CollectShadow:
        // Shadow GC destroys the parked tree and every location whose
        // surviving copy is the shadow residence.
        node.teardown |=
            kViewsBit | locationsWithFact(model, flow, edge.from, kShadow);
        break;
    }
}

} // namespace

ConcurrencyGraph
buildConcurrencyGraph(const AppModel &model, const FlowSolution &flow)
{
    ConcurrencyGraph graph;

    // One node per lifecycle CFG edge (= one callback execution on the
    // main looper), dropping the NextResumed → ConfigDispatch back edge
    // so the graph models exactly one runtime change. Node i is the
    // callback of lc_edges[i].
    std::vector<const LcEdge *> lc_edges;
    lc_edges.reserve(model.edges.size());
    for (const LcEdge &edge : model.edges) {
        if (edge.to == LcNode::ConfigDispatch &&
            edge.from == LcNode::NextResumed)
            continue;
        lc_edges.push_back(&edge);
    }
    // A lifecycle chain has one edge fewer than nodes; the async chain
    // adds three nodes and at most five edges.
    graph.nodes.reserve(lc_edges.size() + 3);
    graph.edges.reserve(lc_edges.size() + 5);

    // first_from[n]: the first callback leaving CFG node n, or -1. The
    // async edges below anchor on three callbacks that are the only
    // ones leaving their node on every path: onResume (Started), the
    // runtime change (Resumed) and onStop (Saved).
    std::array<int, kLcNodeCount> first_from;
    first_from.fill(-1);
    for (const LcEdge *edge : lc_edges) {
        CgNode node;
        node.label = edge->label;
        node.looper = CgLooper::Main;
        applyEffectMasks(node, *edge, model, flow,
                         /*original_instance=*/edge->from == LcNode::Launched);
        int &first = first_from[static_cast<std::size_t>(edge->from)];
        if (first < 0)
            first = static_cast<int>(graph.nodes.size());
        graph.nodes.push_back(node);
    }

    // Lifecycle ordering: callback of edge A precedes callback of edge
    // B whenever A ends where B begins. This follows the CFG through
    // branches (the RCH path forks at ShadowAlive). The in-place path
    // returns to Resumed, whose successor is the change it just
    // handled; that edge would close a cycle through a second change.
    for (std::size_t i = 0; i < lc_edges.size(); ++i) {
        if (lc_edges[i]->from == LcNode::InPlaceHandled)
            continue;
        for (std::size_t j = 0; j < lc_edges.size(); ++j) {
            if (i != j && lc_edges[i]->to == lc_edges[j]->from)
                graph.edges.push_back(
                    {static_cast<int>(i), static_cast<int>(j)});
        }
    }

    if (model.async.has_task) {
        const auto leaving = [&first_from](LcNode node) {
            return first_from[static_cast<std::size_t>(node)];
        };
        const int resume = leaving(LcNode::Started);
        const int change = leaving(LcNode::Resumed);

        CgNode execute;
        execute.label = "AsyncTask.execute";
        execute.looper = CgLooper::Main;
        execute.is_async = true;
        const int execute_id = static_cast<int>(graph.nodes.size());
        graph.nodes.push_back(execute);

        CgNode background;
        background.label = "AsyncTask.doInBackground";
        background.looper = CgLooper::Worker;
        background.is_async = true;
        const int background_id = static_cast<int>(graph.nodes.size());
        graph.nodes.push_back(background);

        CgNode done;
        done.label = "AsyncTask.onPostExecute";
        done.looper = CgLooper::Main;
        done.is_async = true;
        if (model.async.capture == AsyncCapture::RawViewRef) {
            // Fig. 1 anti-pattern: raw references into the captured
            // instance's tree. ViewId re-resolves through the live
            // tree, so it never writes the old instance.
            done.writes |= kViewsBit;
        }
        const int done_id = static_cast<int>(graph.nodes.size());
        graph.nodes.push_back(done);

        // The task starts from the resumed instance, before the change
        // (the §6 methodology seeds state while Resumed).
        if (resume >= 0)
            graph.edges.push_back({resume, execute_id});
        // Post edges: execute posts doInBackground, which posts the
        // result.
        graph.edges.push_back({execute_id, background_id});
        graph.edges.push_back({background_id, done_id});

        if (!model.async.may_straddle_change && change >= 0) {
            // Zero-duration task: its completion is already dispatched
            // when the change can arrive.
            graph.edges.push_back({done_id, change});
        }
        if (model.async.cancels_on_stop) {
            // onStop cancels the task, so a completion that runs at
            // all ran before onStop's teardown successor.
            const int stop = leaving(LcNode::Saved);
            if (stop >= 0)
                graph.edges.push_back({done_id, stop});
        }
    }
    return graph;
}

MhpResult
computeMhp(const ConcurrencyGraph &graph)
{
    constexpr std::size_t kMax = MhpResult::kMaxNodes;
    const std::size_t n = graph.nodes.size();
    RCH_ASSERT(n <= kMax, "concurrency graph has ", n,
               " nodes, more than the ", kMax, " an MHP row holds");
    MhpResult result;
    result.node_count = n;

    // Direct successors as bit rows; in-degrees count distinct edges.
    std::array<std::uint64_t, kMax> successors{};
    std::array<std::uint8_t, kMax> in_degree{};
    for (const CgEdge &edge : graph.edges) {
        const auto from = static_cast<std::size_t>(edge.from);
        const auto to = static_cast<std::size_t>(edge.to);
        RCH_ASSERT(from < n && to < n, "concurrency graph edge ", edge.from,
                   " -> ", edge.to, " names no node (", n, " nodes)");
        const std::uint64_t bit = std::uint64_t{1} << to;
        if ((successors[from] & bit) == 0) {
            successors[from] |= bit;
            ++in_degree[to];
        }
    }

    // Kahn's algorithm: a node joins the order once every predecessor
    // has. Nodes on a cycle never do.
    std::array<std::uint8_t, kMax> order{};
    std::size_t placed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (in_degree[i] == 0)
            order[placed++] = static_cast<std::uint8_t>(i);
    }
    for (std::size_t next = 0; next < placed; ++next) {
        for (std::uint64_t rest = successors[order[next]]; rest != 0;
             rest &= rest - 1) {
            const int j = std::countr_zero(rest);
            if (--in_degree[j] == 0)
                order[placed++] = static_cast<std::uint8_t>(j);
        }
    }
    RCH_ASSERT(placed == n, "concurrency graph has a cycle through ",
               n - placed, " of its ", n, " nodes");

    // One pass in reverse topological order: every successor's row is
    // final before a predecessor ORs it into its own.
    for (std::size_t k = n; k-- > 0;) {
        const std::size_t i = order[k];
        std::uint64_t row = successors[i];
        for (std::uint64_t rest = successors[i]; rest != 0; rest &= rest - 1)
            row |= result.reach[std::countr_zero(rest)];
        result.reach[i] = row;
    }
    return result;
}

std::vector<RacePair>
racePairs(const ConcurrencyGraph &graph, const MhpResult &mhp)
{
    std::vector<RacePair> pairs;
    for (std::size_t a = 0; a < graph.nodes.size(); ++a) {
        for (std::size_t b = a + 1; b < graph.nodes.size(); ++b) {
            if (!mhp.mhp(a, b))
                continue;
            const CgNode &na = graph.nodes[a];
            const CgNode &nb = graph.nodes[b];
            // Conflict: a destructive or plain write on one side meets
            // any access on the other.
            const LocationMask a_dest = na.writes | na.teardown;
            const LocationMask b_dest = nb.writes | nb.teardown;
            const LocationMask clash =
                (a_dest & (b_dest | nb.reads)) | (b_dest & na.reads);
            if (clash == 0)
                continue;
            RacePair pair;
            pair.a = static_cast<int>(a);
            pair.b = static_cast<int>(b);
            pair.locations = clash;
            pair.teardown = (na.teardown & (b_dest | nb.reads)) != 0 ||
                            (nb.teardown & (a_dest | na.reads)) != 0;
            pairs.push_back(pair);
        }
    }
    return pairs;
}

const std::string *
IndependenceSpec::looperProcess(const std::string &looper) const
{
    auto it = looper_process.find(looper);
    return it == looper_process.end() ? nullptr : &it->second;
}

} // namespace rchdroid::sa
