/**
 * @file
 * May-happen-in-parallel (MHP) analysis over the model IR, and the
 * process-isolation spec the model checker prunes with.
 *
 * buildConcurrencyGraph() lowers one compiled AppModel (plus its flow
 * solution) into a concurrency graph: one node per executable step —
 * every lifecycle callback from the Fig. 4 CFG, plus the AsyncTask's
 * execute / doInBackground / onPostExecute steps from the async posted-
 * callback summary. Edges are happens-before facts the model
 * guarantees, from three sources (an edge does not record which):
 *
 *  - Lifecycle: the CFG's own ordering (onCreate before onStart, the
 *    restart teardown before the recreated instance's callbacks, ...).
 *    The graph models one runtime change and must stay acyclic, so
 *    the NextResumed → ConfigDispatch back edge is dropped, and so is
 *    the in-place path's return from "handled in place" into the
 *    change it just handled.
 *  - Program: per-looper program order among steps the same looper
 *    runs in a fixed sequence (execute precedes the task's result).
 *  - PostReply: the post edge from a producer to the callback it
 *    enqueues (doInBackground → onPostExecute).
 *
 * computeMhp() closes reachability over the graph with one 64-bit row
 * per node: Kahn's algorithm orders the nodes topologically (and
 * rejects a cycle), then one pass in reverse topological order ORs
 * each node's direct successors and their finished rows into its own.
 * Two nodes may happen in parallel exactly when neither reaches the
 * other. "Parallel" here means *unordered dispatch*: two
 * main-looper callbacks whose queue order the scheduler does not fix
 * can land either way around, which is all a write/teardown race needs.
 *
 * Each node carries read/write/teardown masks over the dataflow's
 * tracked locations plus one pseudo-location (kViewsBit: the captured
 * instance's live view tree). racePairs() reports MHP pairs whose
 * masks conflict — the async_race checker's raw material.
 *
 * IndependenceSpec is the contract exported to src/mc/: which process
 * owns each runtime looper, and whether those loopers are all the
 * window can dispatch on. The explorer's persistent-set pruning reads
 * it (DESIGN.md §14). src/sa/ stays simulator-free: the spec is plain
 * data; mapping runtime events onto loopers is mc's job.
 */
#ifndef RCHDROID_SA_MHP_H
#define RCHDROID_SA_MHP_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sa/dataflow.h"
#include "sa/model_ir.h"

namespace rchdroid::sa {

/**
 * Bitmask over tracked state locations (bit i = model.locations[i])
 * plus the pseudo-location below. Locations beyond 31 saturate into
 * the pseudo-bit (conservative: they conflict with everything that
 * touches views) — the corpus tracks ≤ 3 locations per app.
 */
using LocationMask = std::uint32_t;

/** The captured (old / shadow) instance's live view tree. */
inline constexpr LocationMask kViewsBit = 1u << 31;

/** Bit for location index i (saturates into kViewsBit). */
LocationMask locationBit(std::size_t index);

/** Render a mask using the model's location names. */
std::string maskToString(const AppModel &model, LocationMask mask);

/** Which simulated thread a node runs on. */
enum class CgLooper : std::uint8_t { Main, Worker };

/** One executable step of the concurrency graph. */
struct CgNode
{
    /**
     * Protocol label ("onDestroy", "AsyncTask.onPostExecute", ...): the
     * model's static LcEdge::label or a literal, never owned.
     */
    const char *label = "";
    CgLooper looper = CgLooper::Main;
    /** Part of the async posted-callback chain. */
    bool is_async = false;
    LocationMask reads = 0;
    LocationMask writes = 0;
    /** Destructive writes: the step destroys these residences. */
    LocationMask teardown = 0;
};

/** One happens-before edge: nodes[from] precedes nodes[to]. */
struct CgEdge
{
    int from = 0;
    int to = 0;
};

struct ConcurrencyGraph
{
    std::vector<CgNode> nodes;
    std::vector<CgEdge> edges;
};

/**
 * Lower one compiled model into its concurrency graph. Effect masks
 * come from the flow solution: DestroyViews tears down exactly the
 * locations Live at its source node, CollectShadow the locations whose
 * only copy is the Shadow residence.
 */
ConcurrencyGraph buildConcurrencyGraph(const AppModel &model,
                                       const FlowSolution &flow);

/** The MHP analysis's result: the reachability closure. */
struct MhpResult
{
    /** One row per node, one bit per node: the largest graph it closes. */
    static constexpr std::size_t kMaxNodes = 64;

    std::size_t node_count = 0;
    /** Bit j of reach[i]: node i happens before node j. Read via reaches(). */
    std::array<std::uint64_t, kMaxNodes> reach{};

    /** Node a happens before node b on every schedule. */
    bool reaches(std::size_t a, std::size_t b) const
    {
        return ((reach[a] >> b) & 1u) != 0;
    }

    bool ordered(std::size_t a, std::size_t b) const
    {
        return a == b || reaches(a, b) || reaches(b, a);
    }

    /** Symmetric, irreflexive: unordered distinct steps. */
    bool mhp(std::size_t a, std::size_t b) const
    {
        return a != b && !reaches(a, b) && !reaches(b, a);
    }
};

/**
 * Close reachability over the graph. Panics (RCH_ASSERT) on a graph of
 * more than MhpResult::kMaxNodes nodes, an edge naming no node, or a
 * cycle.
 */
MhpResult computeMhp(const ConcurrencyGraph &graph);

/** One statically-possible race: an MHP pair with conflicting masks. */
struct RacePair
{
    int a = 0;
    int b = 0;
    /** The locations both sides touch. */
    LocationMask locations = 0;
    /** One side tears down what the other writes or reads. */
    bool teardown = false;
};

/**
 * Every MHP pair whose masks conflict (write/write, write/read, or
 * either against a teardown), a < b, in node order.
 */
std::vector<RacePair> racePairs(const ConcurrencyGraph &graph,
                                const MhpResult &mhp);

// ---------------------------------------------------------------------
// The process-isolation spec exported to src/mc/ (DESIGN.md §14).
// ---------------------------------------------------------------------

/**
 * The static independence relation one scenario hands the explorer:
 * the owning process of each runtime looper its window dispatches on.
 *
 * Soundness obligations on whoever builds a spec:
 *  - loopers of distinct processes really are isolated: nothing a step
 *    on one reads or writes another listed process's state;
 *  - `closed_world` additionally asserts the listed loopers are ALL the
 *    loopers that can dispatch inside the controlled window, and that
 *    no step on them posts across processes.
 * The guided-vs-unguided bit-identical CTest checks these obligations
 * empirically on every run.
 */
struct IndependenceSpec
{
    /** Runtime looper name ("com.example.ping0.main") → owning process. */
    std::map<std::string, std::string> looper_process;
    bool closed_world = false;

    bool empty() const { return looper_process.empty(); }

    /** Owning process of `looper`, or null when it is not listed. */
    const std::string *looperProcess(const std::string &looper) const;

    /**
     * A closed world with at least one looper: every event in the
     * window runs on a listed looper and processes are fully isolated —
     * the precondition of the explorer's persistent-set pruning.
     */
    bool processIsolated() const { return closed_world && !empty(); }
};

} // namespace rchdroid::sa

#endif // RCHDROID_SA_MHP_H
