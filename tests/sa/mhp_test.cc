/**
 * @file
 * MHP analysis unit tests: hand-built concurrency graphs whose ordered
 * and parallel pairs are known by construction, the closure checked
 * against a reference DFS on random graphs and on every corpus graph,
 * the graphs it rejects, the race-pair predicate the checker is built
 * from, and the process-isolation spec the explorer prunes with.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "sa/dataflow.h"
#include "sa/mhp.h"
#include "sa/sweep.h"

namespace rchdroid::sa {
namespace {

CgNode
node(const char *label, CgLooper looper = CgLooper::Main,
     LocationMask reads = 0, LocationMask writes = 0,
     LocationMask teardown = 0)
{
    CgNode n;
    n.label = label;
    n.looper = looper;
    n.reads = reads;
    n.writes = writes;
    n.teardown = teardown;
    return n;
}

TEST(Mhp, OrderedByPostEdge)
{
    // producer —post→ callback: a queue edge is a happens-before fact.
    ConcurrencyGraph g;
    g.nodes = {node("work", CgLooper::Worker), node("done")};
    g.edges = {{0, 1}};
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(mhp.ordered(0, 1));
    EXPECT_FALSE(mhp.mhp(0, 1));
}

TEST(Mhp, OrderedByLifecycleChain)
{
    ConcurrencyGraph g;
    g.nodes = {node("onPause"), node("onStop"), node("onDestroy")};
    g.edges = {{0, 1}, {1, 2}};
    const MhpResult mhp = computeMhp(g);
    // Transitive: onPause precedes onDestroy without a direct edge.
    EXPECT_TRUE(mhp.ordered(0, 2));
    EXPECT_TRUE(mhp.reaches(0, 2));
    EXPECT_FALSE(mhp.reaches(2, 0));
}

TEST(Mhp, TrulyParallelWhenNoPathEitherWay)
{
    ConcurrencyGraph g;
    g.nodes = {node("fork"), node("left"), node("right", CgLooper::Worker)};
    g.edges = {{0, 1}, {0, 2}};
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(mhp.mhp(1, 2));
    EXPECT_TRUE(mhp.mhp(2, 1)); // symmetric
    EXPECT_FALSE(mhp.mhp(1, 1)); // irreflexive
    EXPECT_TRUE(mhp.ordered(0, 1));
    EXPECT_TRUE(mhp.ordered(0, 2));
}

TEST(Mhp, TransitiveDiamondJoinsAreOrdered)
{
    //      0
    //    /   \          both arms parallel to each other,
    //   1     2         both ordered against fork and join
    //    \   /
    //      3
    ConcurrencyGraph g;
    g.nodes = {node("fork"), node("a"), node("b"), node("join")};
    g.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(mhp.mhp(1, 2));
    EXPECT_TRUE(mhp.ordered(0, 3));
    EXPECT_TRUE(mhp.ordered(1, 3));
    EXPECT_TRUE(mhp.ordered(2, 3));
}

/** Reachability by iterative DFS from each node, one source at a time. */
std::vector<std::vector<bool>>
referenceClosure(const ConcurrencyGraph &g)
{
    const std::size_t n = g.nodes.size();
    std::vector<std::vector<bool>> ref(n, std::vector<bool>(n));
    for (std::size_t src = 0; src < n; ++src) {
        std::vector<std::size_t> stack = {src};
        while (!stack.empty()) {
            const std::size_t at = stack.back();
            stack.pop_back();
            for (const CgEdge &e : g.edges) {
                if (static_cast<std::size_t>(e.from) == at &&
                    !ref[src][e.to]) {
                    ref[src][e.to] = true;
                    stack.push_back(static_cast<std::size_t>(e.to));
                }
            }
        }
    }
    return ref;
}

/** computeMhp agrees with the reference DFS on every ordered pair. */
void
expectClosureMatchesReference(const ConcurrencyGraph &g,
                              const std::string &what)
{
    const MhpResult mhp = computeMhp(g);
    const std::vector<std::vector<bool>> ref = referenceClosure(g);
    const std::size_t n = g.nodes.size();
    ASSERT_EQ(mhp.node_count, n) << what;
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            EXPECT_EQ(mhp.reaches(a, b), ref[a][b])
                << what << " " << a << "->" << b;
            // mhp is symmetric and irreflexive by definition.
            EXPECT_EQ(mhp.mhp(a, b), mhp.mhp(b, a));
            if (a == b) {
                EXPECT_FALSE(mhp.mhp(a, b));
            }
            EXPECT_NE(mhp.mhp(a, b), mhp.ordered(a, b));
        }
    }
}

TEST(Mhp, RandomizedAgainstReferenceDfs)
{
    // Deterministic LCG (no ambient randomness). Each DAG has edges
    // rank[i] → rank[j] for i < j only, so it is acyclic by
    // construction, but its node ids are a random permutation of the
    // ranks and its edge list is shuffled: neither id order nor edge
    // order is a topological order.
    std::uint64_t state = 0x2545F4914F6CDD1Dull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = trial == 0 ? MhpResult::kMaxNodes
                                         : 1 + next() % MhpResult::kMaxNodes;
        const std::uint32_t one_in = 1 + next() % 8;
        std::vector<int> rank(n);
        std::iota(rank.begin(), rank.end(), 0);
        for (std::size_t i = n; i > 1; --i)
            std::swap(rank[i - 1], rank[next() % i]);
        ConcurrencyGraph g;
        g.nodes.assign(n, node("n"));
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (next() % one_in == 0)
                    g.edges.push_back({rank[i], rank[j]});
            }
        }
        for (std::size_t i = g.edges.size(); i > 1; --i)
            std::swap(g.edges[i - 1], g.edges[next() % i]);
        expectClosureMatchesReference(g, "trial " + std::to_string(trial));
    }
}

TEST(Mhp, EveryCorpusGraphFitsAndClosesLikeTheReferenceDfs)
{
    std::size_t graphs = 0;
    for (const apps::AppSpec &spec : fullCorpus()) {
        for (const HandlingModel handling :
             {HandlingModel::Stock, HandlingModel::RchDroid}) {
            const AppModel model = compile(spec, handling);
            const ConcurrencyGraph g =
                buildConcurrencyGraph(model, solve(model));
            const std::string what =
                spec.name + "/" + handlingModelName(handling);
            ASSERT_LE(g.nodes.size(), MhpResult::kMaxNodes) << what;
            expectClosureMatchesReference(g, what);
            ++graphs;
        }
    }
    EXPECT_EQ(graphs, 264u);
}

TEST(Mhp, ClosesAGraphOfExactlyTheRowWidth)
{
    ConcurrencyGraph g;
    g.nodes.assign(MhpResult::kMaxNodes, node("n"));
    for (int i = 0; i + 1 < static_cast<int>(MhpResult::kMaxNodes); ++i)
        g.edges.push_back({i + 1, i});
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(mhp.reaches(MhpResult::kMaxNodes - 1, 0));
    EXPECT_FALSE(mhp.reaches(0, MhpResult::kMaxNodes - 1));
}

TEST(MhpDeathTest, RejectsAGraphWiderThanARow)
{
    ConcurrencyGraph g;
    g.nodes.assign(MhpResult::kMaxNodes + 1, node("n"));
    EXPECT_DEATH(computeMhp(g), "65 nodes, more than the 64");
}

TEST(MhpDeathTest, RejectsACycle)
{
    // A cycle would order its nodes before themselves;
    // buildConcurrencyGraph must never emit one.
    ConcurrencyGraph g;
    g.nodes = {node("a"), node("b"), node("c")};
    g.edges = {{0, 1}, {1, 2}, {2, 1}};
    EXPECT_DEATH(computeMhp(g), "cycle through 2 of its 3 nodes");
}

TEST(MhpDeathTest, RejectsAnEdgeNamingNoNode)
{
    ConcurrencyGraph g;
    g.nodes = {node("a")};
    g.edges = {{0, 1}};
    EXPECT_DEATH(computeMhp(g), "names no node");
}

TEST(RacePairs, ReportsOnlyConflictingMhpPairs)
{
    const LocationMask kLoc0 = locationBit(0);
    ConcurrencyGraph g;
    g.nodes = {node("writer", CgLooper::Main, 0, kViewsBit),
               node("teardown", CgLooper::Main, 0, 0, kViewsBit | kLoc0),
               node("reader", CgLooper::Worker, kLoc0),
               node("bystander", CgLooper::Worker)};
    // Everything unordered: no edges at all.
    const MhpResult mhp = computeMhp(g);
    const std::vector<RacePair> pairs = racePairs(g, mhp);
    ASSERT_EQ(pairs.size(), 2u);
    // a < b in node order: writer/teardown clash on the views bit...
    EXPECT_EQ(pairs[0].a, 0);
    EXPECT_EQ(pairs[0].b, 1);
    EXPECT_EQ(pairs[0].locations, kViewsBit);
    EXPECT_TRUE(pairs[0].teardown);
    // ...teardown/reader on location 0; the bystander touches nothing.
    EXPECT_EQ(pairs[1].a, 1);
    EXPECT_EQ(pairs[1].b, 2);
    EXPECT_EQ(pairs[1].locations, kLoc0);
    EXPECT_TRUE(pairs[1].teardown);
}

TEST(RacePairs, OrderedConflictIsNotARace)
{
    ConcurrencyGraph g;
    g.nodes = {node("writer", CgLooper::Main, 0, kViewsBit),
               node("teardown", CgLooper::Main, 0, 0, kViewsBit)};
    g.edges = {{0, 1}};
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(racePairs(g, mhp).empty());
}

TEST(LocationBit, SaturatesIntoTheViewsBit)
{
    EXPECT_EQ(locationBit(0), 1u);
    EXPECT_EQ(locationBit(30), 1u << 30);
    EXPECT_EQ(locationBit(31), kViewsBit);
    EXPECT_EQ(locationBit(200), kViewsBit);
}

// ---------------------------------------------------------------------
// The exported process-isolation spec.
// ---------------------------------------------------------------------

TEST(IndependenceSpec, LooperProcessMapsListedLoopersOnly)
{
    IndependenceSpec spec;
    spec.looper_process = {{"p0.main", "p0"}, {"p1.main", "p1"}};
    ASSERT_NE(spec.looperProcess("p1.main"), nullptr);
    EXPECT_EQ(*spec.looperProcess("p1.main"), "p1");
    EXPECT_EQ(spec.looperProcess("p2.main"), nullptr);
}

TEST(IndependenceSpec, ProcessIsolationNeedsClosedWorld)
{
    IndependenceSpec spec;
    spec.closed_world = true;
    EXPECT_FALSE(spec.processIsolated()); // nothing listed
    spec.looper_process = {{"p0.main", "p0"}};
    EXPECT_TRUE(spec.processIsolated());
    spec.closed_world = false;
    EXPECT_FALSE(spec.processIsolated()); // open world
}

} // namespace
} // namespace rchdroid::sa
