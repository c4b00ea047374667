/**
 * @file
 * MHP analysis unit tests: hand-built concurrency graphs whose ordered
 * and parallel pairs are known by construction, a randomized check of
 * the fixpoint against a reference DFS, and the race-pair / step-class
 * predicates the checker and the explorer oracle are built from.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sa/mhp.h"

namespace rchdroid::sa {
namespace {

CgNode
node(std::string label, CgLooper looper = CgLooper::Main,
     LocationMask reads = 0, LocationMask writes = 0,
     LocationMask teardown = 0)
{
    CgNode n;
    n.label = std::move(label);
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
    g.edges = {{0, 1, CgEdgeKind::PostReply}};
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(mhp.ordered(0, 1));
    EXPECT_FALSE(mhp.mhp(0, 1));
}

TEST(Mhp, OrderedByLifecycleChain)
{
    ConcurrencyGraph g;
    g.nodes = {node("onPause"), node("onStop"), node("onDestroy")};
    g.edges = {{0, 1, CgEdgeKind::Lifecycle},
               {1, 2, CgEdgeKind::Lifecycle}};
    const MhpResult mhp = computeMhp(g);
    // Transitive: onPause precedes onDestroy without a direct edge.
    EXPECT_TRUE(mhp.ordered(0, 2));
    EXPECT_TRUE(mhp.reach[0][2]);
    EXPECT_FALSE(mhp.reach[2][0]);
}

TEST(Mhp, TrulyParallelWhenNoPathEitherWay)
{
    ConcurrencyGraph g;
    g.nodes = {node("fork"), node("left"), node("right", CgLooper::Worker)};
    g.edges = {{0, 1, CgEdgeKind::Program},
               {0, 2, CgEdgeKind::PostReply}};
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
    g.edges = {{0, 1, CgEdgeKind::Lifecycle},
               {0, 2, CgEdgeKind::Lifecycle},
               {1, 3, CgEdgeKind::Lifecycle},
               {2, 3, CgEdgeKind::Lifecycle}};
    const MhpResult mhp = computeMhp(g);
    EXPECT_TRUE(mhp.mhp(1, 2));
    EXPECT_TRUE(mhp.ordered(0, 3));
    EXPECT_TRUE(mhp.ordered(1, 3));
    EXPECT_TRUE(mhp.ordered(2, 3));
    EXPECT_GE(mhp.iterations, 1);
}

TEST(Mhp, RandomizedAgainstReferenceDfs)
{
    // Deterministic LCG (no ambient randomness): random DAGs with
    // edges i → j only for i < j, so acyclicity holds by construction.
    std::uint64_t state = 0x2545F4914F6CDD1Dull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 3 + next() % 10;
        ConcurrencyGraph g;
        for (std::size_t i = 0; i < n; ++i)
            g.nodes.push_back(node("n" + std::to_string(i)));
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (next() % 3 == 0)
                    g.edges.push_back({static_cast<int>(i),
                                       static_cast<int>(j),
                                       CgEdgeKind::Program});
            }
        }
        const MhpResult mhp = computeMhp(g);
        // Reference: plain DFS reachability, one source at a time.
        std::vector<std::vector<bool>> ref(n, std::vector<bool>(n));
        for (std::size_t src = 0; src < n; ++src) {
            std::function<void(std::size_t)> walk = [&](std::size_t at) {
                for (const CgEdge &e : g.edges) {
                    if (static_cast<std::size_t>(e.from) != at)
                        continue;
                    if (!ref[src][e.to]) {
                        ref[src][e.to] = true;
                        walk(e.to);
                    }
                }
            };
            walk(src);
        }
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                EXPECT_EQ(mhp.reach[a][b], ref[a][b])
                    << "trial " << trial << " " << a << "->" << b;
                // mhp is symmetric and irreflexive by definition.
                EXPECT_EQ(mhp.mhp(a, b), mhp.mhp(b, a));
                if (a == b) {
                    EXPECT_FALSE(mhp.mhp(a, b));
                }
                EXPECT_NE(mhp.mhp(a, b), mhp.ordered(a, b));
            }
        }
    }
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
    g.edges = {{0, 1, CgEdgeKind::Lifecycle}};
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
// The exported independence oracle.
// ---------------------------------------------------------------------

StepClass
stepClass(std::string process, std::string looper, std::string tag,
          LocationMask reads = 0, LocationMask writes = 0)
{
    StepClass c;
    c.process = std::move(process);
    c.looper = std::move(looper);
    c.tag = std::move(tag);
    c.reads = reads;
    c.writes = writes;
    return c;
}

TEST(IndependenceSpec, FindAndLooperProcessUseTheRuntimeKey)
{
    IndependenceSpec spec;
    spec.classes = {stepClass("p0", "p0.main", "ping"),
                    stepClass("p1", "p1.main", "ping")};
    ASSERT_NE(spec.find("p0.main#ping"), nullptr);
    EXPECT_EQ(spec.find("p0.main#ping")->process, "p0");
    EXPECT_EQ(spec.find("p0.main#pong"), nullptr);
    ASSERT_NE(spec.looperProcess("p1.main"), nullptr);
    EXPECT_EQ(*spec.looperProcess("p1.main"), "p1");
    EXPECT_EQ(spec.looperProcess("p2.main"), nullptr);
}

TEST(IndependenceSpec, ProcessIsolationNeedsClosedWorldAndNoGlobals)
{
    IndependenceSpec spec;
    spec.classes = {stepClass("p0", "p0.main", "ping")};
    EXPECT_FALSE(spec.processIsolated()); // open world
    spec.closed_world = true;
    EXPECT_TRUE(spec.processIsolated());
    spec.classes.push_back(stepClass("p1", "p1.main", "rotate"));
    spec.classes.back().global = true;
    EXPECT_FALSE(spec.processIsolated()); // a global class breaks it
}

TEST(IndependenceSpec, IndependentClassesDecisionTable)
{
    IndependenceSpec spec;
    const StepClass other_proc = stepClass("p1", "p1.main", "ping");
    const StepClass same_looper = stepClass("p0", "p0.main", "tick");
    const StepClass disjoint =
        stepClass("p0", "p0.async", "work", locationBit(1), 0);
    const StepClass writer =
        stepClass("p0", "p0.main", "done", 0, locationBit(0));
    StepClass global = stepClass("p0", "p0.main", "rotate");
    global.global = true;

    // Distinct processes: independent (isolation is a spec obligation).
    EXPECT_TRUE(spec.independentClasses(writer, other_proc));
    // One shared looper queue serialises them: never independent.
    EXPECT_FALSE(spec.independentClasses(writer, same_looper));
    // Same process, different loopers: mask disjointness decides.
    EXPECT_TRUE(spec.independentClasses(writer, disjoint));
    StepClass reader = disjoint;
    reader.reads = locationBit(0); // now overlaps writer's writes
    EXPECT_FALSE(spec.independentClasses(writer, reader));
    // Global classes are independent of nothing.
    EXPECT_FALSE(spec.independentClasses(writer, global));
    EXPECT_FALSE(spec.independentClasses(global, other_proc));
}

} // namespace
} // namespace rchdroid::sa
