/**
 * @file
 * The independence oracle's empirical soundness gate: on every catalog
 * scenario, MHP-guided DPOR must reach bit-identical oracle verdicts to
 * the unguided search while never exploring more executions — and on
 * the two scenarios built to showcase the oracle (reduction_demo's
 * persistent sets, gc_tuning's pulse/benchmark isolation) it must
 * explore at least 2x fewer. A guided run that misses a violation the
 * unguided run finds would mean a spec lied about independence; this
 * test is the reason the hand-written specs can be trusted.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "mc/explorer.h"
#include "mc/scenario.h"

namespace rchdroid::mc {
namespace {

constexpr int kDepth = 6;

ExplorerReport
run(const Scenario &scenario, bool guided)
{
    ExplorerOptions options;
    options.scenario = &scenario;
    options.max_depth = kDepth;
    options.reduction = true;
    if (guided && !scenario.independence.empty())
        options.independence = &scenario.independence;
    return explore(options);
}

/** The comparable fingerprint of a verdict set: sorted oracle+summary. */
std::vector<std::string>
verdictSet(const ExplorerReport &report)
{
    std::vector<std::string> verdicts;
    for (const McViolation &violation : report.violations)
        verdicts.push_back(violation.oracle + ": " + violation.summary);
    std::sort(verdicts.begin(), verdicts.end());
    return verdicts;
}

TEST(GuidedEquivalence, BitIdenticalVerdictsAndNeverMoreExecutions)
{
    for (const Scenario &scenario : scenarioCatalog()) {
        const ExplorerReport guided = run(scenario, /*guided=*/true);
        const ExplorerReport unguided = run(scenario, /*guided=*/false);

        std::printf("%-16s guided %llu executions (%llu prunes), "
                    "unguided %llu executions\n",
                    scenario.name.c_str(),
                    static_cast<unsigned long long>(
                        guided.stats.executions),
                    static_cast<unsigned long long>(
                        guided.stats.mhp_prunes),
                    static_cast<unsigned long long>(
                        unguided.stats.executions));

        // Bit-identical oracle verdicts: same violations, no extras,
        // none missed. Order may differ (the guided search visits the
        // tree in a different order), content may not.
        EXPECT_EQ(verdictSet(guided), verdictSet(unguided))
            << scenario.name;

        // Independence only removes provably-equivalent work.
        EXPECT_LE(guided.stats.executions, unguided.stats.executions)
            << scenario.name;

        // Scenarios without a spec run the identical search — prunes
        // can only come from a spec.
        if (scenario.independence.empty()) {
            EXPECT_EQ(guided.stats.executions, unguided.stats.executions)
                << scenario.name;
            EXPECT_EQ(guided.stats.mhp_prunes, 0u) << scenario.name;
        }
    }
}

TEST(GuidedEquivalence, AtLeastTwofoldOnTheIsolatedScenarios)
{
    for (const char *name : {"reduction_demo", "gc_tuning"}) {
        const Scenario *scenario = findScenario(name);
        ASSERT_NE(scenario, nullptr) << name;
        const ExplorerReport guided = run(*scenario, /*guided=*/true);
        const ExplorerReport unguided = run(*scenario, /*guided=*/false);
        EXPECT_GE(unguided.stats.executions,
                  2 * guided.stats.executions)
            << name;
        // The reduction is the persistent-set prune engaging, not an
        // accidentally smaller tree.
        EXPECT_GT(guided.stats.mhp_prunes, 0u) << name;
        EXPECT_TRUE(scenario->independence.processIsolated()) << name;
    }
}

} // namespace
} // namespace rchdroid::mc
