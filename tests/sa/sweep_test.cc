/**
 * @file
 * Sweep + verdict serialisation: one verdict per corpus app, JSON
 * structure, summary arithmetic, the per-phase host times, and the
 * checker registry contract the lint rule builds on.
 */
#include <gtest/gtest.h>

#include <set>

#include "apps/corpus.h"
#include "platform/strings.h"
#include "sa/sweep.h"

namespace rchdroid::sa {
namespace {

TEST(Sweep, EveryCorpusAppGetsExactlyOneVerdict)
{
    const std::vector<apps::AppSpec> corpus = fullCorpus();
    const SweepResult result = sweep(corpus);
    ASSERT_EQ(result.verdicts.size(), corpus.size());
    // TP-37 runnable set (27) + top-100 (100) + five examples.
    EXPECT_EQ(corpus.size(), 132u);
    std::set<std::string> names;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(result.verdicts[i].app, corpus[i].name);
        names.insert(result.verdicts[i].app);
    }
    EXPECT_EQ(names.size(), corpus.size()) << "duplicate app names";
}

TEST(Sweep, SummaryCountsAddUp)
{
    const SweepResult result = sweep(fullCorpus());
    const SweepSummary totals = result.summary();
    EXPECT_EQ(totals.apps, static_cast<int>(result.verdicts.size()));
    EXPECT_EQ(totals.findings,
              totals.errors + totals.warnings + totals.infos);
    EXPECT_EQ(totals.apps, totals.self_handling + totals.rch_eligible +
                               totals.rch_ineligible);
    // RCHDroid must strictly improve on stock across the corpus.
    EXPECT_GT(totals.rch_clean, totals.stock_clean);
}

TEST(Sweep, JsonContainsEveryAppAndTheSummary)
{
    const SweepResult result = sweep(fullCorpus());
    const std::string json = result.toJson();
    for (const AppVerdict &verdict : result.verdicts)
        EXPECT_NE(json.find("\"app\": \"" + jsonEscape(verdict.app) + "\""),
                  std::string::npos)
            << verdict.app;
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"rch_eligible\""), std::string::npos);
}

TEST(Sweep, PhaseTimesAddUpAndOnlyJoinTheJsonWhenAsked)
{
    const std::vector<apps::AppSpec> corpus = fullCorpus();
    const std::string untimed = sweep(corpus).toJson();
    PhaseTimes times;
    const SweepResult timed = sweep(corpus, &times);
    // Timing changes no verdict, and toJson() without it no byte.
    EXPECT_EQ(timed.toJson(), untimed);
    const std::string with_phases = timed.toJson(&times);
    ASSERT_GE(untimed.size(), 2u);
    EXPECT_EQ(with_phases, untimed.substr(0, untimed.size() - 2) +
                               ", \"phase_us\": " + times.toJson() + "}\n");
    for (const char *key : {"compile", "dataflow", "graph", "mhp",
                            "checkers", "total"})
        EXPECT_NE(times.toJson().find(std::string("\"") + key + "\": "),
                  std::string::npos)
            << key;

    // Every phase ran on 132 apps; laps never overlap, so they fit
    // inside the total.
    for (const std::int64_t phase :
         {times.compile_ns, times.dataflow_ns, times.graph_ns,
          times.mhp_ns, times.checkers_ns})
        EXPECT_GT(phase, 0);
    EXPECT_GE(times.total_ns, times.compile_ns + times.dataflow_ns +
                                  times.graph_ns + times.mhp_ns +
                                  times.checkers_ns);
}

TEST(Sweep, VerdictJsonCarriesBothModePredictions)
{
    apps::AppSpec spec;
    spec.name = "JsonApp";
    spec.critical = apps::CriticalState::EditTextNoId;
    const std::string json = analyzeApp(spec).toJson();
    EXPECT_NE(json.find("\"stock\": {\"state_preserved\": false"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"rchdroid\": {\"state_preserved\": true"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
}

TEST(Registry, EveryCheckerHasNameSummaryAndFunction)
{
    const std::vector<CheckerInfo> &registry = checkerRegistry();
    ASSERT_EQ(registry.size(), 5u);
    std::set<std::string> names;
    for (const CheckerInfo &checker : registry) {
        EXPECT_NE(checker.name, nullptr);
        EXPECT_NE(checker.summary, nullptr);
        EXPECT_NE(checker.fn, nullptr);
        names.insert(checker.name);
    }
    // The names the lint rule matches test files against.
    EXPECT_TRUE(names.count("data_loss"));
    EXPECT_TRUE(names.count("stale_reference"));
    EXPECT_TRUE(names.count("config_decl"));
    EXPECT_TRUE(names.count("rch_eligibility"));
    EXPECT_TRUE(names.count("async_race"));
}

TEST(Registry, EveryFindingNamesARegisteredChecker)
{
    std::set<std::string> registered;
    for (const CheckerInfo &checker : checkerRegistry())
        registered.insert(checker.name);
    for (const AppVerdict &verdict : sweep(fullCorpus()).verdicts) {
        for (const Finding &finding : verdict.findings)
            EXPECT_TRUE(registered.count(finding.checker))
                << verdict.app << ": " << finding.checker;
    }
}

} // namespace
} // namespace rchdroid::sa
