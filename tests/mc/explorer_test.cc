/**
 * @file
 * Exploration invariants on the clean example scenarios: the bounded
 * DFS covers more schedules than it pays executions for, reports
 * consistent statistics, finds no violations on correct apps, and an
 * explicit replay of the all-defaults schedule reproduces the stock
 * simulator run.
 */
#include <gtest/gtest.h>

#include <memory>

#include "mc/execution.h"
#include "mc/explorer.h"
#include "mc/scenario.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid::mc {
namespace {

class EmptyActivity final : public Activity
{
  public:
    EmptyActivity() : Activity("racy/.Main") {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        setContentView(std::make_unique<FrameLayout>("root"));
    }
};

/**
 * A data race inside the controlled window: the UI and worker loopers
 * both write one detached view, and no message orders the two writes.
 */
Scenario
racyScenario()
{
    Scenario scenario;
    scenario.name = "racy";
    scenario.make_options = [] { return sim::SystemOptions{}; };
    scenario.setup = [](sim::AndroidSystem &system) {
        sim::CustomAppParams params;
        params.process = "racy";
        params.component = "racy/.Main";
        params.factory = [] { return std::make_unique<EmptyActivity>(); };
        system.installCustom(params);
        system.launchProcess("racy");
        ActivityThread &thread = *system.installedProcess("racy").thread;
        auto view = std::make_shared<TextView>("shared");
        thread.postAppCallbackAt(system.scheduler().now() + milliseconds(1),
                                 [view] { view->setText("ui"); });
        thread.workerLooper().post([view] { view->setText("worker"); },
                                   milliseconds(2));
    };
    scenario.horizon = milliseconds(10);
    return scenario;
}

ExplorerReport
exploreScenario(const char *name, int depth, bool reduction = true)
{
    const Scenario *scenario = findScenario(name);
    EXPECT_NE(scenario, nullptr) << name;
    ExplorerOptions options;
    options.scenario = scenario;
    options.max_depth = depth;
    options.reduction = reduction;
    return explore(options);
}

TEST(ExplorerTest, OnlyTheExplorersAnalyzerRuns)
{
    // The test environment arms RCHDROID_ANALYSIS and its abort, so an
    // analyzer of the system's own would panic on this race. The
    // explorer's analyzer reports it instead, and with run_analysis off
    // no analyzer runs at all.
    const Scenario scenario = racyScenario();
    ExecutionOptions options;
    options.scenario = &scenario;
    options.oracles = {"analysis"};
    const ExecutionResult checked = runExecution(options);
    ASSERT_EQ(checked.violations.size(), 1u);
    EXPECT_EQ(checked.violations[0].oracle, "analysis");
    EXPECT_NE(checked.violations[0].summary.find("TextView 'shared'"),
              std::string::npos);

    options.run_analysis = false;
    EXPECT_TRUE(runExecution(options).violations.empty());
}

TEST(ExplorerTest, QuickstartSmallBoundIsClean)
{
    const ExplorerReport report = exploreScenario("quickstart", 4);
    EXPECT_TRUE(report.violations.empty());
    EXPECT_FALSE(report.stats.truncated);
    EXPECT_GT(report.stats.executions, 1u);
    // Memoized subtrees mean coverage meets or beats what we paid.
    EXPECT_GE(report.stats.schedules_covered, report.stats.executions);
    EXPECT_GT(report.stats.nodes, 0u);
    EXPECT_GT(report.stats.distinct_states, 0u);
}

TEST(ExplorerTest, AllCleanScenariosStayClean)
{
    for (const char *name :
         {"login_form", "photo_gallery", "mail_navigation", "gc_tuning"}) {
        const ExplorerReport report = exploreScenario(name, 3);
        EXPECT_TRUE(report.violations.empty())
            << name << ": " << (report.violations.empty()
                                    ? ""
                                    : report.violations.front().summary);
        EXPECT_GE(report.stats.schedules_covered,
                  report.stats.executions)
            << name;
    }
}

TEST(ExplorerTest, DepthZeroBudgetStillRunsTheDefaultSchedule)
{
    const Scenario *scenario = findScenario("quickstart");
    ASSERT_NE(scenario, nullptr);
    ExplorerOptions options;
    options.scenario = scenario;
    options.max_depth = 1;
    const ExplorerReport report = explore(options);
    EXPECT_GE(report.stats.executions, 1u);
    EXPECT_TRUE(report.violations.empty());
}

TEST(ExplorerTest, EmptyScheduleReplaysTheStockSimulator)
{
    const Scenario *scenario = findScenario("quickstart");
    ASSERT_NE(scenario, nullptr);
    ExecutionOptions options;
    options.scenario = scenario;
    options.schedule = {}; // all defaults: no injections, FIFO order
    options.fingerprints = false;
    const ExecutionResult result = runExecution(options);
    EXPECT_TRUE(result.violations.empty());
    // The idle device still records the end-the-window choice point.
    EXPECT_FALSE(result.choice_points.empty());
    // The injection-free default must not consume the injection budget.
    for (const ChoicePoint &cp : result.choice_points)
        EXPECT_NE(cp.options[cp.chosen].kind,
                  ChoiceOption::Kind::Injection);
}

TEST(ExplorerTest, TruncationReportedWhenBudgetExhausted)
{
    const Scenario *scenario = findScenario("quickstart");
    ASSERT_NE(scenario, nullptr);
    ExplorerOptions options;
    options.scenario = scenario;
    options.max_depth = 10;
    options.max_executions = 5;
    options.reduction = false; // force enough branches to hit the cap
    const ExplorerReport report = explore(options);
    EXPECT_TRUE(report.stats.truncated);
    EXPECT_LE(report.stats.executions, 5u);
}

} // namespace
} // namespace rchdroid::mc
