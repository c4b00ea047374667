/**
 * @file
 * The explorer's branch pool changes only which thread replays a branch
 * (DESIGN.md §11). At 1 and at 4 workers every report is equal field for
 * field, a truncated search counts the same, a replay's exception
 * reaches the caller after every worker has been joined, and a search
 * with nothing to replay ahead starts no thread.
 *
 * Each explore reads its worker count from RCHDROID_JOBS, which the
 * tests set between explores, when no worker is alive.
 */
#include <gtest/gtest.h>
#include <sys/single_threaded.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mc/app_scenario.h"
#include "mc/explorer.h"
#include "mc/scenario.h"
#include "mc/state_hash.h"
#include "sa/sweep.h"
#include "sa/verdict.h"

namespace rchdroid::mc {
namespace {

ExplorerOptions
defaultOptions(const Scenario &scenario, int depth)
{
    ExplorerOptions options;
    options.scenario = &scenario;
    options.max_depth = depth;
    if (!scenario.independence.empty())
        options.independence = &scenario.independence;
    return options;
}

ExplorerReport
exploreWithJobs(const ExplorerOptions &options, const char *jobs)
{
    setenv("RCHDROID_JOBS", jobs, 1);
    return explore(options);
}

void
expectSameReport(const ExplorerReport &got, const ExplorerReport &want)
{
    const ExplorerStats &g = got.stats;
    const ExplorerStats &w = want.stats;
    EXPECT_EQ(g.executions, w.executions);
    EXPECT_EQ(g.schedules_covered, w.schedules_covered);
    EXPECT_EQ(g.nodes, w.nodes);
    EXPECT_EQ(g.distinct_states, w.distinct_states);
    EXPECT_EQ(g.visited_hits, w.visited_hits);
    EXPECT_EQ(g.sleep_skips, w.sleep_skips);
    EXPECT_EQ(g.mhp_prunes, w.mhp_prunes);
    EXPECT_EQ(g.truncated, w.truncated);
    EXPECT_EQ(g.events_replayed, w.events_replayed);
    EXPECT_EQ(g.fingerprints, w.fingerprints);
    ASSERT_EQ(got.violations.size(), want.violations.size());
    for (std::size_t i = 0; i < got.violations.size(); ++i) {
        EXPECT_EQ(got.violations[i].oracle, want.violations[i].oracle) << i;
        EXPECT_EQ(got.violations[i].summary, want.violations[i].summary)
            << i;
        EXPECT_EQ(got.violations[i].time, want.violations[i].time) << i;
    }
    EXPECT_EQ(got.first_violation_schedule, want.first_violation_schedule);
}

/** Explore at 1 and at 4 workers; returns the serial report. */
ExplorerReport
expectSameAtOneAndFourWorkers(const Scenario &scenario, int depth)
{
    SCOPED_TRACE(scenario.name);
    const ExplorerOptions options = defaultOptions(scenario, depth);
    ExplorerReport serial = exploreWithJobs(options, "1");
    const ExplorerReport pooled = exploreWithJobs(options, "4");
    expectSameReport(pooled, serial);
    return serial;
}

TEST(ParallelExplore, CatalogueReportsMatchAtOneAndFourWorkers)
{
    for (const Scenario &scenario : scenarioCatalog())
        expectSameAtOneAndFourWorkers(scenario, 12);
}

TEST(ParallelExplore, CorpusReportsMatchAtOneAndFourWorkers)
{
    // Every ninth of the TP-37 and top-100 apps, plus the two example
    // specs whose stock leg finds a crash. Only those two run past the
    // explorer's serial prefix and start the pool; the rest check that
    // a search too small for it comes out the same.
    const std::vector<apps::AppSpec> corpus = sa::fullCorpus();
    std::vector<const apps::AppSpec *> sample;
    for (std::size_t i = 0; sample.size() < 14; i += 9)
        sample.push_back(&corpus.at(i));
    for (const apps::AppSpec &spec : corpus) {
        if (spec.name == "ExPhotoGallery" || spec.name == "ExGcTuning")
            sample.push_back(&spec);
    }
    ASSERT_EQ(sample.size(), 16u);

    std::size_t violating = 0;
    for (const apps::AppSpec *spec : sample) {
        const sa::AppVerdict verdict = sa::analyzeApp(*spec);
        for (const sa::HandlingModel handling :
             {sa::HandlingModel::Stock, sa::HandlingModel::RchDroid}) {
            const Scenario scenario = makeAppScenario(
                *spec, handling, verdict.cleanFor(handling));
            SCOPED_TRACE(sa::handlingModelName(handling));
            if (!expectSameAtOneAndFourWorkers(scenario, 8).violations.empty())
                ++violating;
        }
    }
    EXPECT_EQ(violating, 2u); // both example specs crash under stock
}

TEST(ParallelExplore, TruncatedSearchCountsTheSame)
{
    const Scenario *quickstart = findScenario("quickstart");
    ASSERT_NE(quickstart, nullptr);
    ExplorerOptions options = defaultOptions(*quickstart, 16);
    options.max_executions = 50;
    const ExplorerReport serial = exploreWithJobs(options, "1");
    const ExplorerReport pooled = exploreWithJobs(options, "4");
    EXPECT_TRUE(serial.stats.truncated);
    EXPECT_EQ(serial.stats.executions, 50u);
    expectSameReport(pooled, serial);
}

/** Threads that ran a replay's setup and have not exited yet. */
std::atomic<int> g_live_threads{0};

/** Count the calling thread in g_live_threads until it exits. */
void
enterThread()
{
    struct Census
    {
        Census() { ++g_live_threads; }
        ~Census() { --g_live_threads; }
    };
    thread_local Census census;
    (void)census;
}

/** The end state a final_check sees, as one comparable value. */
std::string
endState(sim::AndroidSystem &system)
{
    return std::to_string(stateFingerprint(system)) + "/" +
           std::to_string(system.scheduler().executedEvents());
}

TEST(ParallelExplore, ReplayExceptionReachesTheCallerAfterTheJoin)
{
    const Scenario *quickstart = findScenario("quickstart");
    ASSERT_NE(quickstart, nullptr);
    constexpr int kDepth = 12;

    // A serial pass (one thread, so the closure may append) lists every
    // execution's end state in DFS order; the plant is the end state
    // seen once, nearest the middle.
    std::vector<std::string> ends;
    Scenario listing = *quickstart;
    listing.final_check = [&ends](sim::AndroidSystem &system)
        -> std::optional<std::string> {
        ends.push_back(endState(system));
        return std::nullopt;
    };
    exploreWithJobs(defaultOptions(listing, kDepth), "1");
    std::map<std::string, int> seen;
    for (const std::string &end : ends)
        ++seen[end];
    std::string plant;
    for (std::size_t i = ends.size() / 2; i < ends.size(); ++i) {
        if (seen[ends[i]] == 1) {
            plant = ends[i];
            break;
        }
    }
    ASSERT_FALSE(plant.empty());

    Scenario planted = *quickstart;
    const auto setup = planted.setup;
    planted.setup = [setup](sim::AndroidSystem &system) {
        enterThread();
        setup(system);
    };
    planted.final_check = [plant](sim::AndroidSystem &system)
        -> std::optional<std::string> {
        if (endState(system) == plant)
            throw std::runtime_error("planted failure at " + plant);
        return std::nullopt;
    };
    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(jobs);
        try {
            exploreWithJobs(defaultOptions(planted, kDepth), jobs);
            ADD_FAILURE() << "the planted failure did not surface";
        } catch (const std::runtime_error &error) {
            EXPECT_EQ(std::string(error.what()), "planted failure at " + plant);
        }
        // Only this thread, which replayed the root, is still counted.
        EXPECT_EQ(g_live_threads.load(), 1);
    }
}

/**
 * Explore, then exit 0 when the process never started a thread (glibc
 * clears __libc_single_threaded at the first pthread_create) and 1
 * when it did. Runs in a fresh process: the threadsafe death-test style
 * re-executes the test binary.
 */
[[noreturn]] void
exploreAndExitSingleThreaded(const char *name, int depth, const char *jobs)
{
    const Scenario *scenario = findScenario(name);
    if (scenario == nullptr)
        std::_Exit(2);
    exploreWithJobs(defaultOptions(*scenario, depth), jobs);
    std::_Exit(__libc_single_threaded ? 0 : 1);
}

TEST(ParallelExploreDeathTest, NoThreadStartsWithoutReplaysAhead)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(exploreAndExitSingleThreaded("quickstart", 8, "1"),
                testing::ExitedWithCode(0), "");
    // Static persistent sets prune every sibling: nothing is queued.
    EXPECT_EXIT(exploreAndExitSingleThreaded("gc_tuning", 16, "4"),
                testing::ExitedWithCode(0), "");
    EXPECT_EXIT(exploreAndExitSingleThreaded("reduction_demo", 16, "4"),
                testing::ExitedWithCode(0), "");
    // The probe does see a pool that starts.
    EXPECT_EXIT(exploreAndExitSingleThreaded("quickstart", 8, "4"),
                testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace rchdroid::mc
