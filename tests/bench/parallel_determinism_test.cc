/**
 * @file
 * The parallel experiment runner's two contracts: every index runs
 * exactly once with results in index order, and a handling matrix fanned
 * across N threads aggregates bit-identically to the serial sweep.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "parallel_runner.h"

namespace rchdroid::bench {
namespace {

TEST(ParallelRunner, MapReturnsResultsInIndexOrder)
{
    const ParallelRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4);
    const auto out = runner.map<int>(
        100, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ParallelRunner, EveryIndexRunsExactlyOnce)
{
    const ParallelRunner runner(8);
    std::vector<std::atomic<int>> hits(257);
    runner.forEach(hits.size(), [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelRunner, JobsOneRunsInline)
{
    const ParallelRunner runner(1);
    const auto self = std::this_thread::get_id();
    runner.forEach(4, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

TEST(ParseJobsFlag, ExtractsAndStripsTheFlag)
{
    char prog[] = "bench";
    char jobs_eq[] = "--jobs=6";
    char other[] = "--out=x.json";
    char *argv[] = {prog, jobs_eq, other, nullptr};
    int argc = 3;
    EXPECT_EQ(parseJobsFlag(argc, argv), 6);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--out=x.json");

    char jobs_flag[] = "--jobs";
    char jobs_value[] = "3";
    char *argv2[] = {prog, jobs_flag, jobs_value, nullptr};
    int argc2 = 3;
    EXPECT_EQ(parseJobsFlag(argc2, argv2), 3);
    EXPECT_EQ(argc2, 1);

    char *argv3[] = {prog, other, nullptr};
    int argc3 = 2;
    EXPECT_EQ(parseJobsFlag(argc3, argv3), defaultJobs());
    EXPECT_EQ(argc3, 2);
}

bool
statsIdentical(const RunningStat &a, const RunningStat &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.variance() == b.variance() && a.min() == b.min() &&
           a.max() == b.max();
}

TEST(ParallelDeterminism, MatrixIsBitIdenticalAcrossJobCounts)
{
    std::vector<HandlingCell> cells;
    for (int n : {2, 4, 8}) {
        const auto spec = apps::makeBenchmarkApp(n);
        for (int run = 0; run < 3; ++run) {
            cells.push_back({RuntimeChangeMode::Restart, spec,
                             /*steady_changes=*/2});
            cells.push_back({RuntimeChangeMode::RchDroid, spec,
                             /*steady_changes=*/2});
        }
    }
    const auto serial = measureHandlingMatrix(cells, ParallelRunner(1));
    for (int jobs : {2, 4, 7}) {
        const auto fanned = measureHandlingMatrix(cells, ParallelRunner(jobs));
        ASSERT_EQ(fanned.size(), serial.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_TRUE(
                statsIdentical(serial[i].handling_ms, fanned[i].handling_ms))
                << "jobs=" << jobs << " cell=" << i;
            EXPECT_TRUE(statsIdentical(serial[i].init_ms, fanned[i].init_ms))
                << "jobs=" << jobs << " cell=" << i;
            EXPECT_EQ(serial[i].crashed, fanned[i].crashed)
                << "jobs=" << jobs << " cell=" << i;
        }
    }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree)
{
    // The same matrix twice at the same jobs count: no run-to-run drift
    // from work stealing, thread timing, or slab reuse.
    const std::vector<HandlingCell> cells(
        4, {RuntimeChangeMode::RchDroid, apps::makeBenchmarkApp(4),
            /*steady_changes=*/2});
    const ParallelRunner runner(4);
    const auto first = measureHandlingMatrix(cells, runner);
    const auto second = measureHandlingMatrix(cells, runner);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(
            statsIdentical(first[i].handling_ms, second[i].handling_ms));
        EXPECT_TRUE(statsIdentical(first[i].init_ms, second[i].init_ms));
    }
}

} // namespace
} // namespace rchdroid::bench
