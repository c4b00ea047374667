/**
 * @file
 * TraceRecorder: event bookkeeping and handling-episode extraction.
 */
#include <gtest/gtest.h>

#include <fstream>

#include "sim/trace.h"

namespace rchdroid::sim {
namespace {

TelemetryEvent
event(SimTime t, TelemetryKind kind)
{
    TelemetryEvent e;
    e.time = t;
    e.kind = kind;
    return e;
}

TEST(TraceRecorder, StoresAndQueriesByKind)
{
    TraceRecorder trace;
    trace.record(event(1, kinds::kAppResumed));
    trace.record(event(2, kinds::kAppCrash));
    trace.record(event(3, kinds::kAppResumed));
    EXPECT_EQ(trace.events().size(), 3u);
    EXPECT_EQ(trace.countOfKind(kinds::kAppResumed), 2u);
    EXPECT_EQ(trace.eventsOfKind(kinds::kAppCrash).size(), 1u);
    ASSERT_TRUE(trace.lastOfKind(kinds::kAppResumed).has_value());
    EXPECT_EQ(trace.lastOfKind(kinds::kAppResumed)->time, 3);
    EXPECT_FALSE(trace.lastOfKind(kinds::kAtmsBack).has_value());
}

TEST(TraceRecorder, PairsEpisodes)
{
    TraceRecorder trace;
    trace.record(event(milliseconds(10), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(150), kinds::kAtmsActivityResumed));
    trace.record(event(milliseconds(500), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(590), kinds::kAtmsActivityResumed));

    const auto episodes = trace.handlingEpisodes();
    ASSERT_EQ(episodes.size(), 2u);
    EXPECT_DOUBLE_EQ(episodes[0].durationMs(), 140.0);
    EXPECT_DOUBLE_EQ(episodes[1].durationMs(), 90.0);
    EXPECT_DOUBLE_EQ(trace.lastHandlingMs(), 90.0);
}

TEST(TraceRecorder, BackToBackChangesAbortTheOvertakenEpisode)
{
    // Regression: a second configChange arriving before the first
    // episode's resume used to leave the first episode open, so the
    // eventual resume closed it with a wildly inflated duration while
    // the real (second) episode never completed.
    TraceRecorder trace;
    trace.record(event(milliseconds(10), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(40), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(130), kinds::kAtmsActivityResumed));

    const auto episodes = trace.handlingEpisodes();
    ASSERT_EQ(episodes.size(), 2u);
    EXPECT_TRUE(episodes[0].aborted);
    EXPECT_FALSE(episodes[0].completed());
    EXPECT_DOUBLE_EQ(episodes[0].durationMs(), -1.0);
    EXPECT_FALSE(episodes[1].aborted);
    ASSERT_TRUE(episodes[1].completed());
    // The resume pairs with the *second* change: 130 - 40, not 130 - 10.
    EXPECT_DOUBLE_EQ(episodes[1].durationMs(), 90.0);
    EXPECT_DOUBLE_EQ(trace.lastHandlingMs(), 90.0);
}

TEST(TraceRecorder, AbortedEpisodeDoesNotResumeTwice)
{
    TraceRecorder trace;
    trace.record(event(milliseconds(0), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(30), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(90), kinds::kAtmsActivityResumed));
    // The launch's resume:
    trace.record(event(milliseconds(95), kinds::kAtmsActivityResumed));
    const auto episodes = trace.handlingEpisodes();
    ASSERT_EQ(episodes.size(), 2u);
    // The stray resume must not reopen or re-close the aborted episode.
    EXPECT_TRUE(episodes[0].aborted);
    EXPECT_FALSE(episodes[0].completed());
    EXPECT_DOUBLE_EQ(episodes[1].durationMs(), 60.0);
}

TEST(TraceRecorder, CrashLeavesEpisodeOpen)
{
    TraceRecorder trace;
    trace.record(event(milliseconds(10), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(20), kinds::kAppCrash));
    const auto episodes = trace.handlingEpisodes();
    ASSERT_EQ(episodes.size(), 1u);
    EXPECT_FALSE(episodes[0].completed());
    EXPECT_DOUBLE_EQ(episodes[0].durationMs(), -1.0);
    EXPECT_DOUBLE_EQ(trace.lastHandlingMs(), -1.0);
    EXPECT_TRUE(trace.sawCrash());
}

TEST(TraceRecorder, ResumeWithoutChangeIgnoredByEpisodes)
{
    TraceRecorder trace;
    trace.record(event(1, kinds::kAtmsActivityResumed)); // app launch
    trace.record(event(milliseconds(10), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(60), kinds::kAtmsActivityResumed));
    const auto episodes = trace.handlingEpisodes();
    ASSERT_EQ(episodes.size(), 1u);
    EXPECT_DOUBLE_EQ(episodes[0].durationMs(), 50.0);
}

TEST(TraceRecorder, LastHandlingSkipsTrailingOpenEpisode)
{
    TraceRecorder trace;
    trace.record(event(milliseconds(0), kinds::kAtmsConfigChange));
    trace.record(event(milliseconds(70), kinds::kAtmsActivityResumed));
    // Still in flight:
    trace.record(event(milliseconds(100), kinds::kAtmsConfigChange));
    EXPECT_DOUBLE_EQ(trace.lastHandlingMs(), 70.0);
}

TEST(TraceRecorder, CsvExport)
{
    TraceRecorder trace;
    TelemetryEvent e;
    e.time = milliseconds(12) + microseconds(500);
    e.kind = kinds::kAtmsConfigChange;
    e.detail = "land \"quoted\"";
    e.value = 7;
    trace.record(e);
    const std::string csv = trace.toCsv();
    EXPECT_NE(csv.find("time_ms,kind,detail,value\n"), std::string::npos);
    EXPECT_NE(csv.find("12.500,atms.configChange,\"land \"\"quoted\"\"\","
                       "7.000"),
              std::string::npos);
}

TEST(TraceRecorder, CsvWriteToFile)
{
    TraceRecorder trace;
    trace.record(
        TelemetryEvent{milliseconds(1), kinds::kAppResumed, "d", 0});
    const std::string path = ::testing::TempDir() + "/trace_test.csv";
    ASSERT_TRUE(trace.writeCsv(path));
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "time_ms,kind,detail,value");
    EXPECT_FALSE(trace.writeCsv("/nonexistent-dir/x/y.csv"));
}

TEST(TraceRecorder, ClearResets)
{
    TraceRecorder trace;
    trace.record(event(1, kinds::kAppResumed));
    trace.clear();
    EXPECT_TRUE(trace.events().empty());
    EXPECT_EQ(trace.countOfKind(kinds::kAppResumed), 0u);
}

} // namespace
} // namespace rchdroid::sim
