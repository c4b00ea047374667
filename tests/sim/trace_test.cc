/**
 * @file
 * TraceRecorder: per-kind counts, handling-episode extraction, and the
 * mirror of every event into an installed tracer.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "platform/tracing.h"
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

/**
 * The detail of the mirror test's `i`th event. Appended, not
 * `"literal" + std::to_string(i)`: GCC 12 reports a false -Wrestrict on
 * that concatenation in Release builds.
 */
std::string
detailOf(std::size_t i)
{
    std::string detail = "detail \"";
    detail += std::to_string(i);
    detail += '"';
    return detail;
}

TEST(TraceRecorder, CountsByKind)
{
    TraceRecorder trace;
    trace.record(event(1, kinds::kAppResumed));
    trace.record(event(2, kinds::kAppCrash));
    trace.record(event(3, kinds::kAppResumed));
    EXPECT_EQ(trace.countOfKind(kinds::kAppResumed), 2u);
    EXPECT_EQ(trace.countOfKind(kinds::kAppCrash), 1u);
    EXPECT_EQ(trace.countOfKind(kinds::kAtmsBack), 0u);
    EXPECT_TRUE(trace.sawCrash());
}

TEST(TraceRecorder, MirrorsEveryEventIntoTheInstalledTracer)
{
    trace::Tracer tracer;
    trace::ScopedTracer install(&tracer);
    TraceRecorder recorder;
    const TelemetryKind kinds_in_order[] = {
        kinds::kAppResumed, kinds::kAtmsConfigChange, kinds::kAppCrash,
        kinds::kAtmsActivityResumed, kinds::kAnalysisDataRace};
    for (std::size_t i = 0; i < std::size(kinds_in_order); ++i) {
        // The detail outlives only the call, as at every emit site.
        const std::string detail = detailOf(i);
        TelemetryEvent e = event(milliseconds(10 * (i + 1)),
                                 kinds_in_order[i]);
        e.detail = detail;
        recorder.record(e);
    }

    std::vector<const trace::TraceEvent *> instants;
    for (const trace::TraceEvent &each : tracer.events()) {
        if (each.phase == trace::Phase::kInstant)
            instants.push_back(&each);
    }
    ASSERT_EQ(instants.size(), std::size(kinds_in_order));
    for (std::size_t i = 0; i < instants.size(); ++i) {
        EXPECT_EQ(instants[i]->name, telemetryKindName(kinds_in_order[i]));
        EXPECT_EQ(instants[i]->arg, detailOf(i));
    }
    // The change's episode spans it to its resume, carrying its detail.
    ASSERT_EQ(tracer.events().size(), instants.size() + 2);
    const trace::TraceEvent *begin = nullptr;
    const trace::TraceEvent *end = nullptr;
    for (const trace::TraceEvent &each : tracer.events()) {
        if (each.phase == trace::Phase::kAsyncBegin)
            begin = &each;
        if (each.phase == trace::Phase::kAsyncEnd)
            end = &each;
    }
    ASSERT_NE(begin, nullptr);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(begin->arg, detailOf(1));
    EXPECT_EQ(begin->ts, milliseconds(20));
    EXPECT_EQ(end->ts, milliseconds(40));
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

} // namespace
} // namespace rchdroid::sim
