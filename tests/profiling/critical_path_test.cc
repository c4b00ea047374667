/**
 * @file
 * Critical-path extraction: the synthetic walk semantics (hand-built
 * event streams, no tracer needed) and the ISSUE acceptance criterion —
 * on the quickstart rotation workload every completed rch.episode is
 * reconstructed into a path whose segment latencies sum to within 1% of
 * the episode's async-span duration, live and after a JSON round-trip.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "profiling/critical_path.h"
#include "profiling/trace_reader.h"

// tracing.h supplies the RCHDROID_TRACING default (1 unless the
// no-tracing build overrides it), so it must come before the #if.
#include "platform/tracing.h"

#if RCHDROID_TRACING
#include "apps/corpus.h"
#include "platform/metrics.h"
#include "sim/android_system.h"
#endif

namespace rchdroid::profiling {
namespace {

ProfileEvent
event(char phase, std::uint32_t lane, SimTime ts, std::string name,
      std::string cat = "sim")
{
    ProfileEvent out;
    out.phase = phase;
    out.lane = lane;
    out.ts = ts;
    out.name = std::move(name);
    out.cat = std::move(cat);
    return out;
}

ProfileEvent
flowEvent(char phase, std::uint32_t lane, SimTime ts, std::uint64_t id,
          bool bind)
{
    ProfileEvent out = event(phase, lane, ts, "hop", "flow");
    out.id = id;
    out.bind_enclosing = bind;
    return out;
}

/** The episode-end 'e' must sit on the lane of the closing dispatch:
 *  its enclosing span is where the backwards walk starts. */
ProfileEvent
episodeEvent(char phase, SimTime ts, std::uint64_t id,
             std::string arg = {}, std::uint32_t lane = 0)
{
    ProfileEvent out = event(phase, lane, ts, "rotate", "episode");
    out.id = id;
    out.arg = std::move(arg);
    return out;
}

/** Every path's segments must tile [begin, end] chronologically. */
void
expectExactTiling(const CriticalPath &path)
{
    ASSERT_FALSE(path.segments.empty());
    EXPECT_EQ(path.segments.front().begin, path.begin);
    EXPECT_EQ(path.segments.back().end, path.end);
    for (std::size_t i = 0; i + 1 < path.segments.size(); ++i) {
        EXPECT_EQ(path.segments[i].end, path.segments[i + 1].begin)
            << "gap/overlap after segment " << i << " ("
            << path.segments[i].label << ")";
    }
    for (const Segment &segment : path.segments)
        EXPECT_LT(segment.begin, segment.end) << segment.label;
}

TEST(CriticalPath, SyntheticHandoffSplitsQueueWaitFromDispatch)
{
    // Producer dispatch [0,10] on main posts (flow 5, send ts 4) to a
    // worker whose dispatch [20,29] closes the episode: the path must
    // read dispatch [0,4] -> queue-wait [4,20] -> dispatch [20,29].
    ProfileInput input;
    input.lanes = {"main", "worker"};
    input.events.push_back(episodeEvent('b', 0, 1));
    input.events.push_back(event('B', 0, 0, "producer"));
    input.events.push_back(flowEvent('s', 0, 4, 5, false));
    input.events.push_back(event('E', 0, 10, "producer"));
    input.events.push_back(event('B', 1, 20, "consumer"));
    input.events.push_back(flowEvent('f', 1, 20, 5, true));
    input.events.push_back(episodeEvent('e', 29, 1, {}, /*lane=*/1));
    input.events.push_back(event('E', 1, 29, "consumer"));

    const auto paths = extractCriticalPaths(input);
    ASSERT_EQ(paths.size(), 1u);
    const CriticalPath &path = paths[0];
    EXPECT_EQ(path.begin, 0);
    EXPECT_EQ(path.end, 29);
    expectExactTiling(path);

    ASSERT_EQ(path.segments.size(), 3u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::kDispatch);
    EXPECT_EQ(path.segments[0].label, "producer@main");
    EXPECT_EQ(path.segments[0].end, 4);
    EXPECT_EQ(path.segments[1].kind, SegmentKind::kQueueWait);
    EXPECT_EQ(path.segments[1].label, "queue-wait@worker");
    EXPECT_EQ(path.segments[2].kind, SegmentKind::kDispatch);
    EXPECT_EQ(path.segments[2].label, "consumer@worker");
    EXPECT_NEAR(path.segmentSumMs(), path.totalMs(), 1e-9);
    ASSERT_NE(path.dominant(), nullptr);
    EXPECT_EQ(path.dominant()->kind, SegmentKind::kQueueWait);
}

TEST(CriticalPath, NestedSpansSubdivideTheDispatch)
{
    // A migration span nested in the closing dispatch gets its own
    // attribution; the residue keeps the dispatch's label.
    ProfileInput input;
    input.lanes = {"main"};
    input.events.push_back(episodeEvent('b', 0, 1));
    input.events.push_back(event('B', 0, 0, "handleRotate"));
    input.events.push_back(event('B', 0, 2, "rch.flipSync"));
    input.events.push_back(event('E', 0, 6, "rch.flipSync"));
    input.events.push_back(episodeEvent('e', 9, 1));
    input.events.push_back(event('E', 0, 9, "handleRotate"));

    const auto paths = extractCriticalPaths(input);
    ASSERT_EQ(paths.size(), 1u);
    expectExactTiling(paths[0]);
    ASSERT_EQ(paths[0].segments.size(), 3u);
    EXPECT_EQ(paths[0].segments[0].label, "handleRotate@main");
    EXPECT_EQ(paths[0].segments[1].kind, SegmentKind::kMigration);
    EXPECT_EQ(paths[0].segments[1].label, "rch.flipSync@main");
    EXPECT_EQ(paths[0].segments[2].label, "handleRotate@main");
}

TEST(CriticalPath, AbortedEpisodesAreSkipped)
{
    ProfileInput input;
    input.lanes = {"main"};
    input.events.push_back(episodeEvent('b', 0, 1));
    input.events.push_back(event('B', 0, 0, "handleRotate"));
    input.events.push_back(episodeEvent('e', 3, 1, "aborted"));
    input.events.push_back(event('E', 0, 5, "handleRotate"));
    // A second, completed episode with the *same* id (sequential
    // systems reuse ids; pairing is positional).
    input.events.push_back(episodeEvent('b', 10, 1));
    input.events.push_back(event('B', 0, 10, "handleRotate"));
    input.events.push_back(episodeEvent('e', 14, 1));
    input.events.push_back(event('E', 0, 14, "handleRotate"));

    const auto paths = extractCriticalPaths(input);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].begin, 10);
    EXPECT_EQ(paths[0].end, 14);
}

#if RCHDROID_TRACING

/** The quickstart rotation workload under a live tracer. */
std::unique_ptr<sim::AndroidSystem>
runRotationWorkload()
{
    sim::SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    auto system = std::make_unique<sim::AndroidSystem>(options);
    const auto spec = apps::makeBenchmarkApp(4);
    system->install(spec);
    system->launch(spec);
    system->applyUserState(spec);
    system->clickUpdateButton(spec);
    system->rotate();
    EXPECT_TRUE(system->waitHandlingComplete());
    system->runFor(seconds(6));
    system->rotate();
    EXPECT_TRUE(system->waitHandlingComplete());
    system->runFor(seconds(1));
    return system;
}

TEST(CriticalPath, RotationWorkloadReconstructsEveryEpisode)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry metrics_guard(&registry);
    trace::Tracer tracer;
    trace::ScopedTracer tracer_guard(&tracer);
    auto system = runRotationWorkload();

    const auto paths = extractCriticalPaths(fromTracer(tracer));

    // Both rotations completed (the dumpsys golden snapshot pins the
    // same count) and both reconstructed.
    ASSERT_EQ(paths.size(),
              registry.counter(metrics::Counter::kEpisodesCompleted));
    ASSERT_EQ(paths.size(), 2u);

    for (const CriticalPath &path : paths) {
        expectExactTiling(path);
        // The acceptance criterion: segment latencies sum to within 1%
        // of the episode's async-span duration.
        EXPECT_GT(path.totalMs(), 0.0);
        EXPECT_LE(std::abs(path.segmentSumMs() - path.totalMs()),
                  0.01 * path.totalMs());
        // A real rotation crosses threads: there is queue wait, and a
        // dominant segment exists.
        bool has_queue_wait = false;
        for (const Segment &segment : path.segments)
            has_queue_wait |= segment.kind == SegmentKind::kQueueWait;
        EXPECT_TRUE(has_queue_wait);
        ASSERT_NE(path.dominant(), nullptr);
    }

    const ProfileSummary summary = summarize(paths);
    EXPECT_EQ(summary.episodes, 2u);
    EXPECT_GT(summary.mean_total_ms, 0.0);
    EXPECT_FALSE(summary.segments.empty());
}

TEST(CriticalPath, JsonRoundTripYieldsIdenticalPaths)
{
    trace::Tracer tracer;
    trace::ScopedTracer tracer_guard(&tracer);
    auto system = runRotationWorkload();

    const auto live = extractCriticalPaths(fromTracer(tracer));
    const ReadResult reread = parseChromeTrace(tracer.toChromeJson());
    ASSERT_TRUE(reread.ok()) << reread.error;
    const auto decoded = extractCriticalPaths(reread.input);

    // The offline CLI must reconstruct exactly what the live analyzer
    // sees: same episodes, same segment boundaries to the nanosecond
    // (timestamps survive the µs-with-3-decimals serialisation).
    ASSERT_EQ(decoded.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(decoded[i].begin, live[i].begin);
        EXPECT_EQ(decoded[i].end, live[i].end);
        ASSERT_EQ(decoded[i].segments.size(), live[i].segments.size());
        for (std::size_t j = 0; j < live[i].segments.size(); ++j) {
            const Segment &a = live[i].segments[j];
            const Segment &b = decoded[i].segments[j];
            EXPECT_EQ(b.kind, a.kind);
            EXPECT_EQ(b.label, a.label);
            EXPECT_EQ(b.begin, a.begin);
            EXPECT_EQ(b.end, a.end);
        }
    }
}

#endif // RCHDROID_TRACING

TEST(CriticalPath, DeepNestingIsAParseErrorNotACrash)
{
    // One level past the limit fails at the offending bracket; a file of
    // 200k brackets used to recurse once per '[' off the end of the stack.
    const std::string too_deep(65, '[');
    EXPECT_EQ(parseChromeTrace(too_deep).error,
              "JSON parse error: nesting deeper than 64 at offset 64");
    EXPECT_EQ(parseChromeTrace(std::string(200'000, '[')).error,
              "JSON parse error: nesting deeper than 64 at offset 64");

    // Exactly at the limit still parses (and then fails on content).
    const std::string at_limit = std::string(63, '[') + "{}" +
                                 std::string(63, ']');
    EXPECT_EQ(parseChromeTrace(at_limit).error, "missing traceEvents array");
}

} // namespace
} // namespace rchdroid::profiling
