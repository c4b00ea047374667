/**
 * @file
 * dumpsys + metricsJson over a scripted rotation workload: the golden
 * snapshot the ISSUE's acceptance check reads — non-zero coin-flip and
 * lazy-migration counters on a steady-state RCHDroid run.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/corpus.h"
#include "platform/metrics.h"
#include "platform/tracing.h"
#include "sim/android_system.h"
#include "sim/dumpsys.h"

namespace rchdroid::sim {
namespace {

/**
 * The scripted workload: launch the 4-view benchmark app under RCHDroid,
 * start an async update, rotate (sunny create; async later lands in the
 * shadow and migrates), then rotate again (coin-flip back to the shadow).
 */
std::unique_ptr<AndroidSystem>
runRotationWorkload()
{
    SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    auto system = std::make_unique<AndroidSystem>(options);
    const auto spec = apps::makeBenchmarkApp(4);
    system->install(spec);
    system->launch(spec);
    system->applyUserState(spec);
    system->clickUpdateButton(spec);
    system->rotate();
    EXPECT_TRUE(system->waitHandlingComplete());
    system->runFor(seconds(6)); // async (5 s) lands in the shadow
    system->rotate();
    EXPECT_TRUE(system->waitHandlingComplete());
    system->runFor(seconds(1));
    return system;
}

TEST(Dumpsys, GoldenRotationSnapshot)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry guard(&registry);
    auto system = runRotationWorkload();

    const std::string dump = dumpsys(*system, &registry);

    // Section skeleton.
    EXPECT_NE(dump.find("== dumpsys =="), std::string::npos);
    EXPECT_NE(dump.find("mode: RCHDroid"), std::string::npos);
    EXPECT_NE(dump.find("ACTIVITY MANAGER"), std::string::npos);
    EXPECT_NE(dump.find("PROCESSES:"), std::string::npos);
    EXPECT_NE(dump.find("HANDLING EPISODES: 2"), std::string::npos);
    EXPECT_NE(dump.find("METRICS:"), std::string::npos);

    // The second rotation coin-flipped back into the shadow, so the
    // record display shows one shadow + one resumed sunny instance.
    EXPECT_NE(dump.find("SHADOW age="), std::string::npos);
    EXPECT_NE(dump.find("state=Resumed"), std::string::npos);
    EXPECT_NE(dump.find("sunny_creates=1"), std::string::npos);
    EXPECT_NE(dump.find("coin_flips=1"), std::string::npos);

    // RCH per-process counters mirror the handler stats.
    EXPECT_NE(dump.find("rch: runtime_changes=2"), std::string::npos);
    EXPECT_NE(dump.find("views_migrated=4"), std::string::npos);

    // The acceptance criterion: non-zero coin-flip and lazy-migration
    // counters in the registry after a steady-state workload.
    EXPECT_EQ(registry.counter(metrics::Counter::kCoinFlipHit), 1u);
    EXPECT_EQ(registry.counter(metrics::Counter::kCoinFlipMiss), 1u);
    EXPECT_EQ(registry.counter(metrics::Counter::kViewsMigrated), 4u);
    EXPECT_EQ(registry.labeled(metrics::Counter::kViewsMigrated,
                               "ImageView"),
              4u);
    EXPECT_EQ(registry.counter(metrics::Counter::kMigrateBatches), 1u);
    EXPECT_EQ(registry.counter(metrics::Counter::kEpisodesCompleted), 2u);
    EXPECT_EQ(registry.counter(metrics::Counter::kEpisodesAborted), 0u);
    EXPECT_GT(registry.counter(metrics::Counter::kMessagesDispatched), 0u);
    EXPECT_EQ(registry.histogram(metrics::Histogram::kHandlingMs).count(),
              2u);

    // And the golden text lines the counters render to.
    EXPECT_NE(dump.find("coin_flip_hit"), std::string::npos);
    EXPECT_NE(dump.find("views_migrated/ImageView"), std::string::npos);
    EXPECT_NE(dump.find("handling_ms"), std::string::npos);

    // Gauges were sampled from the live system: the shadow + sunny
    // instances are both alive.
    EXPECT_DOUBLE_EQ(registry.gauge(metrics::Gauge::kLiveActivities), 2.0);
    EXPECT_GT(registry.gauge(metrics::Gauge::kHeapBytes), 0.0);
}

TEST(Dumpsys, GoldenEpisodeTableUnderATracer)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry metrics_guard(&registry);
    trace::Tracer tracer;
    trace::ScopedTracer tracer_guard(&tracer);
    auto system = runRotationWorkload();

    const std::string dump = dumpsys(*system, &registry);

    // The per-episode table: id, trigger time, total ms, dominant
    // segment. Virtual-time numbers are deterministic, so the lines are
    // pinned verbatim — episode #0 is launch-dominated (sunny create),
    // episode #1 flip-dominated (coin-flip back into the shadow).
    EXPECT_NE(dump.find("  id  trigger_ms  total_ms  dominant"),
              std::string::npos);
    EXPECT_NE(dump.find("  #0  151.678  157.078  "
                        "app.performLaunch@com.eval.Benchmark4.main"),
              std::string::npos);
    EXPECT_NE(dump.find("  #1  6308.756  89.676  "
                        "rch.flipSync@com.eval.Benchmark4.main"),
              std::string::npos);

    // And the cross-episode segment means.
    EXPECT_NE(dump.find("PROFILE (critical-path segment means, "
                        "2 episode(s), mean total 123.377 ms):"),
              std::string::npos);
    EXPECT_NE(dump.find("ms  47.7%  launch  "
                        "app.performLaunch@com.eval.Benchmark4.main"),
              std::string::npos);
    EXPECT_NE(dump.find("queue-wait  queue-wait@system_server.atms"),
              std::string::npos);
    EXPECT_NE(dump.find("migration  "
                        "rch.flipSync@com.eval.Benchmark4.main"),
              std::string::npos);

    // The JSON twin carries the same summary under "profile".
    const std::string json = metricsJson(*system, &registry);
    EXPECT_NE(json.find("\"profile\": {"), std::string::npos);
    EXPECT_NE(json.find("\"episodes\": 2"), std::string::npos);
    EXPECT_NE(json.find(
                  "\"app.performLaunch@com.eval.Benchmark4.main\""),
              std::string::npos);
}

TEST(Dumpsys, EpisodeTableWithoutATracerShowsNoDominant)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry guard(&registry);
    auto system = runRotationWorkload();

    // No tracer installed: the table renders but dominant segments and
    // the PROFILE section need flow events that were never recorded.
    const std::string dump = dumpsys(*system, &registry);
    EXPECT_NE(dump.find("  id  trigger_ms  total_ms  dominant"),
              std::string::npos);
    EXPECT_EQ(dump.find("PROFILE ("), std::string::npos);
    EXPECT_EQ(metricsJson(*system, &registry).find("\"profile\""),
              std::string::npos);
}

TEST(Dumpsys, MetricsJsonTwinCarriesTheSameCounters)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry guard(&registry);
    auto system = runRotationWorkload();

    const std::string json = metricsJson(*system, &registry);
    EXPECT_NE(json.find("\"rchdroid_metrics/1\""), std::string::npos);
    EXPECT_NE(json.find("\"coin_flip_hit\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"views_migrated/ImageView\": 4"),
              std::string::npos);
}

TEST(Dumpsys, WorksWithoutARegistry)
{
    SystemOptions options;
    options.mode = RuntimeChangeMode::Restart;
    AndroidSystem system(options);
    const auto spec = apps::makeBenchmarkApp(2);
    system.install(spec);
    system.launch(spec);

    const std::string dump = dumpsys(system, nullptr);
    EXPECT_NE(dump.find("mode: Android-10"), std::string::npos);
    EXPECT_NE(dump.find("METRICS: (no registry installed)"),
              std::string::npos);
    EXPECT_EQ(metricsJson(system, nullptr), "{}\n");
}

} // namespace
} // namespace rchdroid::sim
