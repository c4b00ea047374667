/**
 * @file
 * Model-checker throughput benchmark across the whole scenario
 * catalogue and a fixed corpus sample.
 *
 * Every catalogue scenario is explored once with rchdroid_mc's defaults
 * (the scenario's MHP independence spec, analysis on, all oracles),
 * then every kCorpusStride-th app of sa::fullCorpus() in both handling
 * modes (makeAppScenario, expect_clean from sa::analyzeApp). Each row
 * reports executions/s and schedules/s, the deterministic exploration
 * counters and `allocations`, the operator new calls made during the
 * exploration (alloc_counter.h); corpus rows are keyed
 * "app:<Name>/<mode>". Results land in a JSON file (--out=PATH, default
 * BENCH_mc.json) that the CI perf-smoke job archives and compares
 * against bench/BENCH_mc.baseline.json via tools/compare_mc.py: the
 * counters gate hard, allocations may exceed the baseline by 2%, and
 * wall-clock numbers are advisory on shared runners. Allocations repeat
 * exactly only with RCHDROID_JOBS=1: worker threads each build their
 * own per-thread caches.
 */
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "mc/app_scenario.h"
#include "mc/explorer.h"
#include "mc/scenario.h"
#include "platform/strings.h"
#include "sa/sweep.h"

namespace {

using rchdroid::mc::ExplorerOptions;
using rchdroid::mc::ExplorerStats;
using rchdroid::mc::Scenario;

/** The corpus leg explores apps 0, kCorpusStride, 2 * kCorpusStride, ... */
constexpr std::size_t kCorpusStride = 11;

double
perSecond(std::uint64_t count, double wall_ms)
{
    return wall_ms > 0.0 ? static_cast<double>(count) / (wall_ms / 1000.0)
                         : 0.0;
}

unsigned long long
ull(std::uint64_t value)
{
    return static_cast<unsigned long long>(value);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_mc.json";
    int depth = 10;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(std::strlen("--out="));
        } else if (arg.rfind("--depth=", 0) == 0) {
            const rchdroid::Result<std::int64_t> parsed =
                rchdroid::parseInteger(arg.substr(std::strlen("--depth=")),
                                       1, INT_MAX, "--depth");
            if (!parsed) {
                std::fprintf(stderr, "%s\n",
                             parsed.status().message().c_str());
                return 2;
            }
            depth = static_cast<int>(parsed.value());
        } else {
            std::fprintf(stderr,
                         "usage: bench_mc [--out=PATH] [--depth=N]\n");
            return 2;
        }
    }

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
    }

    std::printf("\n=== bench_mc: model-checker throughput (depth %d) ===\n",
                depth);
    std::fprintf(out, "{\n  \"depth\": %d,\n  \"scenarios\": {\n", depth);

    double total_ms = 0.0;
    std::uint64_t total_executions = 0;
    std::uint64_t total_schedules = 0;
    bool first_row = true;
    const auto run = [&](const std::string &name, const Scenario &scenario) {
        ExplorerOptions options;
        options.scenario = &scenario;
        options.max_depth = depth;
        if (!scenario.independence.empty())
            options.independence = &scenario.independence;
        const std::uint64_t allocations_before =
            rchdroid::bench::allocationCount();
        const auto start = std::chrono::steady_clock::now();
        const rchdroid::mc::ExplorerReport report = explore(options);
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        const std::uint64_t allocations =
            rchdroid::bench::allocationCount() - allocations_before;
        const ExplorerStats &stats = report.stats;
        total_ms += wall_ms;
        total_executions += stats.executions;
        total_schedules += stats.schedules_covered;

        std::printf("%-16s schedules %llu  exec %llu  replayed %llu  "
                    "violations %zu  allocs %llu  wall %.1f ms  "
                    "%.0f exec/s\n",
                    name.c_str(), ull(stats.schedules_covered),
                    ull(stats.executions), ull(stats.events_replayed),
                    report.violations.size(), ull(allocations), wall_ms,
                    perSecond(stats.executions, wall_ms));
        std::fprintf(
            out,
            "%s  \"%s\": {\"schedules_covered\": %llu, \"executions\": %llu, "
            "\"choice_points\": %llu, \"distinct_states\": %llu, "
            "\"visited_hits\": %llu, \"sleep_skips\": %llu, "
            "\"mhp_prunes\": %llu, \"mhp_sleep_keeps\": %llu, "
            "\"events_replayed\": %llu, \"truncated\": %s, "
            "\"violations\": %zu, \"allocations\": %llu, "
            "\"wall_ms\": %.3f, \"executions_per_sec\": %.1f, "
            "\"schedules_per_sec\": %.1f}",
            first_row ? "" : ",\n", name.c_str(),
            ull(stats.schedules_covered), ull(stats.executions),
            ull(stats.nodes), ull(stats.distinct_states),
            ull(stats.visited_hits), ull(stats.sleep_skips),
            ull(stats.mhp_prunes), ull(stats.mhp_sleep_keeps),
            ull(stats.events_replayed), stats.truncated ? "true" : "false",
            report.violations.size(), ull(allocations), wall_ms,
            perSecond(stats.executions, wall_ms),
            perSecond(stats.schedules_covered, wall_ms));
        first_row = false;
    };

    for (const Scenario &scenario : rchdroid::mc::scenarioCatalog())
        run(scenario.name, scenario);

    // makeAppScenario names both modes "app:<Name>", so the row key
    // carries the mode.
    const std::vector<rchdroid::apps::AppSpec> corpus =
        rchdroid::sa::fullCorpus();
    for (std::size_t app = 0; app < corpus.size(); app += kCorpusStride) {
        const rchdroid::sa::AppVerdict verdict =
            rchdroid::sa::analyzeApp(corpus[app]);
        for (const rchdroid::sa::HandlingModel handling :
             {rchdroid::sa::HandlingModel::Stock,
              rchdroid::sa::HandlingModel::RchDroid}) {
            const Scenario scenario = rchdroid::mc::makeAppScenario(
                corpus[app], handling, verdict.cleanFor(handling));
            run(scenario.name + "/" +
                    rchdroid::sa::handlingModelName(handling),
                scenario);
        }
    }

    std::fprintf(out,
                 "\n  },\n  \"totals\": {\"executions\": %llu, "
                 "\"schedules_covered\": %llu, \"wall_ms\": %.3f, "
                 "\"executions_per_sec\": %.1f, "
                 "\"schedules_per_sec\": %.1f}\n}\n",
                 ull(total_executions), ull(total_schedules), total_ms,
                 perSecond(total_executions, total_ms),
                 perSecond(total_schedules, total_ms));
    std::fclose(out);

    std::printf("totals: %llu executions, %llu schedules in %.1f ms "
                "(%.0f exec/s)\n",
                ull(total_executions), ull(total_schedules), total_ms,
                perSecond(total_executions, total_ms));
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
