/**
 * @file
 * Fig. 11 reproduction — the GC trade-off.
 *
 * Paper setup (§5.5): the 32-ImageView benchmark app runs for ten
 * minutes with six runtime changes per minute and THRESH_F = 4/min;
 * THRESH_T sweeps. As THRESH_T grows, handling time and CPU overhead
 * fall (more coin flips, fewer re-creations) while memory rises (the
 * shadow instance stays resident longer); all three flatten at
 * THRESH_T = 50 s, the paper's chosen operating point.
 *
 * Change arrivals are exponential with a 10 s mean (six per minute on
 * average, as a user would produce them), seeded for reproducibility —
 * long gaps are what give the GC an opportunity to collect.
 */
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "platform/rng.h"

namespace rchdroid::bench {
namespace {

struct SweepPoint
{
    double handling_ms = 0.0;
    double cpu_percent = 0.0;
    double memory_mb = 0.0;
    std::uint64_t collections = 0;
    std::uint64_t flips = 0;
    std::uint64_t inits = 0;
};

SweepPoint
runPoint(SimDuration thresh_t)
{
    sim::SystemOptions options = optionsFor(RuntimeChangeMode::RchDroid);
    options.rch.thresh_t = thresh_t;
    options.rch.thresh_f = 4;
    options.rch.frequency_window = seconds(60);
    options.rch.gc_interval = seconds(1);
    sim::AndroidSystem system(options);

    const auto spec = apps::makeBenchmarkApp(32);
    system.install(spec);
    system.launch(spec);
    auto &sampler = system.startMemorySampling(spec);

    // Ten minutes, exponential inter-change gaps with a 10 s mean.
    Rng rng(0xf16c11);
    const SimTime start = system.scheduler().now();
    const SimTime end = start + minutes(10);
    SimTime next = start;
    int changes = 0;
    while (true) {
        double u = rng.nextDouble();
        if (u < 1e-12)
            u = 1e-12;
        next += static_cast<SimDuration>(-10.0e9 * std::log(1.0 - u));
        if (next >= end)
            break;
        system.scheduler().runUntil(next);
        system.rotate();
        system.waitHandlingComplete();
        ++changes;
    }
    system.scheduler().runUntil(end);
    sampler.stop();

    SweepPoint point;
    SampleSet handling;
    for (const auto &episode : system.trace().handlingEpisodes()) {
        if (episode.completed())
            handling.add(episode.durationMs());
    }
    point.handling_ms = handling.mean();
    point.cpu_percent =
        system.cpuTracker().utilization(start, end, /*cores=*/6) * 100.0;
    point.memory_mb = sampler.meanMb();
    const auto &stats = system.installed(spec).handler->stats();
    point.collections = stats.gc_collections;
    point.flips = stats.flips;
    point.inits = stats.init_launches;
    (void)changes;
    return point;
}

int
run(int jobs)
{
    printHeader("Fig 11", "GC trade-off vs THRESH_T (THRESH_F = 4/min)");
    TablePrinter table({"THRESH_T (s)", "handling (ms)", "CPU (%)",
                        "memory (MB)", "GC collections", "flips", "inits"});
    const ParallelRunner runner(jobs);
    const std::vector<int> thresholds = {10, 20, 30, 40, 50, 60, 70};
    const auto points = runner.map<SweepPoint>(
        thresholds.size(), [&thresholds](std::size_t i) {
            return runPoint(seconds(thresholds[i]));
        });
    std::vector<double> handling;
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        const int t = thresholds[i];
        const auto &point = points[i];
        handling.push_back(point.handling_ms);
        table.addRow({std::to_string(t), formatDouble(point.handling_ms, 1),
                      formatDouble(point.cpu_percent, 3),
                      formatDouble(point.memory_mb, 2),
                      std::to_string(point.collections),
                      std::to_string(point.flips),
                      std::to_string(point.inits)});
    }
    table.print();
    // Shape checks: decreasing towards 50, then flat (±2 ms).
    const bool decreasing = handling.front() > handling[4] + 1.0;
    const bool plateau = std::abs(handling[4] - handling[5]) < 2.0 &&
                         std::abs(handling[5] - handling[6]) < 2.0;
    std::printf("shape: handling decreases to THRESH_T=50 (%s) and "
                "plateaus beyond (%s); paper picks THRESH_T = 50 s\n",
                decreasing ? "yes" : "NO", plateau ? "yes" : "NO");
    return decreasing && plateau ? 0 : 1;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsOnly(argc, argv);
    return rchdroid::bench::run(jobs);
}
