/**
 * @file
 * Fig. 8 reproduction — memory usage of the 27 TP-37 apps.
 *
 * Paper anchors: 53.53 MB on RCHDroid vs 47.56 MB on Android-10 (1.12×):
 * the retained shadow instance (its view tree, drawables, private heap
 * and snapshot bundle) is the overhead, bounded by the threshold GC.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

/** Mean app heap while handling runtime changes (two changes, then a
 *  dwell with the shadow instance alive under RCHDroid). */
double
measureMemoryMb(RuntimeChangeMode mode, const apps::AppSpec &spec)
{
    sim::AndroidSystem system(optionsFor(mode));
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    auto &sampler = system.startMemorySampling(spec);
    system.rotate();
    system.waitHandlingComplete();
    system.runFor(seconds(5));
    system.rotate();
    system.waitHandlingComplete();
    system.runFor(seconds(5));
    sampler.stop();
    return sampler.meanMb();
}

int
run(int jobs)
{
    printHeader("Fig 8", "memory usage per app, 27 TP-37 apps");
    TablePrinter table(
        {"App", "Android-10 (MB)", "RCHDroid (MB)", "overhead"});
    RunningStat a10_all, rch_all;
    const ParallelRunner runner(jobs);
    const auto specs = apps::tp37();
    // Cell layout: 2i = Android-10, 2i+1 = RCHDroid for specs[i].
    const auto memory = runner.map<double>(
        specs.size() * 2, [&specs](std::size_t i) {
            return measureMemoryMb(i % 2 ? RuntimeChangeMode::RchDroid
                                         : RuntimeChangeMode::Restart,
                                   specs[i / 2]);
        });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        const double a10 = memory[2 * i];
        const double rch = memory[2 * i + 1];
        a10_all.add(a10);
        rch_all.add(rch);
        table.addRow({spec.name, formatDouble(a10, 2), formatDouble(rch, 2),
                      formatDouble(a10 > 0 ? rch / a10 : 0.0, 2) + "x"});
    }
    table.print();
    std::printf("averages: Android-10 %.2f MB (paper 47.56, delta %s), "
                "RCHDroid %.2f MB (paper 53.53, delta %s)\n",
                a10_all.mean(), paperDelta(a10_all.mean(), 47.56).c_str(),
                rch_all.mean(), paperDelta(rch_all.mean(), 53.53).c_str());
    std::printf("ratio: %.2fx (paper: 1.12x)\n",
                a10_all.mean() > 0 ? rch_all.mean() / a10_all.mean() : 0.0);
    return 0;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsOnly(argc, argv);
    return rchdroid::bench::run(jobs);
}
