/**
 * @file
 * Fig. 14 reproduction — performance on the 59 RCHDroid-fixable top-100
 * apps.
 *
 * Paper anchors: (a) handling time 250.39 ms (RCHDroid) vs 420.58 ms
 * (Android-10), a 38.60% mean saving, and 44.96% vs RCHDroid-init;
 * (b) memory 173.85 MB vs 162.28 MB (+7.13%).
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

double
measureMemoryMb(RuntimeChangeMode mode, const apps::AppSpec &spec)
{
    sim::AndroidSystem system(optionsFor(mode));
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    auto &sampler = system.startMemorySampling(spec);
    system.wmSize(1080, 1920);
    system.waitHandlingComplete();
    system.runFor(seconds(5));
    system.wmSizeReset();
    system.waitHandlingComplete();
    system.runFor(seconds(5));
    sampler.stop();
    return sampler.meanMb();
}

int
run(int jobs)
{
    printHeader("Fig 14(a)", "handling time, 59 fixable top-100 apps");
    TablePrinter a({"App", "Android-10 (ms)", "RCHDroid (ms)",
                    "RCHDroid-init (ms)", "saving"});
    RunningStat a10_all, rch_all, init_all;
    SampleSet savings, savings_vs_init;
    const ParallelRunner runner(jobs);
    std::vector<apps::AppSpec> fixable;
    for (const auto &spec : apps::top100()) {
        if (spec.expect_issue_stock && spec.expect_fixed_by_rch)
            fixable.push_back(spec);
    }
    std::vector<HandlingCell> cells;
    for (const auto &spec : fixable) {
        cells.push_back({RuntimeChangeMode::Restart, spec});
        cells.push_back({RuntimeChangeMode::RchDroid, spec});
    }
    const auto results = measureHandlingMatrix(cells, runner);
    for (std::size_t i = 0; i < fixable.size(); ++i) {
        const auto &spec = fixable[i];
        const auto &stock = results[2 * i];
        const auto &rch = results[2 * i + 1];
        const double a10 = stock.handling_ms.mean();
        const double rchdroid = rch.handling_ms.mean();
        const double init = rch.init_ms.mean();
        a10_all.add(a10);
        rch_all.add(rchdroid);
        init_all.add(init);
        if (a10 > 0)
            savings.add((1.0 - rchdroid / a10) * 100.0);
        if (init > 0)
            savings_vs_init.add((1.0 - rchdroid / init) * 100.0);
        a.addRow({spec.name, formatDouble(a10, 1), formatDouble(rchdroid, 1),
                  formatDouble(init, 1),
                  formatDouble(a10 > 0 ? (1.0 - rchdroid / a10) * 100.0 : 0,
                               1) +
                      "%"});
    }
    a.print();
    std::printf("averages: Android-10 %.2f ms (paper 420.58, delta %s), "
                "RCHDroid %.2f ms (paper 250.39, delta %s)\n",
                a10_all.mean(), paperDelta(a10_all.mean(), 420.58).c_str(),
                rch_all.mean(), paperDelta(rch_all.mean(), 250.39).c_str());
    std::printf("mean saving vs Android-10: %.2f%% (paper 38.60%%); "
                "vs RCHDroid-init: %.2f%% (paper 44.96%%)\n",
                savings.mean(), savings_vs_init.mean());

    printHeader("Fig 14(b)", "memory usage, 59 fixable top-100 apps");
    TablePrinter b({"App", "Android-10 (MB)", "RCHDroid (MB)", "overhead"});
    RunningStat a10_mem, rch_mem;
    // Cell layout: 2i = Android-10, 2i+1 = RCHDroid for fixable[i].
    const auto memory = runner.map<double>(
        fixable.size() * 2, [&fixable](std::size_t i) {
            return measureMemoryMb(i % 2 ? RuntimeChangeMode::RchDroid
                                         : RuntimeChangeMode::Restart,
                                   fixable[i / 2]);
        });
    for (std::size_t i = 0; i < fixable.size(); ++i) {
        const auto &spec = fixable[i];
        const double a10 = memory[2 * i];
        const double rch = memory[2 * i + 1];
        a10_mem.add(a10);
        rch_mem.add(rch);
        b.addRow({spec.name, formatDouble(a10, 2), formatDouble(rch, 2),
                  formatDouble(a10 > 0 ? (rch / a10 - 1.0) * 100.0 : 0, 2) +
                      "%"});
    }
    b.print();
    std::printf("averages: Android-10 %.2f MB (paper 162.28, delta %s), "
                "RCHDroid %.2f MB (paper 173.85, delta %s)\n",
                a10_mem.mean(), paperDelta(a10_mem.mean(), 162.28).c_str(),
                rch_mem.mean(), paperDelta(rch_mem.mean(), 173.85).c_str());
    std::printf("mean overhead: %.2f%% (paper: 7.13%%)\n",
                a10_mem.mean() > 0
                    ? (rch_mem.mean() / a10_mem.mean() - 1.0) * 100.0
                    : 0.0);
    return 0;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsFlag(argc, argv);
    return rchdroid::bench::run(jobs);
}
