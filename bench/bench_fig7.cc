/**
 * @file
 * Fig. 7 reproduction — runtime-change handling time for the 27 TP-37
 * apps, RCHDroid vs Android-10.
 *
 * The abstract's headline result is derived here: RCHDroid saves
 * 25.46% of the handling time on average across the first app set.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

int
run(int jobs)
{
    printHeader("Fig 7", "handling time per app, 27 TP-37 apps");
    TablePrinter table({"App", "Android-10 (ms)", "RCHDroid (ms)",
                        "RCHDroid-init (ms)", "saving"});
    SampleSet savings;
    RunningStat a10_total, rch_total;
    const ParallelRunner runner(jobs);
    const auto specs = apps::tp37();
    std::vector<HandlingCell> cells;
    for (const auto &spec : specs) {
        cells.push_back({RuntimeChangeMode::Restart, spec});
        cells.push_back({RuntimeChangeMode::RchDroid, spec});
    }
    const auto results = measureHandlingMatrix(cells, runner);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        const auto &stock = results[2 * i];
        const auto &rch = results[2 * i + 1];
        const double a10 = stock.handling_ms.mean();
        const double rchdroid = rch.handling_ms.mean();
        const double saving = a10 > 0 ? (1.0 - rchdroid / a10) * 100.0 : 0.0;
        savings.add(saving);
        a10_total.add(a10);
        rch_total.add(rchdroid);
        table.addRow({spec.name, formatDouble(a10, 1),
                      formatDouble(rchdroid, 1),
                      formatDouble(rch.init_ms.mean(), 1),
                      formatDouble(saving, 1) + "%"});
    }
    table.print();
    std::printf("averages: Android-10 %.1f ms, RCHDroid %.1f ms\n",
                a10_total.mean(), rch_total.mean());
    std::printf("mean per-app saving: %.2f%% (paper: 25.46%%, delta %s)\n",
                savings.mean(), paperDelta(savings.mean(), 25.46).c_str());
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
