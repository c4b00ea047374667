/**
 * @file
 * Fig. 10 reproduction — scalability of RCHDroid.
 *
 * (a) Runtime-change handling time vs number of ImageViews for
 *     Android-10 (restart), RCHDroid (steady-state coin flip), and
 *     RCHDroid-init (first change: create sunny instance + build the
 *     essence mapping). Paper anchors: RCHDroid flat at 89.2 ms,
 *     Android-10 at 141.8 ms, RCHDroid-init 154.6 → 180.2 ms.
 *
 * (b) Asynchronous view-tree migration time vs number of ImageViews:
 *     8.6 → 20.2 ms, linear (the Android-10 column shows its handling
 *     time, as in the paper, since stock Android has no migration).
 */
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

/**
 * Measure the asynchronous migration time for a benchmark app with n
 * images: time from the async result landing on the UI thread to the
 * migrated updates being complete — the busy window of the
 * onPostExecute dispatch (the app's own UI cost is zero in this app).
 */
double
measureMigrationMs(int n_views)
{
    sim::AndroidSystem system(optionsFor(RuntimeChangeMode::RchDroid));
    const auto spec = apps::makeBenchmarkApp(n_views, seconds(5));
    system.install(spec);
    system.launch(spec);

    system.clickUpdateButton(spec);
    system.rotate();
    if (!system.waitHandlingComplete())
        return -1.0;
    system.runFor(seconds(6));

    const auto intervals = system.cpuTracker().intervalsTagged("onPostExecute");
    if (intervals.empty())
        return -1.0;
    return toMillisF(intervals.back().duration());
}

int
run(int jobs)
{
    const std::vector<int> view_counts = {1, 2, 4, 8, 16, 32};
    const ParallelRunner runner(jobs);

    printHeader("Fig 10(a)", "runtime change handling time vs #views");
    TablePrinter a({"views", "Android-10 (ms)", "RCHDroid (ms)",
                    "RCHDroid-init (ms)"});
    SampleSet a10_all, rch_all;
    double init_first = 0.0, init_last = 0.0;
    std::vector<HandlingCell> cells;
    for (int n : view_counts) {
        const auto spec = apps::makeBenchmarkApp(n);
        cells.push_back({RuntimeChangeMode::Restart, spec,
                         /*steady_changes=*/2});
        cells.push_back({RuntimeChangeMode::RchDroid, spec,
                         /*steady_changes=*/2});
    }
    const auto results = measureHandlingMatrix(cells, runner);
    for (std::size_t i = 0; i < view_counts.size(); ++i) {
        const int n = view_counts[i];
        const auto &stock = results[2 * i];
        const auto &rch = results[2 * i + 1];
        a.addRow({std::to_string(n),
                  formatDouble(stock.handling_ms.mean(), 1),
                  formatDouble(rch.handling_ms.mean(), 1),
                  formatDouble(rch.init_ms.mean(), 1)});
        a10_all.add(stock.handling_ms.mean());
        rch_all.add(rch.handling_ms.mean());
        if (n == view_counts.front())
            init_first = rch.init_ms.mean();
        if (n == view_counts.back())
            init_last = rch.init_ms.mean();
    }
    a.print();
    std::printf("paper anchors: Android-10 141.8 ms (measured avg %s, "
                "delta %s), RCHDroid 89.2 ms (measured avg %s, delta %s),\n"
                "RCHDroid-init 154.6 -> 180.2 ms (measured %s -> %s)\n",
                formatDouble(a10_all.mean(), 1).c_str(),
                paperDelta(a10_all.mean(), 141.8).c_str(),
                formatDouble(rch_all.mean(), 1).c_str(),
                paperDelta(rch_all.mean(), 89.2).c_str(),
                formatDouble(init_first, 1).c_str(),
                formatDouble(init_last, 1).c_str());

    printHeader("Fig 10(b)", "async view tree migration time vs #views");
    TablePrinter b({"views", "RCHDroid migration (ms)",
                    "Android-10 handling (ms, for comparison)"});
    double mig_first = 0.0, mig_last = 0.0;
    const auto migrations = runner.map<double>(
        view_counts.size(), [&view_counts](std::size_t i) {
            return measureMigrationMs(view_counts[i]);
        });
    std::vector<HandlingCell> stock_cells;
    for (int n : view_counts) {
        stock_cells.push_back({RuntimeChangeMode::Restart,
                               apps::makeBenchmarkApp(n),
                               /*steady_changes=*/1});
    }
    const auto stock_b = measureHandlingMatrix(stock_cells, runner);
    for (std::size_t i = 0; i < view_counts.size(); ++i) {
        const int n = view_counts[i];
        const double migration = migrations[i];
        b.addRow({std::to_string(n), formatDouble(migration, 1),
                  formatDouble(stock_b[i].handling_ms.mean(), 1)});
        if (n == view_counts.front())
            mig_first = migration;
        if (n == view_counts.back())
            mig_last = migration;
    }
    b.print();
    std::printf("paper anchors: migration 8.6 -> 20.2 ms "
                "(measured %s -> %s)\n",
                formatDouble(mig_first, 1).c_str(),
                formatDouble(mig_last, 1).c_str());
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
