/**
 * @file
 * §5.6 reproduction — energy consumption.
 *
 * Paper: the board draws 4.03 W after runtime changes under both
 * systems across all 27 apps, because the shadow instance is inactive —
 * memory is retained, but no cycles are spent on it. The model makes
 * that mechanical: power = idle + cpu_max × utilisation, and an idle
 * shadow contributes zero utilisation.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

double
measurePowerWatts(RuntimeChangeMode mode, const apps::AppSpec &spec)
{
    sim::AndroidSystem system(optionsFor(mode));
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    system.rotate();
    system.waitHandlingComplete();
    system.rotate();
    system.waitHandlingComplete();
    // Steady window after the changes — what the power meter shows.
    const SimTime from = system.scheduler().now();
    system.runFor(seconds(30));
    return system.energy().averagePowerWatts(system.cpuTracker(), from,
                                             system.scheduler().now());
}

int
run(int jobs)
{
    printHeader("§5.6", "energy consumption, 27 TP-37 apps");
    TablePrinter table({"App", "Android-10 (W)", "RCHDroid (W)"});
    RunningStat a10_all, rch_all;
    const ParallelRunner runner(jobs);
    const auto specs = apps::tp37();
    // Cell layout: 2i = Android-10, 2i+1 = RCHDroid for specs[i].
    const auto watts = runner.map<double>(
        specs.size() * 2, [&specs](std::size_t i) {
            return measurePowerWatts(i % 2 ? RuntimeChangeMode::RchDroid
                                           : RuntimeChangeMode::Restart,
                                     specs[i / 2]);
        });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        const double a10 = watts[2 * i];
        const double rch = watts[2 * i + 1];
        a10_all.add(a10);
        rch_all.add(rch);
        table.addRow(
            {spec.name, formatDouble(a10, 3), formatDouble(rch, 3)});
    }
    table.print();
    std::printf("averages: Android-10 %.2f W, RCHDroid %.2f W "
                "(paper: both 4.03 W — unchanged)\n",
                a10_all.mean(), rch_all.mean());
    const bool ok = std::abs(a10_all.mean() - rch_all.mean()) < 0.02;
    std::printf("shape check (no added draw from the shadow instance): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsOnly(argc, argv);
    return rchdroid::bench::run(jobs);
}
