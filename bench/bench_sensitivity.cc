/**
 * @file
 * Sensitivity ablation — does the RCHDroid-vs-restart shape survive on
 * different hardware? DeviceModel::scaled sweeps a uniformly
 * faster/slower device; the *relative* savings of the flip path and the
 * ordering flip < restart < init must hold at every speed, even though
 * every absolute number moves.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

/** One sweep point: restart / flip / init handling at a device speed. */
struct SpeedPoint
{
    double restart = 0.0;
    double flip = 0.0;
    double init = 0.0;
};

SpeedPoint
runSpeed(double speed)
{
    sim::SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    options.device = sim::DeviceModel::scaled(speed);
    sim::AndroidSystem rch_system(options);
    const auto spec = apps::makeBenchmarkApp(8);
    rch_system.install(spec);
    rch_system.launch(spec);
    rch_system.rotate();
    rch_system.waitHandlingComplete();
    SpeedPoint point;
    point.init = rch_system.lastHandlingMs();
    rch_system.runFor(seconds(1));
    rch_system.rotate();
    rch_system.waitHandlingComplete();
    point.flip = rch_system.lastHandlingMs();

    sim::SystemOptions stock_options;
    stock_options.mode = RuntimeChangeMode::Restart;
    stock_options.device = sim::DeviceModel::scaled(speed);
    sim::AndroidSystem stock_system(stock_options);
    stock_system.install(spec);
    stock_system.launch(spec);
    stock_system.rotate();
    stock_system.waitHandlingComplete();
    point.restart = stock_system.lastHandlingMs();
    return point;
}

int
run(int jobs)
{
    printHeader("Sensitivity", "device-speed sweep (RK3399 = 1.0x)");
    TablePrinter table({"speedup", "Android-10 (ms)", "RCHDroid (ms)",
                        "RCHDroid-init (ms)", "flip saving"});
    bool shape_holds = true;
    const ParallelRunner runner(jobs);
    const std::vector<double> speeds = {0.5, 1.0, 2.0, 4.0};
    const auto points = runner.map<SpeedPoint>(
        speeds.size(),
        [&speeds](std::size_t i) { return runSpeed(speeds[i]); });
    for (std::size_t i = 0; i < speeds.size(); ++i) {
        const auto &[restart, flip, init] = points[i];
        shape_holds = shape_holds && flip < restart && restart < init;
        table.addRow({formatDouble(speeds[i], 1) + "x",
                      formatDouble(restart, 1), formatDouble(flip, 1),
                      formatDouble(init, 1),
                      formatDouble((1.0 - flip / restart) * 100.0, 1) + "%"});
    }
    table.print();
    std::printf("shape (flip < restart < init at every speed): %s\n",
                shape_holds ? "PASS" : "FAIL");
    return shape_holds ? 0 : 1;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsOnly(argc, argv);
    return rchdroid::bench::run(jobs);
}
