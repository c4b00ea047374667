/**
 * @file
 * Fig. 9 reproduction — CPU and memory usage over time for the 4-
 * ImageView benchmark app.
 *
 * Timeline (paper): first runtime change at t=17, button touch at t=67
 * (starts the AsyncTask), second runtime change at t=79, async return
 * ~t=117. Android-10 crashes at the async return (NullPointer on the
 * released views) and its memory drops to 0; RCHDroid lazy-migrates the
 * update and keeps running. Times are trace milliseconds after the app
 * reaches its stable state; the async task is shortened to 50 ms so the
 * return lands inside the trace window, as in the paper's figure.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

struct TraceResult
{
    std::vector<sim::UtilSample> cpu;
    std::vector<sim::MemorySample> memory;
    bool crashed = false;
    double crash_at_ms = -1.0;
};

TraceResult
runTrace(RuntimeChangeMode mode)
{
    sim::AndroidSystem system(optionsFor(mode));
    const auto spec = apps::makeBenchmarkApp(4, milliseconds(50));
    system.install(spec);
    system.launch(spec);
    system.runFor(milliseconds(20)); // settle to the stable state

    const SimTime base = system.scheduler().now();
    auto at = [&](std::int64_t ms) {
        const SimTime target = base + milliseconds(ms);
        if (target > system.scheduler().now())
            system.scheduler().runUntil(target);
    };

    auto &sampler = system.startMemorySampling(spec);
    at(17);
    system.wmSize(1080, 1920); // first runtime change
    at(67);
    system.clickUpdateButton(spec); // AsyncTask issued
    at(79);
    system.wmSizeReset(); // second runtime change, task still running
    at(400);
    sampler.stop();

    TraceResult result;
    result.cpu = system.cpuTracker().series(base, base + milliseconds(400),
                                            milliseconds(20), /*cores=*/6);
    result.memory = sampler.samples();
    result.crashed = system.threadFor(spec).crashed();
    if (result.crashed) {
        result.crash_at_ms =
            toMillisF(system.threadFor(spec).crashInfo()->time - base);
    }
    return result;
}

int
run(int jobs)
{
    printHeader("Fig 9", "CPU and memory over time, 4-ImageView app");
    const ParallelRunner runner(jobs);
    auto traces = runner.map<TraceResult>(2, [](std::size_t i) {
        return runTrace(i == 0 ? RuntimeChangeMode::Restart
                               : RuntimeChangeMode::RchDroid);
    });
    auto &stock = traces[0];
    auto &rch = traces[1];

    // Memory samples arrive on a denser clock than the 20 ms CPU
    // windows; pick the sample nearest each window start.
    auto memory_at = [](const TraceResult &result, SimTime t) -> double {
        double mb = -1.0;
        for (const auto &sample : result.memory) {
            if (sample.time <= t)
                mb = sample.megabytes();
        }
        return mb;
    };

    TablePrinter table({"t (ms)", "A10 CPU (%)", "RCH CPU (%)",
                        "A10 mem (MB)", "RCH mem (MB)"});
    for (std::size_t i = 0; i < stock.cpu.size() && i < rch.cpu.size(); ++i) {
        const SimTime offset = stock.cpu[i].time - stock.cpu[0].time;
        const double stock_mem =
            memory_at(stock, stock.cpu[i].time);
        const double rch_mem = memory_at(rch, rch.cpu[i].time);
        table.addRow(
            {std::to_string(toMillis(offset)),
             formatDouble(stock.cpu[i].utilization * 100.0, 1),
             formatDouble(rch.cpu[i].utilization * 100.0, 1),
             stock_mem < 0 ? "-" : formatDouble(stock_mem, 2),
             rch_mem < 0 ? "-" : formatDouble(rch_mem, 2)});
    }
    table.print();

    std::printf("\nevents: change@17ms, touch@67ms, change@79ms, "
                "async return ~@117ms (50 ms task)\n");
    if (stock.crashed) {
        std::printf("Android-10: app CRASHED (NullPointer) at t=%.0f ms; "
                    "process memory drops to 0 (paper: crash at the async "
                    "return after the second change)\n",
                    stock.crash_at_ms);
    } else {
        std::printf("Android-10: no crash (UNEXPECTED — paper crashes)\n");
    }
    std::printf("RCHDroid: %s (paper: survives via lazy migration)\n",
                rch.crashed ? "CRASHED (UNEXPECTED)" : "no crash");

    // Memory after the async return: stock is 0 (dead), RCHDroid alive.
    const double stock_mem_end =
        stock.memory.empty() ? -1 : stock.memory.back().megabytes();
    const double rch_mem_end =
        rch.memory.empty() ? -1 : rch.memory.back().megabytes();
    std::printf("final app memory: Android-10 %.2f MB, RCHDroid %.2f MB\n",
                stock_mem_end, rch_mem_end);
    const bool ok = stock.crashed && !rch.crashed && stock_mem_end == 0.0 &&
                    rch_mem_end > 0.0;
    std::printf("shape check: %s\n", ok ? "PASS" : "FAIL");
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
