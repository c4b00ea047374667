/**
 * @file
 * Ablation — what the coin-flipping activity management buys (§3.4).
 *
 * "RCHDroid (no reuse)" forces the GC to reclaim the shadow instance
 * immediately after every change (THRESH_T = 0, THRESH_F disabled, a
 * tight GC tick), so every runtime change takes the RCHDroid-init path:
 * create a sunny instance, rebuild the mapping. The gap between the two
 * configurations is the coin flip's contribution — the paper's "saves
 * 44.96% ... thanks to the coin-flipping-based activity stack
 * management".
 */
#include <cstdio>
#include <limits>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

double
steadyHandlingMs(const sim::SystemOptions &options, const apps::AppSpec &spec,
                 int changes)
{
    sim::AndroidSystem system(options);
    system.install(spec);
    system.launch(spec);
    SampleSet samples;
    for (int i = 0; i < changes; ++i) {
        // Give the aggressive GC room to reclaim between changes.
        system.runFor(seconds(2));
        system.rotate();
        if (!system.waitHandlingComplete())
            break;
        if (i > 0)
            samples.add(system.lastHandlingMs());
    }
    return samples.mean();
}

int
run(int jobs)
{
    printHeader("Ablation", "coin-flipping on/off (steady-state handling)");
    sim::SystemOptions with_flip = optionsFor(RuntimeChangeMode::RchDroid);

    sim::SystemOptions no_reuse = optionsFor(RuntimeChangeMode::RchDroid);
    no_reuse.rch.thresh_t = 0;
    no_reuse.rch.thresh_f = std::numeric_limits<int>::max(); // frequency never blocks
    no_reuse.rch.gc_interval = milliseconds(200);

    TablePrinter table({"views", "RCHDroid (flip) ms", "RCHDroid (no reuse) ms",
                        "flip saving"});
    const ParallelRunner runner(jobs);
    const std::vector<int> view_counts = {1, 4, 16, 32};
    // Cell layout: 2i = coin flip on, 2i+1 = no reuse for view_counts[i].
    const auto handling = runner.map<double>(
        view_counts.size() * 2,
        [&view_counts, &with_flip, &no_reuse](std::size_t i) {
            return steadyHandlingMs(i % 2 ? no_reuse : with_flip,
                                    apps::makeBenchmarkApp(view_counts[i / 2]),
                                    5);
        });
    for (std::size_t i = 0; i < view_counts.size(); ++i) {
        const double flip = handling[2 * i];
        const double none = handling[2 * i + 1];
        table.addRow({std::to_string(view_counts[i]), formatDouble(flip, 1),
                      formatDouble(none, 1),
                      formatDouble((1.0 - flip / none) * 100.0, 1) + "%"});
    }
    table.print();
    std::printf("paper reference: RCHDroid saves 44.96%% vs RCHDroid-init "
                "on the top-100 set thanks to coin flipping.\n");
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
