/**
 * @file
 * Ablation — the essence-mapping data structure (§3.3, §5.4).
 *
 * The paper bounds RCHDroid-init at O(n) by building the mapping with a
 * hash table of view ids. This ablation swaps in a linear-scan mapper
 * (each shadow view searches the sunny tree by id, O(n²)) and shows the
 * init-path handling time diverging on large trees — the design point
 * behind "a hash-table-based solution is adopted ... the time cost in
 * RCHDroid-init is limited to O(n)".
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

double
initHandlingMs(MappingStrategy strategy, int n_views)
{
    sim::SystemOptions options = optionsFor(RuntimeChangeMode::RchDroid);
    options.rch.mapping_strategy = strategy;
    sim::AndroidSystem system(options);
    const auto spec = apps::makeBenchmarkApp(n_views);
    system.install(spec);
    system.launch(spec);
    system.rotate();
    if (!system.waitHandlingComplete(seconds(120)))
        return -1.0;
    return system.lastHandlingMs();
}

int
run(int jobs)
{
    printHeader("Ablation", "essence mapping: hash table vs linear scan");
    TablePrinter table({"views", "hash table (ms)", "linear scan (ms)",
                        "slowdown"});
    const ParallelRunner runner(jobs);
    const std::vector<int> view_counts = {8, 32, 128, 512};
    // Cell layout: 2i = hash table, 2i+1 = linear scan for view_counts[i].
    const auto init_ms = runner.map<double>(
        view_counts.size() * 2, [&view_counts](std::size_t i) {
            return initHandlingMs(i % 2 ? MappingStrategy::LinearScan
                                        : MappingStrategy::HashTable,
                                  view_counts[i / 2]);
        });
    for (std::size_t i = 0; i < view_counts.size(); ++i) {
        const double hash = init_ms[2 * i];
        const double linear = init_ms[2 * i + 1];
        table.addRow({std::to_string(view_counts[i]), formatDouble(hash, 1),
                      formatDouble(linear, 1),
                      formatDouble(hash > 0 ? linear / hash : 0, 2) + "x"});
    }
    table.print();
    std::printf("the hash table keeps RCHDroid-init linear in the view "
                "count; the linear scan goes quadratic.\n");
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
