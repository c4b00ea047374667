/**
 * @file
 * Table 3 reproduction — effectiveness on the 27 runnable TP-37 apps.
 *
 * Methodology (paper §5.2): put each app into a user state, trigger a
 * runtime change, and observe whether the state survives. Expectation:
 * RCHDroid resolves 25/27; apps #9 (DiskDiggerPro) and #10 (Dock4Droid)
 * keep user-defined state outside any view without implementing
 * onSaveInstanceState, so it is lost on both systems.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

/** Run one app through launch → state → change → observe. */
apps::StateCheckResult
observe(RuntimeChangeMode mode, const apps::AppSpec &spec)
{
    sim::AndroidSystem system(optionsFor(mode));
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    system.rotate();
    if (!system.waitHandlingComplete()) {
        apps::StateCheckResult result;
        result.preserved = false;
        result.losses.push_back("handling did not complete");
        return result;
    }
    system.runFor(seconds(1));
    return system.verifyCriticalState(spec);
}

int
run(int jobs)
{
    printHeader("Table 3", "27 TP-37 apps on RCHDroid vs Android-10");
    TablePrinter table({"No.", "App", "Downloads", "Issue (stock)",
                        "Android-10", "RCHDroid", "paper"});
    int fixed = 0, issues_on_stock = 0, matches = 0;
    const auto corpus = apps::tp37();
    const ParallelRunner runner(jobs);
    // Cell layout: 2i = Android-10, 2i+1 = RCHDroid for corpus[i].
    const auto observed = runner.map<apps::StateCheckResult>(
        corpus.size() * 2, [&corpus](std::size_t i) {
            return observe(i % 2 ? RuntimeChangeMode::RchDroid
                                 : RuntimeChangeMode::Restart,
                           corpus[i / 2]);
        });
    int index = 0;
    for (const auto &spec : corpus) {
        const auto &stock = observed[2 * index];
        const auto &rch = observed[2 * index + 1];
        ++index;
        issues_on_stock += !stock.preserved;
        fixed += rch.preserved;
        const bool matches_paper =
            (!stock.preserved == spec.expect_issue_stock) &&
            (rch.preserved == spec.expect_fixed_by_rch);
        matches += matches_paper;
        table.addRow({std::to_string(index), spec.name, spec.downloads,
                      spec.issue_description,
                      stock.preserved ? "preserved" : stock.toString(),
                      rch.preserved ? "fixed" : rch.toString(),
                      matches_paper ? "match" : "MISMATCH"});
    }
    table.print();
    std::printf("stock Android loses state in %d/27 apps (paper: 27/27)\n",
                issues_on_stock);
    std::printf("RCHDroid resolves %d/27 (paper: 25/27 — #9 and #10 keep "
                "app-private state without onSaveInstanceState)\n",
                fixed);
    std::printf("rows matching the paper's outcome: %d/27\n", matches);
    return matches == 27 ? 0 : 1;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsOnly(argc, argv);
    return rchdroid::bench::run(jobs);
}
