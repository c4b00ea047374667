/**
 * @file
 * Table 5 / §6 Effectiveness reproduction — runtime-change issues in the
 * Google-Play top-100 apps.
 *
 * Paper anchors: 63/100 apps show issues under the stock design (the
 * other 37 = 26 declaring android:configChanges + 11 default-handling
 * without issues); RCHDroid resolves 59/63 — #2 Filto, #57 HaircutPrank,
 * #66 CastForChrome and #70 KingJamesBible keep app-private state
 * without onSaveInstanceState.
 */
#include <cstdio>

#include "bench_common.h"

namespace rchdroid::bench {
namespace {

apps::StateCheckResult
observe(RuntimeChangeMode mode, const apps::AppSpec &spec)
{
    sim::AndroidSystem system(optionsFor(mode));
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    // §6 methodology: "we change screen sizes and observe if the state
    // can be correctly restored". The observation happens after every
    // change — a flip back to the original instance must not mask a
    // loss the user already saw.
    system.wmSize(1080, 1920);
    system.waitHandlingComplete();
    system.runFor(seconds(1));
    auto first = system.verifyCriticalState(spec);
    system.wmSizeReset();
    system.waitHandlingComplete();
    system.runFor(seconds(1));
    auto second = system.verifyCriticalState(spec);
    if (!first.preserved)
        return first;
    return second;
}

int
run(int jobs)
{
    printHeader("Table 5", "runtime change issues in Google Play top 100");
    TablePrinter table({"No.", "App", "Downloads", "Issue", "Problem",
                        "RCHDroid", "paper"});
    int issues = 0, fixed_of_issues = 0, matches = 0;
    const auto corpus = apps::top100();
    const ParallelRunner runner(jobs);
    // Stage 1: every app on stock Android. Stage 2: RCHDroid only for the
    // apps that showed an issue — the same work the serial sweep did.
    const auto stock_results = runner.map<apps::StateCheckResult>(
        corpus.size(), [&corpus](std::size_t i) {
            return observe(RuntimeChangeMode::Restart, corpus[i]);
        });
    std::vector<std::size_t> issue_indices;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (!stock_results[i].preserved)
            issue_indices.push_back(i);
    }
    const auto rch_results = runner.map<apps::StateCheckResult>(
        issue_indices.size(), [&corpus, &issue_indices](std::size_t i) {
            return observe(RuntimeChangeMode::RchDroid,
                           corpus[issue_indices[i]]);
        });
    std::vector<const apps::StateCheckResult *> rch_for(corpus.size(),
                                                        nullptr);
    for (std::size_t i = 0; i < issue_indices.size(); ++i)
        rch_for[issue_indices[i]] = &rch_results[i];

    int index = 0;
    for (const auto &spec : corpus) {
        const auto &stock = stock_results[index];
        const auto *rch = rch_for[index];
        ++index;
        const bool has_issue = !stock.preserved;
        issues += has_issue;

        bool rch_fixed = false;
        if (has_issue) {
            rch_fixed = rch->preserved;
            fixed_of_issues += rch_fixed;
        }
        const bool matches_paper =
            has_issue == spec.expect_issue_stock &&
            (!has_issue || rch_fixed == spec.expect_fixed_by_rch);
        matches += matches_paper;
        table.addRow({std::to_string(index), spec.name, spec.downloads,
                      has_issue ? "Yes" : "No",
                      has_issue ? spec.issue_description : "No",
                      !has_issue ? "-" : (rch_fixed ? "fixed" : "unresolved"),
                      matches_paper ? "match" : "MISMATCH"});
    }
    table.print();
    std::printf("apps with runtime change issues: %d/100 (paper: 63)\n",
                issues);
    std::printf("RCHDroid resolves %d/%d = %.2f%% (paper: 59/63 = 93.65%%)\n",
                fixed_of_issues, issues,
                issues ? 100.0 * fixed_of_issues / issues : 0.0);
    std::printf("rows matching the paper: %d/100\n", matches);
    return matches == 100 ? 0 : 1;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsOnly(argc, argv);
    return rchdroid::bench::run(jobs);
}
