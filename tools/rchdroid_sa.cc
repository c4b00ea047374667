/**
 * @file
 * rchdroid_sa: the static RCH-compatibility analyzer CLI.
 *
 * Sweeps the full evaluation corpus (TP-37 + top-100 + the examples/
 * stand-ins) without executing any of it and emits one JSON document
 * with a per-app verdict: will the critical state survive a runtime
 * change under stock Android and under RCHDroid, may the app crash on a
 * straddling async completion, and is it RCHDroid-eligible.
 *
 *   rchdroid_sa                    sweep, summary to stdout
 *   rchdroid_sa --json             sweep, JSON to stdout
 *   rchdroid_sa --out FILE         sweep, JSON to FILE
 *   rchdroid_sa --app NAME         one app: findings + model dump
 *   rchdroid_sa --findings         sweep, every finding line-by-line
 *
 * The binary never fails on findings — predictions are data. The
 * differential CTest (tests/sa/differential_test.cc) is what turns a
 * soundness violation into a red build.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "sa/dataflow.h"
#include "sa/sweep.h"

namespace {

using namespace rchdroid;

int
analyzeOne(const std::string &name)
{
    for (const apps::AppSpec &spec : sa::fullCorpus()) {
        if (spec.name != name)
            continue;
        const sa::AppModel stock =
            sa::compile(spec, sa::HandlingModel::Stock);
        const sa::AppModel rch =
            sa::compile(spec, sa::HandlingModel::RchDroid);
        std::cout << stock.describe() << "\n" << rch.describe() << "\n";
        std::cout << sa::solve(stock).describe(stock) << "\n";
        const sa::AppVerdict verdict = sa::analyzeApp(spec);
        for (const sa::Finding &finding : verdict.findings)
            std::cout << finding.toString() << "\n";
        std::cout << verdict.toJson() << "\n";
        return 0;
    }
    std::cerr << "rchdroid_sa: unknown app '" << name
              << "' (names come from the corpus tables and examples)\n";
    return 2;
}

void
printSummary(const sa::SweepResult &result)
{
    const sa::SweepSummary totals = result.summary();
    std::printf("apps=%d findings=%d (errors=%d warnings=%d infos=%d)\n"
                "stock_clean=%d rch_clean=%d\n"
                "self_handling=%d rch_eligible=%d rch_ineligible=%d\n",
                totals.apps, totals.findings, totals.errors,
                totals.warnings, totals.infos, totals.stock_clean,
                totals.rch_clean, totals.self_handling,
                totals.rch_eligible, totals.rch_ineligible);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::string app_name;
    bool json_stdout = false;
    bool list_findings = false;

    const char *usage = "usage: rchdroid_sa [--json] [--findings] "
                        "[--out FILE] [--app NAME]\n";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            json_stdout = true;
        } else if (std::strcmp(arg, "--findings") == 0) {
            list_findings = true;
        } else if (std::strcmp(arg, "--out") == 0 ||
                   std::strcmp(arg, "--app") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "rchdroid_sa: " << arg << " needs a value\n"
                          << usage;
                return 2;
            }
            std::string &value =
                std::strcmp(arg, "--out") == 0 ? out_path : app_name;
            value = argv[++i];
        } else if (std::strcmp(arg, "--help") == 0) {
            std::cerr << usage;
            return 0;
        } else {
            std::cerr << "rchdroid_sa: unknown flag: " << arg << "\n"
                      << usage;
            return 2;
        }
    }

    if (!app_name.empty())
        return analyzeOne(app_name);

    const sa::SweepResult result = sa::sweep(sa::fullCorpus());
    if (list_findings) {
        for (const sa::AppVerdict &verdict : result.verdicts) {
            for (const sa::Finding &finding : verdict.findings)
                std::cout << verdict.app << ": " << finding.toString()
                          << "\n";
        }
    }
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "rchdroid_sa: cannot write " << out_path << "\n";
            return 1;
        }
        out << result.toJson();
    }
    if (json_stdout)
        std::cout << result.toJson();
    else
        printSummary(result);
    return 0;
}
