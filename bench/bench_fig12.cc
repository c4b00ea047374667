/**
 * @file
 * Fig. 12 + Table 4 + §5.7 reproduction — comparison with RuntimeDroid.
 *
 * RuntimeDroid is closed source; like the paper, the comparison uses the
 * numbers RuntimeDroid reported, normalised against our Android-10
 * baseline (Fig. 12's bars are "runtime handling time normalized with
 * Android-10"). RuntimeDroid is *faster* than RCHDroid — it masks the
 * restart inside the app — but needs thousands of LoC of modifications
 * per app (Table 4) and a per-app patching pass (§5.7), whereas RCHDroid
 * modifies zero app lines.
 */
#include <cstdio>

#include "baseline/runtimedroid.h"
#include "bench_common.h"

namespace rchdroid::bench {
namespace {

int
run(int jobs)
{
    RuntimeDroidModel model;
    const ParallelRunner runner(jobs);

    printHeader("Fig 12", "handling time normalised to Android-10");
    // Two RuntimeDroid columns: the paper-quoted model (the paper itself
    // uses RuntimeDroid's reported numbers) and our executable app-level
    // reimplementation (hot reload behind android:configChanges).
    TablePrinter fig({"App", "Android-10", "RuntimeDroid (quoted)",
                      "RuntimeDroid (reimpl)", "RCHDroid"});
    SampleSet rtd_norm, rtd_measured_norm, rch_norm;
    std::vector<apps::AppSpec> specs;
    for (const auto &spec : apps::runtimeDroidEvalApps()) {
        if (model.find(spec.name))
            specs.push_back(spec);
    }
    // Cell layout per app: stock, RCHDroid, RuntimeDroid-patched stock.
    std::vector<HandlingCell> cells;
    for (const auto &spec : specs) {
        cells.push_back({RuntimeChangeMode::Restart, spec});
        cells.push_back({RuntimeChangeMode::RchDroid, spec});
        apps::AppSpec patched = spec;
        patched.runtimedroid_patched = true;
        cells.push_back({RuntimeChangeMode::Restart, patched});
    }
    const auto results = measureHandlingMatrix(cells, runner);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        const auto *data = model.find(spec.name);
        const auto &stock = results[3 * i];
        const auto &rch = results[3 * i + 1];
        const auto &rtd = results[3 * i + 2];
        const double a10 = stock.handling_ms.mean();
        const double rch_frac =
            a10 > 0 ? rch.handling_ms.mean() / a10 : 0.0;
        const double rtd_frac =
            a10 > 0 ? rtd.handling_ms.mean() / a10 : 0.0;
        rtd_norm.add(data->latency_vs_android10);
        rtd_measured_norm.add(rtd_frac);
        rch_norm.add(rch_frac);
        fig.addRow({spec.name, "1.00",
                    formatDouble(data->latency_vs_android10, 2),
                    formatDouble(rtd_frac, 2), formatDouble(rch_frac, 2)});
    }
    fig.print();
    std::printf("means: RuntimeDroid quoted %.2f, reimplemented %.2f, "
                "RCHDroid %.2f — RuntimeDroid is\nmore efficient (paper "
                "§5.7), at the modification cost below.\n",
                rtd_norm.mean(), rtd_measured_norm.mean(), rch_norm.mean());

    printHeader("Table 4", "RuntimeDroid modifications to apps (LoC)");
    TablePrinter table({"App", "Android-10 LoC", "RuntimeDroid LoC",
                        "Modifications", "RCHDroid modifications"});
    for (const auto &app : model.apps()) {
        table.addRow({app.app_name, std::to_string(app.loc_android10),
                      std::to_string(app.loc_runtimedroid),
                      std::to_string(app.loc_modifications),
                      "0"});
    }
    table.print();
    std::printf("total RuntimeDroid patch LoC across eval apps: %d; "
                "RCHDroid: 0 (system-level)\n",
                model.totalModificationLoc());

    printHeader("§5.7", "deployment overhead");
    TablePrinter dep({"approach", "deployment"});
    dep.addRow({"RCHDroid",
                "one system image build/flash: " +
                    std::to_string(RuntimeDroidModel::rchdroidDeployTimeMs()) +
                    " ms, then 0 ms per app"});
    dep.addRow({"RuntimeDroid",
                "per-app patch: " +
                    std::to_string(RuntimeDroidModel::minPatchTimeMs()) +
                    " - " +
                    std::to_string(RuntimeDroidModel::maxPatchTimeMs()) +
                    " ms, every app"});
    dep.print();
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
