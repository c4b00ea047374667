/**
 * @file
 * Offline critical-path profiler CLI.
 *
 * Reads a Chrome trace JSON produced by the simulator (rchdroid_shell
 * `trace FILE`, quickstart --trace, bench --trace), reconstructs the
 * causal critical path of every completed config-change handling
 * episode, and prints per-segment latency breakdowns.
 *
 * Usage: rchdroid_profile TRACE.json [--top=K] [--json]
 *
 * Exit codes: 0 success; 1 the self-check failed (a reconstructed
 * path's segment sum strays more than 1% from its episode's async-span
 * duration — the tiling invariant was violated); 2 unreadable or
 * malformed input.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "platform/strings.h"
#include "profiling/critical_path.h"
#include "profiling/trace_reader.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s TRACE.json [--top=K] [--json]\n", argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::size_t top_k = 10;
    bool as_json = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            as_json = true;
        } else if (arg.rfind("--top=", 0) == 0) {
            const rchdroid::Result<std::int64_t> value =
                rchdroid::parseInteger(arg.substr(6), 1, INT32_MAX, "--top");
            if (!value) {
                std::fprintf(stderr, "%s\n",
                             value.status().message().c_str());
                return usage(argv[0]);
            }
            top_k = static_cast<std::size_t>(value.value());
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty())
        return usage(argv[0]);

    using namespace rchdroid;
    const profiling::ReadResult loaded =
        profiling::readChromeTraceFile(path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "rchdroid_profile: %s\n", loaded.error.c_str());
        return 2;
    }

    const std::vector<profiling::CriticalPath> paths =
        profiling::extractCriticalPaths(loaded.input);

    // Self-check the tiling invariant: each path's segments must sum to
    // its episode's async-span duration (within 1%; exact in practice).
    bool sums_ok = true;
    for (const profiling::CriticalPath &p : paths) {
        const double total = p.totalMs();
        const double sum = p.segmentSumMs();
        const double tolerance = 0.01 * total;
        if (std::fabs(sum - total) > tolerance) {
            std::fprintf(stderr,
                         "rchdroid_profile: episode %llu segment sum %.6f ms "
                         "!= span %.6f ms (>1%% off)\n",
                         static_cast<unsigned long long>(p.episode), sum,
                         total);
            sums_ok = false;
        }
    }

    if (as_json)
        std::fputs(profiling::renderJson(paths).c_str(), stdout);
    else
        std::fputs(profiling::renderText(paths, top_k).c_str(), stdout);

    return sums_ok ? 0 : 1;
}
