/**
 * @file
 * rchdroid_mc: bounded schedule-space model checker for the simulator.
 *
 * Explores every distinguishable schedule of a scenario up to a depth
 * bound, with sleep-set + visited-state reduction, evaluating the
 * safety oracles after every step. On a violation it delta-debugs the
 * schedule down to a 1-minimal counterexample and prints a
 * deterministic repro command.
 *
 *   rchdroid_mc --list
 *   rchdroid_mc --app=quickstart --depth=12
 *   rchdroid_mc --app=seeded_gc --depth=8            # finds the bug
 *   rchdroid_mc --app=seeded_gc --replay=1 --trace-out=cex.json
 *
 * Flags:
 *   --app=NAME        scenario to explore (see --list)
 *   --depth=N         choice points per schedule (default 10)
 *   --max-states=N    re-execution budget (default 50000)
 *   --oracles=a,b     subset of crash,analysis,gc_live_async,
 *                     saved_restore (default: all)
 *   --naive           disable sleep sets + state hashing (baseline)
 *   --no-mhp          disable static persistent-set pruning (classic
 *                     unguided DPOR; the guided-vs-unguided CI gate
 *                     compares this against the default)
 *   --json            machine-readable per-scenario report (stats incl.
 *                     sleep_skips / visited hits / mhp prunes /
 *                     fingerprints + wall time) on stdout instead of
 *                     the text summary
 *   --no-analysis     skip the PR-1 analyzer (faster, fewer oracles)
 *   --no-minimize     report the raw counterexample unminimized
 *   --replay=i,j,k    run ONE schedule instead of exploring; entry k
 *                     is the option taken at the k-th choice point
 *   --trace-out=FILE  with --replay: write a Chrome trace-event JSON
 *                     of the replay (open in Perfetto)
 *
 * The exploration replays branches on RCHDROID_JOBS - 1 worker threads
 * (default: one per core, less one) ahead of the DFS; every count and
 * verdict is the same at any worker count.
 *
 * Numeric flags are parsed strictly: an empty, non-numeric, negative or
 * out-of-range value is a usage error naming the flag, and so is an
 * unknown --oracles name, an empty --oracles list, an empty
 * --trace-out file name, --trace-out without --replay and a malformed
 * RCHDROID_JOBS.
 *
 * Exit code: 0 = no violation, 1 = violation found, 2 = usage error.
 */
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "mc/explorer.h"
#include "mc/minimize.h"
#include "mc/oracles.h"
#include "mc/scenario.h"
#include "platform/jobs.h"
#include "platform/strings.h"
#include "platform/tracing.h"
#include "sa/verdict.h"

using namespace rchdroid;

namespace {

struct Flags
{
    std::string app;
    bool list = false;
    int depth = 10;
    std::uint64_t max_states = 50'000;
    std::vector<std::string> oracles;
    bool naive = false;
    bool use_mhp = true;
    bool json = false;
    bool run_analysis = true;
    bool minimize = true;
    bool replay = false;
    std::vector<int> replay_schedule;
    std::string trace_out;
};

std::vector<std::string>
splitCommas(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string piece =
            value.substr(start, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - start);
        if (!piece.empty())
            out.push_back(piece);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Strictly parse a numeric flag value into `out`; false on error. */
template <typename T>
bool
parseNumber(const std::string &text, const char *flag, std::int64_t min,
            std::int64_t max, T &out)
{
    const Result<std::int64_t> parsed = parseInteger(text, min, max, flag);
    if (!parsed) {
        std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
        return false;
    }
    out = static_cast<T>(parsed.value());
    return true;
}

std::optional<Flags>
parseFlags(int argc, char **argv)
{
    Flags flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&arg](const char *prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (arg == "--list") {
            flags.list = true;
        } else if (arg.rfind("--app=", 0) == 0) {
            flags.app = value("--app=");
        } else if (arg.rfind("--depth=", 0) == 0) {
            if (!parseNumber(value("--depth="), "--depth", 1, INT_MAX,
                             flags.depth))
                return std::nullopt;
        } else if (arg.rfind("--max-states=", 0) == 0) {
            if (!parseNumber(value("--max-states="), "--max-states", 1,
                             INT64_MAX, flags.max_states))
                return std::nullopt;
        } else if (arg.rfind("--oracles=", 0) == 0) {
            flags.oracles = splitCommas(value("--oracles="));
            const std::vector<std::string> known = mc::defaultOracleNames();
            if (flags.oracles.empty()) {
                // An empty list would mean "all" to the explorer.
                std::fprintf(stderr, "--oracles: empty list (known: %s)\n",
                             joinStrings(known, ", ").c_str());
                return std::nullopt;
            }
            for (const std::string &name : flags.oracles) {
                if (std::find(known.begin(), known.end(), name) ==
                    known.end()) {
                    std::fprintf(stderr,
                                 "--oracles: unknown oracle \"%s\" "
                                 "(known: %s)\n",
                                 name.c_str(),
                                 joinStrings(known, ", ").c_str());
                    return std::nullopt;
                }
            }
        } else if (arg == "--naive") {
            flags.naive = true;
        } else if (arg == "--no-mhp") {
            flags.use_mhp = false;
        } else if (arg == "--json") {
            flags.json = true;
        } else if (arg == "--no-analysis") {
            flags.run_analysis = false;
        } else if (arg == "--no-minimize") {
            flags.minimize = false;
        } else if (arg.rfind("--replay=", 0) == 0) {
            flags.replay = true;
            for (const std::string &piece :
                 splitString(value("--replay="), ',')) {
                int choice = 0;
                if (!parseNumber(piece, "--replay", 0, INT_MAX, choice))
                    return std::nullopt;
                flags.replay_schedule.push_back(choice);
            }
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            flags.trace_out = value("--trace-out=");
            if (flags.trace_out.empty()) {
                std::fprintf(stderr, "--trace-out needs a file name\n");
                return std::nullopt;
            }
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return std::nullopt;
        }
    }
    if (!flags.trace_out.empty() && !flags.replay) {
        std::fprintf(stderr, "--trace-out needs --replay (only one "
                             "replayed schedule is traced)\n");
        return std::nullopt;
    }
    // The explorer's worker count: a malformed value exits 2 here, with
    // the benches' message, before any work starts.
    (void)defaultJobs();
    if (!flags.list && flags.app.empty()) {
        std::fprintf(stderr,
                     "usage: rchdroid_mc --app=NAME [--depth=N] "
                     "[--max-states=N] [--oracles=a,b] [--naive] "
                     "[--replay=i,j,k] [--trace-out=FILE] | --list\n");
        return std::nullopt;
    }
    return flags;
}

std::string
scheduleToString(const std::vector<int> &schedule)
{
    if (schedule.empty())
        return "0";
    std::string out;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(schedule[i]);
    }
    return out;
}

int
runReplay(const Flags &flags, const mc::Scenario &scenario)
{
    std::unique_ptr<trace::Tracer> tracer;
    std::optional<trace::ScopedTracer> tracer_guard;
    if (!flags.trace_out.empty()) {
        tracer = std::make_unique<trace::Tracer>();
        tracer_guard.emplace(tracer.get());
    }

    mc::ExecutionOptions eo;
    eo.scenario = &scenario;
    eo.schedule = flags.replay_schedule;
    eo.max_choice_points = flags.depth;
    eo.oracles = flags.oracles;
    eo.run_analysis = flags.run_analysis;
    eo.fingerprints = false;
    const mc::ExecutionResult result = mc::runExecution(eo);

    std::printf("replay %s: %llu step(s), %zu choice point(s)\n",
                scheduleToString(flags.replay_schedule).c_str(),
                static_cast<unsigned long long>(result.steps),
                result.choice_points.size());
    for (std::size_t i = 0; i < result.choice_points.size(); ++i) {
        const mc::ChoicePoint &cp = result.choice_points[i];
        std::printf("  choice %zu: took [%d] %s of {", i, cp.chosen,
                    cp.options[cp.chosen].label.c_str());
        for (std::size_t j = 0; j < cp.options.size(); ++j)
            std::printf("%s%s", j ? " " : "", cp.options[j].label.c_str());
        std::printf("}\n");
    }
    for (const mc::McViolation &violation : result.violations) {
        std::printf("VIOLATION [%s] at %s: %s\n",
                    violation.oracle.c_str(),
                    formatSimTime(violation.time).c_str(),
                    violation.summary.c_str());
    }
    if (result.violations.empty())
        std::printf("no violation on this schedule\n");

    tracer_guard.reset();
    if (tracer && !flags.trace_out.empty()) {
        if (tracer->writeChromeJson(flags.trace_out)) {
            std::printf("trace written to %s (%zu events)\n",
                        flags.trace_out.c_str(), tracer->eventCount());
        } else {
            std::fprintf(stderr, "failed to write trace to %s\n",
                         flags.trace_out.c_str());
            return 2;
        }
    }
    return result.violations.empty() ? 0 : 1;
}

std::string
reportJson(const Flags &flags, const mc::Scenario &scenario,
           const mc::ExplorerReport &report, bool guided, double wall_ms)
{
    const mc::ExplorerStats &stats = report.stats;
    std::string out = "{\"scenario\": \"";
    out += jsonEscape(scenario.name);
    out += "\", \"depth\": " + std::to_string(flags.depth);
    out += ", \"guided\": ";
    out += guided ? "true" : "false";
    out += ", \"naive\": ";
    out += flags.naive ? "true" : "false";
    out += ", \"schedules_covered\": " +
           std::to_string(stats.schedules_covered);
    out += ", \"executions\": " + std::to_string(stats.executions);
    out += ", \"choice_points\": " + std::to_string(stats.nodes);
    out += ", \"distinct_states\": " +
           std::to_string(stats.distinct_states);
    out += ", \"visited_hits\": " + std::to_string(stats.visited_hits);
    out += ", \"sleep_skips\": " + std::to_string(stats.sleep_skips);
    out += ", \"mhp_prunes\": " + std::to_string(stats.mhp_prunes);
    out += ", \"events_replayed\": " +
           std::to_string(stats.events_replayed);
    out += ", \"fingerprints\": " + std::to_string(stats.fingerprints);
    out += ", \"truncated\": ";
    out += stats.truncated ? "true" : "false";
    char buf[40];
    std::snprintf(buf, sizeof buf, ", \"wall_ms\": %.3f", wall_ms);
    out += buf;
    out += ", \"violations\": [";
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
        const mc::McViolation &violation = report.violations[i];
        if (i)
            out += ", ";
        out += "{\"oracle\": \"";
        out += jsonEscape(violation.oracle);
        out += "\", \"summary\": \"";
        out += jsonEscape(violation.summary);
        out += "\"}";
    }
    out += "]}";
    return out;
}

int
runExplore(const Flags &flags, const mc::Scenario &scenario)
{
    mc::ExplorerOptions options;
    options.scenario = &scenario;
    options.max_depth = flags.depth;
    options.max_executions = flags.max_states;
    options.oracles = flags.oracles;
    options.run_analysis = flags.run_analysis;
    options.reduction = !flags.naive;
    const bool guided = flags.use_mhp && !flags.naive &&
                        !scenario.independence.empty();
    if (guided)
        options.independence = &scenario.independence;
    const auto wall_start = std::chrono::steady_clock::now();
    const mc::ExplorerReport report = mc::explore(options);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    if (flags.json) {
        std::printf("%s\n",
                    reportJson(flags, scenario, report, guided, wall_ms)
                        .c_str());
        return report.violations.empty() ? 0 : 1;
    }

    std::printf("scenario %s, depth %d%s%s:\n", scenario.name.c_str(),
                flags.depth, flags.naive ? " (naive DFS)" : "",
                !flags.naive && !guided ? " (unguided DPOR)" : "");
    std::printf("  schedules covered : %llu%s\n",
                static_cast<unsigned long long>(
                    report.stats.schedules_covered),
                report.stats.truncated ? " (truncated by --max-states)"
                                       : "");
    std::printf("  executions        : %llu\n",
                static_cast<unsigned long long>(report.stats.executions));
    std::printf("  choice points     : %llu\n",
                static_cast<unsigned long long>(report.stats.nodes));
    std::printf("  distinct states   : %llu\n",
                static_cast<unsigned long long>(
                    report.stats.distinct_states));
    std::printf("  visited-state hits: %llu\n",
                static_cast<unsigned long long>(
                    report.stats.visited_hits));
    std::printf("  sleep-set skips   : %llu\n",
                static_cast<unsigned long long>(
                    report.stats.sleep_skips));
    if (guided) {
        std::printf("  mhp prunes        : %llu\n",
                    static_cast<unsigned long long>(
                        report.stats.mhp_prunes));
    }
    std::printf("  wall time         : %.1f ms\n", wall_ms);

    if (report.violations.empty()) {
        std::printf("  no violations\n");
        return 0;
    }

    std::printf("  %zu distinct violation(s):\n",
                report.violations.size());
    for (const mc::McViolation &violation : report.violations) {
        std::printf("    [%s] %s\n", violation.oracle.c_str(),
                    violation.summary.c_str());
    }

    std::vector<int> schedule = report.first_violation_schedule;
    if (flags.minimize) {
        mc::MinimizeOptions mo;
        mo.scenario = &scenario;
        mo.schedule = schedule;
        mo.max_choice_points = flags.depth;
        mo.oracles = flags.oracles;
        mo.run_analysis = flags.run_analysis;
        mo.oracle = report.violations.front().oracle;
        const mc::MinimizeResult minimized =
            mc::minimizeCounterexample(mo);
        if (minimized.reproduced) {
            schedule = minimized.schedule;
            std::printf("  minimized counterexample: %d non-default "
                        "choice(s) (%llu replays)\n",
                        minimized.non_default_choices,
                        static_cast<unsigned long long>(
                            minimized.executions));
        }
    }
    std::printf("  repro: rchdroid_mc --app=%s --depth=%d --replay=%s\n",
                scenario.name.c_str(), flags.depth,
                scheduleToString(schedule).c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Flags> flags = parseFlags(argc, argv);
    if (!flags)
        return 2;
    if (flags->list) {
        for (const mc::Scenario &scenario : mc::scenarioCatalog())
            std::printf("%-16s %s\n", scenario.name.c_str(),
                        scenario.description.c_str());
        return 0;
    }
    const mc::Scenario *scenario = mc::findScenario(flags->app);
    if (!scenario) {
        std::fprintf(stderr,
                     "unknown scenario \"%s\" (try --list)\n",
                     flags->app.c_str());
        return 2;
    }
    return flags->replay ? runReplay(*flags, *scenario)
                         : runExplore(*flags, *scenario);
}
