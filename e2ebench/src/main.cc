/**
 * @file
 * rch_e2ebench: the end-to-end benchmark of the simulator and the model
 * checker.
 *
 *   rch_e2ebench --workload sim_stock|sim_rchdroid|mc_explore
 *                [--seed N] [--seconds S] [--trace 0|1]
 *
 * A run repeats the workload's fixed job, closed-loop on one thread,
 * until --seconds have passed; before every repetition it rebuilds the
 * job's seeded inputs for 10 ms. Every timing is the best (minimum) over
 * the repetitions: other tenants of a shared machine slow whole stretches
 * of seconds, and the fastest repetition is the one they left alone.
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * splits the time between an untraced and a traced half and prints the
 * per-layer metrics. Every repetition's virtual-time digest must match
 * the others (and, for the default seed and size, the pinned one), and
 * no operation may fail; otherwise the run exits 1. The last stdout line
 * is the JSON result.
 *
 * Reduced-size and self-test flags (not used by the timed runs):
 *   --apps N            first N corpus apps only (sim)
 *   --scenarios N       sample N corpus scenarios (mc; default 48)
 *   --expect-digest HEX compare the digest against HEX instead
 *   --plant-wrong-expectation  expect every app/scenario to be clean
 *   --trace-out PATH    write the last traced repetition's spans
 *                       (Chrome trace-event JSON)
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "platform/logging.h"
#include "platform/tracing.h"

namespace e2ebench {

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
/** Host time spent repeating setup() before each job repetition. */
constexpr std::uint64_t kSetupSliceNs = 10'000'000;
constexpr int kMinJobReps = 3;

/** Every per-layer metric a traced run prints, in output order. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"error_rate", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"sim.episodes", "count"},
    {"os.events", "count"},
    {"os.events_per_episode", "count"},
    {"os.ns_per_event", "ns"},
    {"app.crashes", "count"},
    {"ams.coin_flips", "count"},
    {"ams.sunny_creates", "count"},
    {"ams.normal_starts", "count"},
    {"rch.flip_ratio", "ratio"},
    {"rch.flip_ratio_base", "count"},
    {"rch.views_mapped", "count"},
    {"rch.views_migrated", "count"},
    {"rch.gc_collections", "count"},
    {"rch.map_build_us", "us"},
    {"resources.layout_loads_per_episode", "count"},
    {"resources.drawable_bytes_per_episode", "B"},
    {"view.save_us", "us"},
    {"view.restore_us", "us"},
    {"sim.launch_us", "us"},
    {"sim.settle_us", "us"},
    {"sa.analyze_us", "us"},
    {"mc.scenarios", "count"},
    {"mc.executions", "count"},
    {"mc.schedules_covered", "count"},
    {"mc.visited_hits", "count"},
    {"mc.sleep_skips", "count"},
    {"mc.mhp_prunes", "count"},
    {"mc.snapshots_taken", "count"},
    {"mc.snapshot_restores", "count"},
    {"mc.events_replayed", "count"},
    {"mc.explore_ms", "ms"},
    {"mc.exec_us", "us"},
    {"mc.independence_us", "us"},
    {"mc.construct_us", "us"},
    {"mc.exec_bare_us", "us"},
    {"mc.fingerprint_us", "us"},
    {"mc.fingerprints_per_exec", "count"},
    {"mc.oracles_us", "us"},
    {"analysis.exec_overhead_us", "us"},
};

const char *const kUsage =
    "usage: rch_e2ebench --workload sim_stock|sim_rchdroid|mc_explore\n"
    "                    [--seed N] [--seconds 1..600] [--trace 0|1]\n"
    "                    [--apps N] [--scenarios N]\n"
    "                    [--expect-digest HEX] [--plant-wrong-expectation]\n"
    "                    [--trace-out PATH]\n";

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    int seconds = 10;
    bool trace = false;
    Scale scale;
    std::optional<std::uint64_t> expect_digest;
    std::string trace_out;
};

/** A flag error: the message names the flag and the bad value. */
struct ArgError
{
    std::string message;
};

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t lo, std::uint64_t hi, int base = 10)
{
    std::string digits = text;
    if (base == 16 &&
        (digits.rfind("0x", 0) == 0 || digits.rfind("0X", 0) == 0))
        digits = digits.substr(2);
    std::uint64_t value = 0;
    const char *first = digits.data();
    const char *last = digits.data() + digits.size();
    const auto [end, error] = std::from_chars(first, last, value, base);
    if (digits.empty() || error != std::errc() || end != last) {
        throw ArgError{flag + ": '" + text + "' is not an unsigned " +
                       (base == 16 ? "hex " : "") + "integer"};
    }
    if (value < lo || value > hi) {
        throw ArgError{flag + ": " + text + " is outside [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]"};
    }
    return value;
}

int
parseInt(const std::string &flag, const std::string &text, int lo, int hi)
{
    return static_cast<int>(parseUnsigned(flag, text,
                                          static_cast<std::uint64_t>(lo),
                                          static_cast<std::uint64_t>(hi)));
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0)
            throw ArgError{"unexpected argument '" + flag + "'"};
        if (!seen.insert(flag.substr(0, flag.find('='))).second)
            throw ArgError{flag + ": given twice"};
        if (flag == "--plant-wrong-expectation") {
            args.scale.plant_wrong_expectation = true;
            continue;
        }
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            throw ArgError{flag + ": missing value"};
        }

        if (flag == "--workload") {
            if (value != "sim_stock" && value != "sim_rchdroid" &&
                value != "mc_explore")
                throw ArgError{"--workload: unknown workload '" + value + "'"};
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(flag, value, 0, UINT64_MAX);
        } else if (flag == "--seconds") {
            args.seconds = parseInt(flag, value, 1, 600);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw ArgError{"--trace: '" + value + "' is not 0 or 1"};
            args.trace = value == "1";
        } else if (flag == "--apps") {
            args.scale.apps = parseInt(flag, value, 1, 1000);
        } else if (flag == "--scenarios") {
            args.scale.scenarios = parseInt(flag, value, 0, 264);
        } else if (flag == "--expect-digest") {
            args.expect_digest =
                parseUnsigned(flag, value, 0, UINT64_MAX, /*base=*/16);
        } else if (flag == "--trace-out") {
            if (value.empty())
                throw ArgError{"--trace-out: empty path"};
            args.trace_out = value;
        } else {
            throw ArgError{"unknown flag '" + flag + "'"};
        }
    }
    if (args.workload.empty())
        throw ArgError{"--workload is required"};
    return args;
}

/**
 * Pin the configuration in code: no environment knob of the program may
 * change what is measured. Analysis is set explicitly per workload,
 * snapshots stay at the explorer's default, nothing runs in parallel
 * (one job), and logging is silenced.
 */
void
pinEnvironment()
{
    for (const char *knob :
         {"RCHDROID_ANALYSIS", "RCHDROID_ANALYSIS_ABORT", "RCHDROID_JOBS",
          "RCHDROID_SNAPSHOTS", "RCHDROID_SNAPSHOT_TIMEOUT_MS"})
        unsetenv(knob);
    rchdroid::LogConfig::setMinLevel(rchdroid::LogLevel::Error);
    rchdroid::LogConfig::setQuiet(true);
}

/** The best (smallest) of a run's samples. */
double
best(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

/** Everything the repetitions of one half of a run produced. */
struct Phase
{
    std::vector<double> wall_s;
    /** Per-repetition episode quantiles (the best of each is reported). */
    std::vector<double> p50_us;
    std::vector<double> p99_us;
    std::uint64_t episodes = 0;
    JobResult last;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::set<std::uint64_t> digests;
};

/**
 * Repeat the job until `budget_s` has passed (and at least `min_reps`
 * times). Before each repetition, setup() runs for a slice of time, so
 * the setup samples spread over the whole run like the job's do.
 */
Phase
runPhase(Workload &workload, Spans &spans, double budget_s, int min_reps,
         std::vector<double> &setup_s, std::vector<std::string> &failures)
{
    Phase phase;
    const std::uint64_t start = hostNs();
    do {
        const std::uint64_t slice = hostNs();
        do {
            const std::uint64_t t0 = hostNs();
            workload.setup();
            setup_s.push_back(static_cast<double>(hostNs() - t0) / 1e9);
        } while (hostNs() - slice < kSetupSliceNs);

        spans.clear(); // only the last repetition's spans are kept
        const std::uint64_t t0 = hostNs();
        JobResult job = workload.runJob(spans);
        const std::uint64_t t1 = hostNs();
        phase.wall_s.push_back(
            static_cast<double>(t1 - t0 - job.probe_ns) / 1e9);
        phase.p50_us.push_back(quantile(job.episode_us, 0.50));
        phase.p99_us.push_back(quantile(job.episode_us, 0.99));
        phase.episodes += job.episode_us.size();
        phase.attempted += job.attempted;
        phase.failed += job.failed;
        phase.digests.insert(job.digest);
        for (std::string &failure : job.failures) {
            if (failures.size() < 16)
                failures.push_back(std::move(failure));
        }
        phase.last = std::move(job);
    } while (static_cast<int>(phase.wall_s.size()) < min_reps ||
             static_cast<double>(hostNs() - start) / 1e9 < budget_s);
    return phase;
}

void
printMetricsJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "mc_explore")
        return makeMcWorkload(args.seed, args.scale);
    return makeSimWorkload(args.workload == "sim_rchdroid", args.seed,
                           args.scale);
}

int
run(const Args &args)
{
    pinEnvironment();
    std::printf("e2ebench workload=%s seed=%llu seconds=%d trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("config build_type=%s RCHDROID_TRACING=%d nproc=%ld jobs=1 "
                "analysis=%s logging=quiet\n",
                E2EBENCH_BUILD_TYPE, RCHDROID_TRACING,
                sysconf(_SC_NPROCESSORS_ONLN),
                args.workload == "mc_explore" ? "explorer-on,system-off"
                                              : "off");

    std::unique_ptr<Workload> workload = makeWorkload(args);
    std::vector<double> setup_s;
    std::vector<std::string> failures;
    Spans untraced(false);
    const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
    const Phase plain =
        runPhase(*workload, untraced, budget, args.trace ? 2 : kMinJobReps,
                 setup_s, failures);
    std::optional<Phase> traced;
    Spans spans(true);
    if (args.trace)
        traced = runPhase(*workload, spans, budget, 2, setup_s, failures);

    std::set<std::uint64_t> digests = plain.digests;
    if (traced)
        digests.insert(traced->digests.begin(), traced->digests.end());
    const std::uint64_t digest = *digests.begin();
    bool correct = digests.size() == 1;
    std::printf("setup reps=%zu best_s=%.6f\n", setup_s.size(),
                best(setup_s));
    std::printf("job reps=%zu traced_reps=%zu best_wall_s=%.6f "
                "episodes=%llu\n",
                plain.wall_s.size(), traced ? traced->wall_s.size() : 0,
                best(plain.wall_s),
                static_cast<unsigned long long>(plain.episodes));
    std::printf("digest 0x%016llx%s\n",
                static_cast<unsigned long long>(digest),
                digests.size() == 1 ? "" : " (repetitions disagree)");

    const bool pinned_applies = args.seed == kDefaultSeed &&
                                args.scale.isDefault();
    if (args.expect_digest || pinned_applies) {
        const std::uint64_t expected = args.expect_digest
                                           ? *args.expect_digest
                                           : workload->pinnedDigest();
        std::printf("expected digest 0x%016llx: %s\n",
                    static_cast<unsigned long long>(expected),
                    expected == digest ? "match" : "MISMATCH");
        correct = correct && expected == digest;
    }

    const std::uint64_t attempted =
        plain.attempted + (traced ? traced->attempted : 0);
    const std::uint64_t failed = plain.failed + (traced ? traced->failed : 0);
    correct = correct && failed == 0;
    for (const std::string &failure : failures)
        std::printf("failure: %s\n", failure.c_str());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"wall_s", best(plain.wall_s), "s"},
            {"episode_p50_us", best(plain.p50_us), "us"},
            {"episode_p99_us", best(plain.p99_us), "us"},
            {"setup_s", best(setup_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        std::map<std::string, double> values;
        for (const Metric &metric :
             workload->perLayer(traced->last, spans))
            values[metric.name] = metric.value;
        values["error_rate"] =
            static_cast<double>(failed) / static_cast<double>(attempted);
        values["trace.overhead_ratio"] =
            best(traced->wall_s) / best(plain.wall_s);
        for (const auto &[name, unit] : kPerLayer) {
            const auto found = values.find(name);
            metrics.push_back(
                {name, found == values.end() ? 0.0 : found->second, unit});
            if (found != values.end())
                values.erase(found);
        }
        if (!values.empty()) {
            std::fprintf(stderr, "e2ebench: metric %s is not declared\n",
                         values.begin()->first.c_str());
            return 1;
        }
        printSelfTimes(spans.all());
        if (!args.trace_out.empty() &&
            !writeChromeTrace(spans.all(), args.trace_out)) {
            std::fprintf(stderr, "e2ebench: cannot write %s\n",
                         args.trace_out.c_str());
            return 1;
        }
    }
    printMetricsJson(correct, attempted, failed, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

} // namespace e2ebench

int
main(int argc, char **argv)
{
    e2ebench::Args args;
    try {
        args = e2ebench::parseArgs(argc, argv);
    } catch (const e2ebench::ArgError &error) {
        std::fprintf(stderr, "rch_e2ebench: %s\n%s", error.message.c_str(),
                     e2ebench::kUsage);
        return 2;
    }
    try {
        return e2ebench::run(args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "rch_e2ebench: %s\n", error.what());
        return 1;
    }
}
