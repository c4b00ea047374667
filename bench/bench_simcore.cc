/**
 * @file
 * Self-benchmark of the simulator itself (not a paper figure): the
 * discrete-event core's throughput and the parallel experiment runner's
 * wall-clock speedup.
 *
 * Three single-thread workloads exercise the hot paths the indexed-heap
 * overhaul targets — a depth-1 looper ping-pong (fixed per-event
 * overhead), a deep delayed queue (the O(n) vs O(log n) regime), and
 * full-system RCHDroid rotations — followed by the Fig. 10-shaped
 * handling matrix run with
 * jobs=1 and jobs=N to measure the fan-out speedup and to check the
 * parallel aggregate is bit-identical to the serial one.
 *
 * Results are printed as a table and written to a machine-readable JSON
 * file (--out=PATH, default BENCH_simcore.json) that the CI perf-smoke
 * job archives and compares against bench/BENCH_simcore.baseline.json.
 */
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "os/looper.h"
#include "os/scheduler.h"
#include "platform/logging.h"
#include "platform/metrics.h"
#include "platform/tracing.h"
#include "sim/dumpsys.h"

namespace rchdroid::bench {
namespace {

/**
 * Throughput of the same workloads measured on the pre-overhaul
 * event core (sorted-vector MessageQueue, priority_queue-of-Event
 * scheduler) on the development container (1 core, RelWithDebInfo),
 * recorded when the indexed-heap core landed. Emitted into the JSON so
 * every report carries the before/after pair; absolute numbers are
 * host-specific, the *ratios* are the point — the deep-queue workload
 * is where the old core's O(n) inserts and front-erases collapse.
 */
constexpr double kPreChangePingpongEps = 6'632'047;
constexpr double kPreChangeDeepQueueEps = 66'809;
constexpr double kPreChangeRotationsEps = 985;

struct WallTimer
{
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();

    double
    seconds() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
            .count();
    }
};

struct WorkloadResult
{
    std::string name;
    double events = 0.0;
    double wall_seconds = 0.0;

    double
    eventsPerSec() const
    {
        return wall_seconds > 0 ? events / wall_seconds : 0.0;
    }
};

/** Depth-1 message bouncing between two loopers: pure per-event cost. */
WorkloadResult
runPingpong()
{
    constexpr int kBounces = 2'000'000;
    SimScheduler scheduler;
    Looper looper_a(scheduler, "ping");
    Looper looper_b(scheduler, "pong");
    int remaining = kBounces;
    std::function<void()> bounce;
    bounce = [&] {
        if (--remaining <= 0)
            return;
        ((remaining & 1) ? looper_b : looper_a).post(bounce, 0, 0, "bounce");
    };
    WallTimer timer;
    looper_a.post(bounce, 0, 0, "bounce");
    scheduler.runUntilIdle();
    return {"looper_pingpong", static_cast<double>(kBounces),
            timer.seconds()};
}

/**
 * A looper holding ~2000 pending delayed messages while continuously
 * dispatching; each dispatch re-posts itself at a pseudo-random delay so
 * inserts land mid-queue. The old sorted-vector queue paid O(n) payload
 * moves per insert and per pop here.
 */
WorkloadResult
runDeepQueue()
{
    constexpr int kDepth = 2'000;
    constexpr int kEvents = 400'000;
    SimScheduler scheduler;
    Looper looper(scheduler, "deep");
    int executed = 0;
    std::uint64_t rng = 0x12345678;
    auto next_delay = [&rng] {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<SimDuration>(1 + (rng >> 33) % 1'000'000);
    };
    std::function<void()> work;
    work = [&] {
        if (++executed >= kEvents)
            return;
        looper.post(work, next_delay(), 0, "w");
    };
    WallTimer timer;
    for (int i = 0; i < kDepth; ++i)
        looper.post(work, next_delay(), 0, "w");
    while (executed < kEvents && scheduler.step()) {
    }
    return {"deep_queue", static_cast<double>(executed), timer.seconds()};
}

/** End-to-end RCHDroid rotations on the 8-view benchmark app. */
WorkloadResult
runRotations()
{
    constexpr int kRotations = 20'000;
    sim::AndroidSystem system(optionsFor(RuntimeChangeMode::RchDroid));
    const auto spec = apps::makeBenchmarkApp(8);
    system.install(spec);
    system.launch(spec);
    WallTimer timer;
    for (int i = 0; i < kRotations; ++i) {
        system.rotate();
        system.waitHandlingComplete();
        system.runFor(seconds(1));
    }
    return {"system_rotations",
            static_cast<double>(system.scheduler().executedEvents()),
            timer.seconds()};
}

/** Exact-equality comparison used by the 1-vs-N determinism check. */
bool
statsIdentical(const RunningStat &a, const RunningStat &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.variance() == b.variance() && a.min() == b.min() &&
           a.max() == b.max();
}

bool
measurementsIdentical(const std::vector<HandlingMeasurement> &a,
                      const std::vector<HandlingMeasurement> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!statsIdentical(a[i].handling_ms, b[i].handling_ms) ||
            !statsIdentical(a[i].init_ms, b[i].init_ms) ||
            a[i].crashed != b[i].crashed)
            return false;
    }
    return true;
}

struct MatrixResult
{
    std::size_t cells = 0;
    int runs_per_cell = 0;
    int jobs = 1;
    double serial_seconds = 0.0;
    double parallel_seconds = 0.0;
    bool identical = false;

    double
    speedup() const
    {
        return parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0;
    }
};

/** The Fig. 10-shaped handling matrix, serial then fanned out. */
MatrixResult
runMatrix(int jobs)
{
    // Each (mode, app) pair is listed kRuns times, so there are enough
    // cells to spread over the threads and each is heavy enough that
    // thread spawn/join overhead is negligible next to it.
    constexpr int kRuns = 50;
    constexpr int kSteadyChanges = 100;
    std::vector<HandlingCell> cells;
    for (int n : {16, 32, 64, 128}) {
        const auto spec = apps::makeBenchmarkApp(n);
        for (const RuntimeChangeMode mode :
             {RuntimeChangeMode::Restart, RuntimeChangeMode::RchDroid}) {
            for (int run = 0; run < kRuns; ++run)
                cells.push_back({mode, spec, kSteadyChanges});
        }
    }

    MatrixResult result;
    result.cells = cells.size() / kRuns;
    result.runs_per_cell = kRuns;

    const ParallelRunner serial(1);
    WallTimer serial_timer;
    const auto serial_results = measureHandlingMatrix(cells, serial);
    result.serial_seconds = serial_timer.seconds();

    const ParallelRunner fanned(jobs);
    result.jobs = fanned.jobs();
    WallTimer parallel_timer;
    const auto parallel_results = measureHandlingMatrix(cells, fanned);
    result.parallel_seconds = parallel_timer.seconds();

    result.identical = measurementsIdentical(serial_results, parallel_results);
    return result;
}

/**
 * Metrics snapshot embedded in the report. Runs a short RCHDroid
 * rotation workload in its own metrics scope *after* the timed
 * workloads, so the timed sections run with no registry installed —
 * exactly the configuration whose overhead the baseline comparison
 * gates. A tracer is installed too: metricsJson() then splices the
 * critical-path "profile" section (per-segment episode latencies) that
 * compare_simcore.py gates against the checked-in baseline — sim time
 * is virtual, so those numbers are deterministic, unlike the wall-clock
 * events/sec above.
 */
std::string
collectMetricsJson()
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry guard(&registry);
    trace::Tracer tracer;
    trace::ScopedTracer tracer_guard(&tracer);
    sim::AndroidSystem system(optionsFor(RuntimeChangeMode::RchDroid));
    const auto spec = apps::makeBenchmarkApp(8);
    system.install(spec);
    system.launch(spec);
    for (int i = 0; i < 20; ++i) {
        system.rotate();
        system.waitHandlingComplete();
        system.runFor(seconds(1));
    }
    return sim::metricsJson(system, &registry);
}

void
writeJson(const std::string &path, const std::vector<WorkloadResult> &loads,
          const MatrixResult &matrix, const std::string &metrics_json)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"rchdroid_simcore_bench/1\",\n");
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"single_thread\": {\n");
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const auto &load = loads[i];
        std::fprintf(out,
                     "    \"%s\": {\"events\": %.0f, \"wall_seconds\": %.4f, "
                     "\"events_per_sec\": %.0f}%s\n",
                     load.name.c_str(), load.events, load.wall_seconds,
                     load.eventsPerSec(), i + 1 < loads.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"parallel_matrix\": {\n");
    std::fprintf(out, "    \"cells\": %zu,\n", matrix.cells);
    std::fprintf(out, "    \"runs_per_cell\": %d,\n", matrix.runs_per_cell);
    std::fprintf(out, "    \"jobs\": %d,\n", matrix.jobs);
    std::fprintf(out, "    \"serial_seconds\": %.4f,\n",
                 matrix.serial_seconds);
    std::fprintf(out, "    \"parallel_seconds\": %.4f,\n",
                 matrix.parallel_seconds);
    std::fprintf(out, "    \"speedup\": %.3f,\n", matrix.speedup());
    std::fprintf(out, "    \"identical_to_serial\": %s\n",
                 matrix.identical ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"pre_change_reference\": {\n");
    std::fprintf(out,
                 "    \"note\": \"same workloads on the pre-overhaul core "
                 "(sorted-vector queue), 1-core dev container\",\n");
    std::fprintf(out, "    \"looper_pingpong_events_per_sec\": %.0f,\n",
                 kPreChangePingpongEps);
    std::fprintf(out, "    \"deep_queue_events_per_sec\": %.0f,\n",
                 kPreChangeDeepQueueEps);
    std::fprintf(out, "    \"system_rotations_events_per_sec\": %.0f\n",
                 kPreChangeRotationsEps);
    std::fprintf(out, "  },\n");
    // Metrics snapshot of a short instrumented rotation run (the timed
    // workloads above ran registry-free).
    std::string metrics = metrics_json;
    while (!metrics.empty() &&
           (metrics.back() == '\n' || metrics.back() == ' '))
        metrics.pop_back();
    std::fprintf(out, "  \"metrics\": %s\n",
                 metrics.empty() ? "{}" : metrics.c_str());
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
}

int
run(int jobs, const std::string &out_path)
{
    printHeader("simcore", "event-core throughput and parallel speedup");

    std::vector<WorkloadResult> loads;
    loads.push_back(runPingpong());
    loads.push_back(runDeepQueue());
    loads.push_back(runRotations());

    TablePrinter table({"workload", "events", "wall (s)", "events/sec"});
    for (const auto &load : loads) {
        table.addRow({load.name, formatDouble(load.events, 0),
                      formatDouble(load.wall_seconds, 3),
                      formatDouble(load.eventsPerSec(), 0)});
    }
    table.print();

    const auto matrix = runMatrix(jobs);
    std::printf("\nparallel matrix: %zu cells x %d runs, jobs=%d "
                "(hardware: %u)\n",
                matrix.cells, matrix.runs_per_cell, matrix.jobs,
                std::thread::hardware_concurrency());
    std::printf("serial %.2f s, parallel %.2f s -> speedup %.2fx\n",
                matrix.serial_seconds, matrix.parallel_seconds,
                matrix.speedup());
    std::printf("parallel aggregate bit-identical to serial: %s\n",
                matrix.identical ? "yes" : "NO");

    writeJson(out_path, loads, matrix, collectMetricsJson());
    return matrix.identical ? 0 : 1;
}

} // namespace
} // namespace rchdroid::bench

int
main(int argc, char **argv)
{
    const int jobs = rchdroid::bench::parseJobsFlag(argc, argv);
    std::string out_path = "BENCH_simcore.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
    }
    return rchdroid::bench::run(jobs, out_path);
}
