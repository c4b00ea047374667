/**
 * @file
 * Self-benchmark of the simulator itself (not a paper figure): the
 * discrete-event core's throughput and the parallel experiment runner's
 * wall-clock speedup.
 *
 * Three single-thread workloads exercise the event core's hot paths —
 * a depth-1 looper ping-pong (fixed per-event overhead: a post, a
 * wakeup re-arm, a dispatch), a deep delayed queue (~2,000 pending
 * messages, so every push and pop sifts through a deep heap), and
 * full-system RCHDroid rotations — followed by the Fig. 10-shaped
 * handling matrix run with jobs=1 and jobs=N to measure the fan-out
 * speedup and to check the parallel aggregate is bit-identical to the
 * serial one.
 *
 * The three serial workloads also report their operator new calls
 * (alloc_counter.cc) in total and per event; on one thread the counts
 * repeat exactly from run to run.
 *
 * Results are printed as a table and written to a machine-readable JSON
 * file (--out=PATH, default BENCH_simcore.json) that the CI perf-smoke
 * job archives. Nothing gates the wall-clock numbers, which are
 * advisory, or the allocation counts: the simulator's virtual-time
 * outputs are pinned exactly by the paper_bench_golden and
 * observability_golden tests instead. The exit
 * status is 1 when the parallel aggregate differs from the serial one.
 * An empty or unopenable path exits 2 before the bench runs, and a
 * failed write exits 2 too.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_common.h"
#include "os/looper.h"
#include "os/scheduler.h"
#include "platform/logging.h"

namespace rchdroid::bench {
namespace {

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
    /** operator new calls over the timed region. */
    std::uint64_t allocations = 0;

    double
    eventsPerSec() const
    {
        return wall_seconds > 0 ? events / wall_seconds : 0.0;
    }

    double
    allocationsPerEvent() const
    {
        return events > 0 ? static_cast<double>(allocations) / events : 0.0;
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
    const std::uint64_t allocations = allocationCount();
    WallTimer timer;
    looper_a.post(bounce, 0, 0, "bounce");
    scheduler.runUntilIdle();
    return {"looper_pingpong", static_cast<double>(kBounces),
            timer.seconds(), allocationCount() - allocations};
}

/**
 * A looper holding ~2000 pending delayed messages while continuously
 * dispatching; each dispatch re-posts itself at a pseudo-random delay so
 * inserts land mid-queue.
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
    const std::uint64_t allocations = allocationCount();
    WallTimer timer;
    for (int i = 0; i < kDepth; ++i)
        looper.post(work, next_delay(), 0, "w");
    while (executed < kEvents && scheduler.step()) {
    }
    return {"deep_queue", static_cast<double>(executed), timer.seconds(),
            allocationCount() - allocations};
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
    const std::uint64_t allocations = allocationCount();
    WallTimer timer;
    for (int i = 0; i < kRotations; ++i) {
        system.rotate();
        system.waitHandlingComplete();
        system.runFor(seconds(1));
    }
    return {"system_rotations",
            static_cast<double>(system.scheduler().executedEvents()),
            timer.seconds(), allocationCount() - allocations};
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
 * Write the report to `out`, opened on `path`, and close it.
 * @return false (after a message) when a write failed.
 */
bool
writeJson(std::FILE *out, const std::string &path,
          const std::vector<WorkloadResult> &loads,
          const MatrixResult &matrix)
{
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"rchdroid_simcore_bench/1\",\n");
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"single_thread\": {\n");
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const auto &load = loads[i];
        std::fprintf(out,
                     "    \"%s\": {\"events\": %.0f, \"wall_seconds\": %.4f, "
                     "\"events_per_sec\": %.0f, \"allocations\": %llu, "
                     "\"allocations_per_event\": %.3f}%s\n",
                     load.name.c_str(), load.events, load.wall_seconds,
                     load.eventsPerSec(),
                     static_cast<unsigned long long>(load.allocations),
                     load.allocationsPerEvent(),
                     i + 1 < loads.size() ? "," : "");
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
    std::fprintf(out, "  }\n");
    std::fprintf(out, "}\n");
    const bool failed = std::ferror(out) != 0;
    if (std::fclose(out) != 0 || failed) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** Run the bench and write its report to `out`, opened on `out_path`. */
int
run(int jobs, std::FILE *out, const std::string &out_path)
{
    printHeader("simcore", "event-core throughput and parallel speedup");

    std::vector<WorkloadResult> loads;
    loads.push_back(runPingpong());
    loads.push_back(runDeepQueue());
    loads.push_back(runRotations());

    TablePrinter table({"workload", "events", "wall (s)", "events/sec",
                        "allocations", "allocs/event"});
    for (const auto &load : loads) {
        table.addRow({load.name, formatDouble(load.events, 0),
                      formatDouble(load.wall_seconds, 3),
                      formatDouble(load.eventsPerSec(), 0),
                      std::to_string(load.allocations),
                      formatDouble(load.allocationsPerEvent(), 3)});
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

    if (!writeJson(out, out_path, loads, matrix))
        return 2;
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
        else
            rchdroid::bench::rejectArgument(argv[0], arg,
                                            "[--jobs=N] [--out=PATH]");
    }
    if (out_path.empty()) {
        std::fprintf(stderr, "--out needs a file name\n");
        return 2;
    }
    // Opened before the bench runs, so a bad path fails at once.
    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
    }
    return rchdroid::bench::run(jobs, out, out_path);
}
