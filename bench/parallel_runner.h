/**
 * @file
 * ParallelRunner: fans the independent cells of an experiment matrix —
 * (AppSpec × RuntimeChangeMode × run) — across hardware threads.
 *
 * Every cell builds its own fully isolated sim::AndroidSystem, and all
 * remaining process-wide simulator state is thread-confined (analysis
 * hooks and Looper::current are thread_local, the log min-level is
 * atomic), so cells may run on any thread in any order. Determinism
 * falls out of indexing: results land in a slot chosen by cell index,
 * and callers aggregate in index order, so the output is bit-identical
 * for any thread count — including jobs=1, which runs inline on the
 * caller with no pool at all.
 */
#ifndef RCHDROID_BENCH_PARALLEL_RUNNER_H
#define RCHDROID_BENCH_PARALLEL_RUNNER_H

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "platform/jobs.h"
#include "platform/logging.h"

namespace rchdroid::bench {

/**
 * Extract a `--jobs=N` (or `--jobs N`) flag from a bench binary's argv.
 * The flag and its value are removed from argv/argc so later argument
 * handling never sees them. N must be a positive integer; a malformed
 * or missing N exits 2.
 * @return the requested job count, or defaultJobs() when the flag is
 *         absent.
 */
inline int
parseJobsFlag(int &argc, char **argv)
{
    std::optional<int> jobs;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0)
            jobs = parseJobCount(arg.substr(7), "--jobs");
        else if (arg == "--jobs")
            jobs = parseJobCount(i + 1 < argc ? argv[++i] : "", "--jobs");
        else
            argv[out++] = argv[i];
    }
    argc = out;
    return jobs ? *jobs : defaultJobs();
}

/**
 * Reject an argument a bench does not take: `unknown flag: <arg>` and
 * the bench's usage line (`flags` lists what it does take) on stderr,
 * then exit 2.
 */
[[noreturn]] inline void
rejectArgument(const char *argv0, const std::string &arg,
               const std::string &flags)
{
    const std::string path = argv0;
    const std::string name = path.substr(path.rfind('/') + 1);
    std::fprintf(stderr, "unknown flag: %s\nusage: %s%s%s\n", arg.c_str(),
                 name.c_str(), flags.empty() ? "" : " ", flags.c_str());
    std::exit(2);
}

/**
 * The command line of a bench whose only flag is `--jobs`.
 * @return the job count (see parseJobsFlag); any other argument is
 *         rejected with rejectArgument().
 */
inline int
parseJobsOnly(int argc, char **argv)
{
    const int jobs = parseJobsFlag(argc, argv);
    if (argc > 1)
        rejectArgument(argv[0], argv[1], "[--jobs=N]");
    return jobs;
}

/**
 * A fixed-width fan-out executor for independent tasks.
 */
class ParallelRunner
{
  public:
    /** @param jobs Worker threads; 0 means defaultJobs(). */
    explicit ParallelRunner(int jobs = 0)
        : jobs_(jobs > 0 ? jobs : defaultJobs())
    {
    }

    int jobs() const { return jobs_; }

    /**
     * Run fn(0) … fn(n-1), each exactly once, and return the results in
     * index order. Tasks must be independent (no shared mutable state);
     * R must be movable. With jobs()==1 everything runs inline on the
     * calling thread in ascending index order — the serial reference
     * the determinism test compares against.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t n, const std::function<R(std::size_t)> &fn) const
    {
        std::vector<std::optional<R>> slots(n);
        const std::size_t workers =
            std::min<std::size_t>(static_cast<std::size_t>(jobs_), n);
        if (workers <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                slots[i].emplace(fn(i));
        } else {
            std::atomic<std::size_t> next{0};
            // Workers inherit the spawning thread's silencer state; the
            // quiet flag is thread-local precisely so pools can scope it.
            const bool quiet = LogConfig::quiet();
            auto work = [&] {
                LogConfig::setQuiet(quiet);
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= n)
                        return;
                    slots[i].emplace(fn(i));
                }
            };
            std::vector<std::thread> pool;
            pool.reserve(workers);
            for (std::size_t w = 0; w < workers; ++w)
                pool.emplace_back(work);
            for (auto &t : pool)
                t.join();
        }
        std::vector<R> out;
        out.reserve(n);
        for (auto &slot : slots)
            out.push_back(std::move(*slot));
        return out;
    }

    /** map() for tasks with no result. */
    void
    forEach(std::size_t n, const std::function<void(std::size_t)> &fn) const
    {
        map<char>(n, [&fn](std::size_t i) {
            fn(i);
            return '\0';
        });
    }

  private:
    int jobs_;
};

} // namespace rchdroid::bench

#endif // RCHDROID_BENCH_PARALLEL_RUNNER_H
