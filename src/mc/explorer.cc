#include "mc/explorer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "platform/jobs.h"
#include "platform/logging.h"

namespace rchdroid::mc {

namespace {

/** A slept event: its id plus the footprint observed when explored. */
struct SleepEntry
{
    EventId id = kInvalidEventId;
    std::set<std::string> footprint;
};

bool
footprintsIntersect(const std::set<std::string> &a,
                    const std::set<std::string> &b)
{
    // "<barrier>" poisons a footprint: conservatively dependent.
    if (a.count("<barrier>") || b.count("<barrier>"))
        return true;
    for (const std::string &name : a) {
        if (b.count(name))
            return true;
    }
    return false;
}

/** Replay one schedule from the root. Pure, so any thread may run it. */
ExecutionResult
replay(const ExplorerOptions &options, const std::vector<int> &schedule)
{
    ExecutionOptions eo;
    eo.scenario = options.scenario;
    eo.schedule = schedule;
    eo.max_choice_points = options.max_depth;
    eo.oracles = options.oracles;
    eo.run_analysis = options.run_analysis;
    eo.fingerprints = options.reduction;
    // The DFS reads a branch only from its divergence point on: the
    // states before it are the spine's (see Explorer::dfs()).
    eo.known_states = schedule.size();
    return runExecution(eo);
}

/** A branch replay queued ahead of the DFS. Guarded by the pool's mutex. */
struct Branch
{
    std::vector<int> schedule;
    /** Taken off the queue, by a worker or by the DFS itself. */
    bool started = false;
    /** A worker finished it: `result` or `error` is set. Atomic because
     * the DFS also polls it without the mutex. The worker sets it even
     * when the DFS has replayed the branch itself. */
    std::atomic<bool> done{false};
    ExecutionResult result;
    std::exception_ptr error;
};

/**
 * Poll `ready` for up to 200 µs, keeping the caller's core: waking a
 * thread whose core went idle can take longer than a replay
 * (DESIGN.md §11).
 */
template <class Ready>
void
spinUntil(const Ready &ready)
{
    constexpr auto kSpin = std::chrono::microseconds(200);
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    while (!ready() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
}

/**
 * Worker threads that replay queued branches ahead of the DFS, which
 * consumes the results in its own order (DESIGN.md §11). The queue
 * outlives any one node: a node pushes its branches in front of every
 * older node's, and workers take from the front.
 */
class BranchPool
{
  public:
    BranchPool(const ExplorerOptions &options, int workers)
        : options_(options), quiet_(LogConfig::quiet())
    {
        try {
            threads_.reserve(static_cast<std::size_t>(workers));
            for (int w = 0; w < workers; ++w)
                threads_.emplace_back([this] { work(); });
        } catch (...) {
            shutdown();
            throw;
        }
    }

    ~BranchPool() { shutdown(); }

    BranchPool(const BranchPool &) = delete;
    BranchPool &operator=(const BranchPool &) = delete;

    /** Queue one node's branches, in the order the DFS will take them. */
    void
    push(const std::vector<std::shared_ptr<Branch>> &branches)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.insert(queue_.begin(), branches.begin(), branches.end());
            ++pushes_;
        }
        queued_.notify_all();
    }

    /**
     * The branch's result: a worker's, or replayed here. A branch no
     * worker has started is taken off the queue. One a worker is still
     * running after a spin is replayed here as well: replays are
     * deterministic, so either copy serves, and a worker that started
     * cold or lost its core does not stall the DFS. Rethrows what the
     * worker's replay threw.
     */
    ExecutionResult
    take(Branch &branch)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!branch.started) {
            // Every node queued after this branch's is finished, and the
            // DFS took its siblings in queue order: it is the front.
            RCH_ASSERT(!queue_.empty() && queue_.front().get() == &branch,
                       "branch taken out of queue order");
            queue_.pop_front();
            branch.started = true;
        } else {
            lock.unlock();
            spinUntil([&branch] { return branch.done.load(); });
            lock.lock();
            if (branch.done) {
                if (branch.error)
                    std::rethrow_exception(branch.error);
                return std::move(branch.result);
            }
        }
        lock.unlock();
        return replay(options_, branch.schedule);
    }

    /** Drop every queued branch (the search was truncated). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.clear();
    }

  private:
    void
    work()
    {
        LogConfig::setQuiet(quiet_); // thread-local: inherit the DFS's
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (queue_.empty() && !stop_) {
                const std::uint64_t seen = pushes_;
                lock.unlock();
                spinUntil([this, seen] {
                    return pushes_.load() != seen || stop_.load();
                });
                lock.lock();
            }
            queued_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_)
                return;
            const std::shared_ptr<Branch> branch = std::move(queue_.front());
            queue_.pop_front();
            branch->started = true;
            lock.unlock();
            ExecutionResult result;
            std::exception_ptr error;
            try {
                result = replay(options_, branch->schedule);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            branch->result = std::move(result);
            branch->error = error;
            branch->done = true;
        }
    }

    /** Drop the queue and join every worker after its current replay. */
    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
            queue_.clear();
        }
        queued_.notify_all();
        for (std::thread &thread : threads_)
            thread.join();
    }

    const ExplorerOptions &options_;
    /** The creating thread's LogConfig::quiet(). */
    const bool quiet_;
    std::mutex mutex_;
    std::condition_variable queued_;
    /** Next branch for a worker at the front. */
    std::deque<std::shared_ptr<Branch>> queue_;
    /** push() calls so far; idle workers spin on it (and on stop_)
     * before they block. */
    std::atomic<std::uint64_t> pushes_{0};
    std::atomic<bool> stop_{false};
    /** Last, so the workers are joined before what they use goes. */
    std::vector<std::thread> threads_;
};

/**
 * Replays a search runs on the DFS thread alone before it starts the
 * pool. Starting three workers, their cold first replays and the join
 * cost a few replays on a quiet VM and tens when the host is loaded,
 * so a search this small (a corpus scenario at depth 8 takes 10–25)
 * gains nothing from them (DESIGN.md §11).
 */
constexpr std::uint64_t kSerialReplays = 16;

/** What a node does with one of its options. */
enum class Sibling : std::uint8_t {
    /** The spine's own choice: its subtree continues the spine. */
    Spine,
    /** Skipped by static persistent-set pruning. */
    Pruned,
    /** Skipped: asleep in the inherited sleep set. */
    Asleep,
    /** Replayed from the root as a new branch. */
    Replay,
};

class Explorer
{
  public:
    explicit Explorer(const ExplorerOptions &options)
        : options_(options), workers_(defaultJobs() - 1)
    {
    }

    ExplorerReport
    run()
    {
        std::vector<int> prefix;
        const ExecutionResult root = replay(options_, prefix);
        account(prefix, root);
        report_.stats.schedules_covered = dfs(prefix, root, 0, {});
        report_.stats.distinct_states = visited_.size();
        return std::move(report_);
    }

  private:
    using VisitedKey = std::tuple<std::uint64_t, int, int>;

    /**
     * Is {option 0} a persistent set at this choice point? True when
     * the spec is closed-world process-isolated and every option is an
     * event on a looper the spec maps to a *distinct* process: the
     * options pairwise commute (different processes never interact
     * under the isolation obligation), every future event stays inside
     * one listed process too, so exploring only the default covers the
     * whole subtree up to Mazurkiewicz equivalence.
     */
    bool
    oracleAllowsPrune(const ChoicePoint &cp) const
    {
        const sa::IndependenceSpec *spec = options_.independence;
        if (spec == nullptr || !spec->processIsolated())
            return false;
        std::set<std::string> processes;
        for (const ChoiceOption &option : cp.options) {
            if (option.kind != ChoiceOption::Kind::Event)
                return false; // injections/end are global
            const std::string *process = spec->looperProcess(option.label);
            if (process == nullptr || !processes.insert(*process).second)
                return false;
        }
        return true;
    }

    /** What the node does with option `i` (see dfs()). */
    Sibling
    classify(const ChoicePoint &cp, int i, bool prune_siblings,
             const std::vector<SleepEntry> &sleep) const
    {
        const ChoiceOption &option = cp.options[i];
        if (prune_siblings && i != cp.chosen)
            return Sibling::Pruned;
        if (options_.reduction &&
            option.kind == ChoiceOption::Kind::Event &&
            std::any_of(sleep.begin(), sleep.end(),
                        [&option](const SleepEntry &entry) {
                            return entry.id == option.event_id;
                        }))
            return Sibling::Asleep;
        return i == cp.chosen ? Sibling::Spine : Sibling::Replay;
    }

    /**
     * Queue the node's replays on the pool, starting it at the first
     * one. Returns them in DFS order; empty when there are no workers
     * or the search is still in its first kSerialReplays replays.
     */
    std::vector<std::shared_ptr<Branch>>
    speculate(const std::vector<int> &prefix, const ChoicePoint &cp,
              bool prune_siblings, const std::vector<SleepEntry> &sleep)
    {
        std::vector<std::shared_ptr<Branch>> branches;
        if (workers_ == 0 || report_.stats.executions < kSerialReplays)
            return branches;
        for (int i = 0; i < static_cast<int>(cp.options.size()); ++i) {
            if (classify(cp, i, prune_siblings, sleep) != Sibling::Replay)
                continue;
            auto branch = std::make_shared<Branch>();
            branch->schedule = prefix;
            branch->schedule.push_back(i);
            branches.push_back(std::move(branch));
        }
        if (branches.empty())
            return branches;
        if (!pool_)
            pool_.emplace(options_, workers_);
        pool_->push(branches);
        return branches;
    }

    /** Fold one execution into the report. Runs in DFS order. */
    void
    account(const std::vector<int> &schedule, const ExecutionResult &result)
    {
        ++report_.stats.executions;
        report_.stats.fingerprints += result.fingerprints_computed;
        // "Replayed" = redundant prefix work: events this execution
        // re-ran up to its divergence point (the last schedule entry)
        // that an earlier execution had already performed.
        if (!schedule.empty() &&
            schedule.size() <= result.choice_points.size())
            report_.stats.events_replayed +=
                result.choice_points[schedule.size() - 1].events_before;
        for (const McViolation &violation : result.violations) {
            if (!seen_.insert({violation.oracle, violation.summary}).second)
                continue;
            report_.violations.push_back(violation);
        }
        if (!result.violations.empty() &&
            report_.first_violation_schedule.empty()) {
            // Normalise to exactly what the execution chose, so the
            // replay is self-contained even if `schedule` was shorter.
            for (const ChoicePoint &cp : result.choice_points)
                report_.first_violation_schedule.push_back(cp.chosen);
            if (report_.first_violation_schedule.empty())
                report_.first_violation_schedule.push_back(0);
        }
    }

    /**
     * Explore the subtree below `prefix`; `spine` is an execution whose
     * schedule extends `prefix` with defaults. Returns the number of
     * schedules the subtree covers.
     */
    std::uint64_t
    dfs(std::vector<int> &prefix, const ExecutionResult &spine,
        std::size_t level, std::vector<SleepEntry> sleep)
    {
        if (truncated_)
            return 0;
        if (level >= spine.choice_points.size())
            return 1; // the path ran out of choice points: one schedule
        ++report_.stats.nodes;
        const ChoicePoint &cp = spine.choice_points[level];

        VisitedKey key{cp.fingerprint_before,
                       options_.max_depth - static_cast<int>(level),
                       cp.injections_left};
        if (options_.reduction) {
            auto it = visited_.find(key);
            if (it != visited_.end()) {
                ++report_.stats.visited_hits;
                return it->second;
            }
        }

        // What each option does depends only on the node and the
        // inherited sleep set, never on the siblings explored before
        // it, so the replays are fixed here and can run ahead.
        const bool prune_siblings =
            options_.reduction && oracleAllowsPrune(cp);
        const std::vector<std::shared_ptr<Branch>> queued =
            speculate(prefix, cp, prune_siblings, sleep);
        std::size_t next_queued = 0;

        std::uint64_t covered = 0;
        std::vector<SleepEntry> explored;
        for (int i = 0; i < static_cast<int>(cp.options.size()); ++i) {
            if (truncated_)
                break;
            const Sibling sibling = classify(cp, i, prune_siblings, sleep);
            if (sibling == Sibling::Pruned) {
                ++report_.stats.mhp_prunes;
                continue;
            }
            if (sibling == Sibling::Asleep) {
                ++report_.stats.sleep_skips;
                continue;
            }

            prefix.push_back(i);
            ExecutionResult branch;
            const ExecutionResult *child = &spine;
            if (sibling == Sibling::Replay) {
                if (report_.stats.executions >= options_.max_executions) {
                    truncated_ = true;
                    report_.stats.truncated = true;
                    if (pool_)
                        pool_->clear();
                    prefix.pop_back();
                    break;
                }
                branch = queued.empty()
                             ? replay(options_, prefix)
                             : pool_->take(*queued[next_queued++]);
                account(prefix, branch);
                child = &branch;
            }

            static const std::set<std::string> kEmpty;
            const std::set<std::string> &footprint =
                child->choice_points.size() > level
                    ? child->choice_points[level].segment_footprint
                    : kEmpty;

            std::vector<SleepEntry> child_sleep;
            if (options_.reduction) {
                for (const std::vector<SleepEntry> *source :
                     {&sleep, &explored}) {
                    for (const SleepEntry &entry : *source) {
                        if (!footprintsIntersect(entry.footprint, footprint))
                            child_sleep.push_back(entry);
                    }
                }
            }
            covered += dfs(prefix, *child, level + 1,
                           std::move(child_sleep));
            prefix.pop_back();

            const ChoiceOption &option = cp.options[i];
            if (options_.reduction &&
                option.kind == ChoiceOption::Kind::Event)
                explored.push_back(SleepEntry{option.event_id, footprint});
        }

        if (options_.reduction && !truncated_)
            visited_[key] = covered;
        return covered;
    }

    ExplorerOptions options_;
    /** Threads beside the DFS's own: RCHDROID_JOBS (or nproc) - 1. */
    const int workers_;
    ExplorerReport report_;
    std::map<VisitedKey, std::uint64_t> visited_;
    std::set<std::pair<std::string, std::string>> seen_;
    bool truncated_ = false;
    /** Started at the first queued replay; joined when the search ends. */
    std::optional<BranchPool> pool_;
};

} // namespace

ExplorerReport
explore(const ExplorerOptions &options)
{
    RCH_ASSERT(options.scenario != nullptr, "explore without scenario");
    return Explorer(options).run();
}

} // namespace rchdroid::mc
