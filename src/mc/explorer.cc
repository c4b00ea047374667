#include "mc/explorer.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "platform/logging.h"

namespace rchdroid::mc {

namespace {

/** A slept event: its id plus the footprint observed when explored. */
struct SleepEntry
{
    EventId id = kInvalidEventId;
    std::set<std::string> footprint;
    /** Static summary of the same segment, for the MHP oracle. */
    SegmentSummary segment;
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

class Explorer
{
  public:
    explicit Explorer(const ExplorerOptions &options) : options_(options) {}

    ExplorerReport
    run()
    {
        std::vector<int> prefix;
        ExecutionResult root = execute(prefix);
        report_.stats.schedules_covered = dfs(prefix, root, 0, {});
        report_.stats.distinct_states = visited_.size();
        return std::move(report_);
    }

  private:
    using VisitedKey = std::tuple<std::uint64_t, int, int>;

    /**
     * May the two segments be swapped without observable difference,
     * per the static oracle alone? Requires every dispatched class to
     * be known to the spec, pairwise class independence, no barrier,
     * and no post collision on one (looper, due-time) queue slot (two
     * posts into the same slot dispatch in enqueue order, so swapping
     * them is observable; posts into distinct slots dispatch in
     * due-time order either way — the queue-ordering argument in
     * DESIGN.md §14).
     */
    bool
    staticallyIndependent(const SegmentSummary &a,
                          const SegmentSummary &b) const
    {
        const sa::IndependenceSpec *spec = options_.independence;
        if (spec == nullptr || spec->empty())
            return false;
        if (a.barrier || b.barrier)
            return false;
        if (a.classes.empty() || b.classes.empty())
            return false; // injection / unknown content: stay dynamic
        for (const std::string &key_a : a.classes) {
            const sa::StepClass *class_a = spec->find(key_a);
            if (class_a == nullptr)
                return false;
            for (const std::string &key_b : b.classes) {
                const sa::StepClass *class_b = spec->find(key_b);
                if (class_b == nullptr)
                    return false;
                if (!spec->independentClasses(*class_a, *class_b))
                    return false;
            }
        }
        for (const auto &post : a.posts) {
            if (b.posts.count(post))
                return false;
        }
        return true;
    }

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

    ExecutionResult
    execute(const std::vector<int> &schedule)
    {
        ++report_.stats.executions;
        ExecutionOptions eo;
        eo.scenario = options_.scenario;
        eo.schedule = schedule;
        eo.max_choice_points = options_.max_depth;
        eo.oracles = options_.oracles;
        eo.run_analysis = options_.run_analysis;
        eo.fingerprints = options_.reduction;
        // The DFS reads a branch only from its divergence point on: the
        // states before it are the spine's (see dfs()).
        eo.known_states = schedule.size();
        ExecutionResult result = runExecution(eo);
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
        return result;
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

        std::uint64_t covered = 0;
        std::vector<SleepEntry> explored;
        const bool prune_siblings =
            options_.reduction && oracleAllowsPrune(cp);
        for (int i = 0; i < static_cast<int>(cp.options.size()); ++i) {
            if (truncated_)
                break;
            const ChoiceOption &option = cp.options[i];
            if (prune_siblings && i != cp.chosen) {
                ++report_.stats.mhp_prunes;
                continue;
            }
            const bool is_event = option.kind == ChoiceOption::Kind::Event;
            if (options_.reduction && is_event &&
                std::any_of(sleep.begin(), sleep.end(),
                            [&option](const SleepEntry &entry) {
                                return entry.id == option.event_id;
                            })) {
                ++report_.stats.sleep_skips;
                continue;
            }

            prefix.push_back(i);
            ExecutionResult branch;
            const ExecutionResult *child = nullptr;
            if (i == cp.chosen) {
                child = &spine; // the spine already took this option
            } else if (report_.stats.executions >=
                       options_.max_executions) {
                truncated_ = true;
                report_.stats.truncated = true;
                prefix.pop_back();
                break;
            } else {
                branch = execute(prefix);
                child = &branch;
            }

            static const std::set<std::string> kEmpty;
            static const SegmentSummary kEmptySegment;
            const bool has_cp = child->choice_points.size() > level;
            const std::set<std::string> &footprint =
                has_cp ? child->choice_points[level].segment_footprint
                       : kEmpty;
            const SegmentSummary &segment =
                has_cp ? child->choice_points[level].segment
                       : kEmptySegment;

            std::vector<SleepEntry> child_sleep;
            if (options_.reduction) {
                for (const std::vector<SleepEntry> *source :
                     {&sleep, &explored}) {
                    for (const SleepEntry &entry : *source) {
                        bool keep = !footprintsIntersect(entry.footprint,
                                                         footprint);
                        if (!keep && staticallyIndependent(entry.segment,
                                                           segment)) {
                            // Dynamic footprints touched the same
                            // looper names, but the oracle proves the
                            // segments commute: stay asleep.
                            keep = true;
                            ++report_.stats.mhp_sleep_keeps;
                        }
                        if (keep)
                            child_sleep.push_back(entry);
                    }
                }
            }
            covered += dfs(prefix, *child, level + 1,
                           std::move(child_sleep));
            prefix.pop_back();

            if (options_.reduction && is_event)
                explored.push_back(
                    SleepEntry{option.event_id, footprint, segment});
        }

        if (options_.reduction && !truncated_)
            visited_[key] = covered;
        return covered;
    }

    ExplorerOptions options_;
    ExplorerReport report_;
    std::map<VisitedKey, std::uint64_t> visited_;
    std::set<std::pair<std::string, std::string>> seen_;
    bool truncated_ = false;
};

} // namespace

ExplorerReport
explore(const ExplorerOptions &options)
{
    RCH_ASSERT(options.scenario != nullptr, "explore without scenario");
    return Explorer(options).run();
}

} // namespace rchdroid::mc
