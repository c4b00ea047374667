/**
 * @file
 * Analyzer: the analysis subsystem's facade — one subscriber of the
 * os-level observer chain, owning the race detector, the lifecycle
 * protocol checker, the shared ViolationSink, and a ring buffer of
 * recent events that every violation report carries as a timeline.
 *
 * Subscription is RAII-scoped (ScopedAnalyzer) and idempotent: a guard
 * only subscribes when no other analyzer is on the chain, so a test
 * that subscribes its own analyzer wins over the one AndroidSystem
 * would bring. By default the subsystem is on in debug builds and off
 * in release; the RCHDROID_ANALYSIS / RCHDROID_ANALYSIS_ABORT
 * environment variables override in both directions, which is how
 * every tier-1 ctest run gets the checkers with abort-on-violation
 * armed regardless of build type.
 */
#ifndef RCHDROID_ANALYSIS_ANALYZER_H
#define RCHDROID_ANALYSIS_ANALYZER_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/execution_context.h"
#include "analysis/lifecycle_checker.h"
#include "analysis/race_detector.h"
#include "analysis/violation.h"
#include "os/observer.h"

namespace rchdroid::analysis {

/** How the Analyzer reacts to findings. */
struct AnalyzerOptions
{
    /** Panic on the first violation (how tier-1 tests run). */
    bool abort_on_violation = false;
    /** Recent-event ring attached to every report. */
    std::size_t timeline_capacity = 64;
};

/**
 * The observer: dispatch/lifecycle/access events fan out to both
 * checkers and into the timeline ring.
 */
class Analyzer final : public obs::Observer
{
  public:
    explicit Analyzer(AnalyzerOptions options = {});

    ViolationSink &sink() { return sink_; }
    const ViolationSink &sink() const { return sink_; }
    RaceDetector &raceDetector() { return races_; }
    const RaceDetector &raceDetector() const { return races_; }
    LifecycleChecker &lifecycleChecker() { return lifecycle_; }
    const LifecycleChecker &lifecycleChecker() const { return lifecycle_; }
    const ExecutionContext &context() const { return context_; }
    const AnalyzerOptions &options() const { return options_; }

    /** One-line "N violations (x races, y lifecycle, ...)" summary. */
    std::string summary() const;

    /** @name Observer implementation
     * @{
     */
    void onLooperCreated(Looper &looper) override;
    void onLooperDestroyed(Looper &looper) override;
    void onMessageSend(Looper &target, std::uint64_t msg_id) override;
    void onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                         const std::string &tag) override;
    void onDispatchEnd(Looper &looper, SimTime start, SimTime end) override;
    void onSyncBarrier(const void *scope, const char *label) override;
    void onSharedAccess(const void *object, const char *kind,
                        const std::string &label, bool is_write) override;
    void onObjectGone(const void *object) override;
    void onLifecycleTransition(const void *activity, const void *scope,
                               const std::string &component,
                               std::uint64_t instance_id, std::uint8_t from,
                               std::uint8_t to) override;
    void onActivityGone(const void *activity) override;
    void onDestroyedViewMutation(const void *view, const char *kind,
                                 const std::string &label) override;
    void onAppCodeBegin() override;
    void onAppCodeEnd() override;
    /** @} */

  private:
    /**
     * One timeline event, kept raw: the ring fills on every dispatch,
     * barrier and transition, but is formatted only when a report
     * reads it.
     */
    struct TimelineEntry
    {
        enum class Kind : std::uint8_t { Dispatch, Barrier, Lifecycle };

        Kind kind = Kind::Dispatch;
        SimTime time = 0;
        /** Looper name (Dispatch) or component (Lifecycle). */
        std::string name;
        /** Message tag (Dispatch) or barrier label (Barrier). */
        std::string tag;
        /** Message id (Dispatch) or instance id (Lifecycle). */
        std::uint64_t id = 0;
        LifecycleState from = LifecycleState::Initial;
        LifecycleState to = LifecycleState::Initial;
    };

    /** The slot the next event overwrites, or null at capacity 0. */
    TimelineEntry *nextTimelineSlot();
    /** The ring as report lines, oldest first. */
    std::vector<std::string> timelineLines() const;

    AnalyzerOptions options_;
    ViolationSink sink_;
    ExecutionContext context_;
    RaceDetector races_;
    LifecycleChecker lifecycle_;
    /** Up to timeline_capacity entries; once full, the oldest is at
     * timeline_next_. */
    std::vector<TimelineEntry> timeline_;
    std::size_t timeline_next_ = 0;
};

/**
 * RAII subscriber. Owns an Analyzer and subscribes it to this thread's
 * observer chain — unless another analyzer is already subscribed, in
 * which case this guard is inert (installed() == false) and the earlier
 * one keeps receiving the events. The chain is thread-local, so systems
 * running on parallel experiment workers each get their own analyzer.
 */
class ScopedAnalyzer
{
  public:
    explicit ScopedAnalyzer(AnalyzerOptions options = {});

    ScopedAnalyzer(const ScopedAnalyzer &) = delete;
    ScopedAnalyzer &operator=(const ScopedAnalyzer &) = delete;

    /** False when another analyzer was already subscribed. */
    bool installed() const { return subscription_.has_value(); }

    /** This guard's analyzer (inert when !installed()). */
    Analyzer &analyzer() { return analyzer_; }
    const Analyzer &analyzer() const { return analyzer_; }

  private:
    Analyzer analyzer_;
    std::optional<obs::Subscription> subscription_;
};

/** The newest analyzer on this thread's observer chain, or null. */
Analyzer *subscribedAnalyzer();

/** @name Environment-driven defaults
 * RCHDROID_ANALYSIS=1/0 forces the subsystem on/off (default: on in
 * debug builds, off in release). RCHDROID_ANALYSIS_ABORT=1/0 likewise
 * controls abort-on-violation (default: off).
 * @{
 */
bool analysisEnabledByDefault();
bool analysisAbortByDefault();
/** AnalyzerOptions seeded from the environment. */
AnalyzerOptions optionsFromEnv();
/** @} */

/**
 * Opt-in checking for tools and examples: strips a `--check` flag from
 * argv and, when present, installs an analyzer for the program's
 * lifetime. Call finish() last to print the summary and get the exit
 * status.
 */
class CheckMode
{
  public:
    /** Scans argv for "--check"; removes it and arms the analyzer. */
    CheckMode(int &argc, char **argv);

    bool enabled() const { return guard_.has_value(); }

    Analyzer *analyzer()
    { return guard_ ? &guard_->analyzer() : nullptr; }

    /**
     * Print the violation summary (and each stored report).
     * @return 0 when clean or disabled, 1 when violations were found.
     */
    int finish() const;

  private:
    std::optional<ScopedAnalyzer> guard_;
};

} // namespace rchdroid::analysis

#endif // RCHDROID_ANALYSIS_ANALYZER_H
