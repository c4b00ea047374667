/**
 * @file
 * FootprintRecorder: the model checker's subscriber on the observer
 * chain. It records the *footprint* of the step currently executing:
 * which loopers it dispatched on or posted to.
 *
 * Footprints feed the sleep-set reduction (src/mc/explorer.h): two
 * scheduling choices whose footprints are disjoint commute, so only one
 * of their two orders needs exploring. The recorder starts stopped and
 * records only the steps the explorer reads: runExecution points it at
 * a choice point's segment before each such step, and stops it for
 * construction, setup, replayed prefix steps and the tail.
 *
 * runExecution subscribes it (and, for the analysis oracle, its own
 * analysis::Analyzer with abort off) before building the system, and
 * builds the system with analysis_enabled = false: the system's own
 * analyzer would take abort-on-violation from RCHDROID_ANALYSIS_ABORT,
 * which is set for every ctest run and would kill the explorer at its
 * first (intentionally found) violation.
 */
#ifndef RCHDROID_MC_FOOTPRINT_H
#define RCHDROID_MC_FOOTPRINT_H

#include <set>
#include <string>
#include <utility>

#include "os/observer.h"
#include "platform/time.h"

namespace rchdroid::mc {

/**
 * What the static independence oracle needs to know about one executed
 * segment (the chosen step plus its forced single-option successors):
 * the step classes it dispatched, the queue slots it posted into, and
 * whether a sync barrier fired (DESIGN.md §14).
 */
struct SegmentSummary
{
    /** "<looper>#<tag>" key of every dispatch in the segment. */
    std::set<std::string> classes;
    /** (target looper, due time) of every message the segment posted. */
    std::set<std::pair<std::string, SimTime>> posts;
    /** Conservatively dependent on everything when set. */
    bool barrier = false;
};

/** Footprint recorder. See file comment. */
class FootprintRecorder final : public obs::Observer
{
  public:
    /**
     * Add what the following steps touch to `footprint` (looper names;
     * dispatches + message sends) and `segment` (classes, posts,
     * barrier), until the next record() or stop(). Both must outlive
     * the recording.
     */
    void
    record(std::set<std::string> &footprint, SegmentSummary &segment)
    {
        footprint_ = &footprint;
        segment_ = &segment;
    }
    /** Record nothing until the next record(). */
    void
    stop()
    {
        footprint_ = nullptr;
        segment_ = nullptr;
    }

    void onMessageSend(Looper &target, std::uint64_t msg_id, SimTime when,
                       const std::string &tag) override;
    void onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                         const std::string &tag) override;
    void onSyncBarrier(const void *scope, const char *label) override;

  private:
    /** Where the current step records; null while stopped. */
    std::set<std::string> *footprint_ = nullptr;
    SegmentSummary *segment_ = nullptr;
};

} // namespace rchdroid::mc

#endif // RCHDROID_MC_FOOTPRINT_H
