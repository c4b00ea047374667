/**
 * @file
 * FootprintRecorder: the model checker's subscriber on the observer
 * chain. It records the *footprint* of the step currently executing:
 * which loopers it dispatched on or posted to.
 *
 * Footprints feed the sleep-set reduction (src/mc/explorer.h): two
 * scheduling choices whose footprints are disjoint commute, so only one
 * of their two orders needs exploring.
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

    void
    merge(const SegmentSummary &other)
    {
        classes.insert(other.classes.begin(), other.classes.end());
        posts.insert(other.posts.begin(), other.posts.end());
        barrier = barrier || other.barrier;
    }
};

/** Footprint recorder. See file comment. */
class FootprintRecorder final : public obs::Observer
{
  public:
    /** Start recording a fresh footprint for the next step. */
    void
    beginStep()
    {
        footprint_.clear();
        segment_ = SegmentSummary{};
    }
    /** Loopers the step touched (dispatches + message sends). */
    const std::set<std::string> &footprint() const { return footprint_; }
    /** Classes/posts/barrier of the step, for the static oracle. */
    const SegmentSummary &segment() const { return segment_; }

    void onMessageSend(Looper &target, std::uint64_t msg_id, SimTime when,
                       const std::string &tag) override;
    void onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                         const std::string &tag) override;
    void onSyncBarrier(const void *scope, const char *label) override;

  private:
    std::set<std::string> footprint_;
    SegmentSummary segment_;
};

} // namespace rchdroid::mc

#endif // RCHDROID_MC_FOOTPRINT_H
