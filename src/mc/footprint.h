/**
 * @file
 * FootprintRecorder: the model checker's subscriber on the observer
 * chain. It records the *footprint* of the step currently executing:
 * which loopers it dispatched on or posted to.
 *
 * Footprints are the one independence relation the sleep-set reduction
 * uses (src/mc/explorer.h): two scheduling choices whose footprints are
 * disjoint commute, so only one of their two orders needs exploring.
 * The recorder starts stopped and records only the steps the explorer
 * reads: runExecution points it at a choice point's segment footprint
 * before each such step, and stops it for construction, setup,
 * replayed prefix steps and the tail.
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

#include "os/observer.h"

namespace rchdroid::mc {

/** Footprint recorder. See file comment. */
class FootprintRecorder final : public obs::Observer
{
  public:
    /**
     * Add the looper names the following steps touch (dispatches and
     * message sends; "<barrier>" for a sync barrier) to `footprint`,
     * until the next record() or stop(). It must outlive the recording.
     */
    void record(std::set<std::string> &footprint) { footprint_ = &footprint; }
    /** Record nothing until the next record(). */
    void stop() { footprint_ = nullptr; }

    void onMessageSend(Looper &target, std::uint64_t msg_id) override;
    void onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                         const std::string &tag) override;
    void onSyncBarrier(const void *scope, const char *label) override;

  private:
    /** Where the current step records; null while stopped. */
    std::set<std::string> *footprint_ = nullptr;
};

} // namespace rchdroid::mc

#endif // RCHDROID_MC_FOOTPRINT_H
