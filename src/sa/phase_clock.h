/**
 * @file
 * Host time per static-analyzer phase: what rchdroid_sa reports as
 * `phase_us`.
 *
 * analyzeApp() splits its host time into PhaseTimes fields through one
 * PhaseClock. Each lap() charges the time since the previous lap to one
 * phase, so a phase nested in another (the async_race checker's graph
 * and closure, inside the checkers) is charged to itself only. A clock
 * made without a PhaseTimes never reads the clock: callers that do not
 * ask for timings pay nothing.
 */
#ifndef RCHDROID_SA_PHASE_CLOCK_H
#define RCHDROID_SA_PHASE_CLOCK_H

#include <cstdint>
#include <string>

namespace rchdroid::sa {

/** Host ns per phase, summed over every app analyzed with it. */
struct PhaseTimes
{
    /** compile(), both handling models. */
    std::int64_t compile_ns = 0;
    /** solve(), both handling models. */
    std::int64_t dataflow_ns = 0;
    /** buildConcurrencyGraph() in the async_race checker. */
    std::int64_t graph_ns = 0;
    /** computeMhp() in the async_race checker. */
    std::int64_t mhp_ns = 0;
    /** The checkers' own work, racePairs included. */
    std::int64_t checkers_ns = 0;
    /** All of analyzeApp(), verdict assembly included. */
    std::int64_t total_ns = 0;

    /** `{"compile": 95.1, ..., "total": 466.0}` in µs, one line. */
    std::string toJson() const;
};

/** Charges host time to the phases of one PhaseTimes. */
class PhaseClock
{
  public:
    /** Reads the clock only when `times` is not null. */
    explicit PhaseClock(PhaseTimes *times);

    /** Charge the time since the previous lap to `phase`. */
    void lap(std::int64_t PhaseTimes::*phase);

    /** Charge the time since construction to total_ns. */
    void finish();

  private:
    PhaseTimes *times_;
    std::int64_t start_ = 0;
    std::int64_t last_ = 0;
};

} // namespace rchdroid::sa

#endif // RCHDROID_SA_PHASE_CLOCK_H
