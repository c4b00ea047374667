/**
 * @file
 * Safety oracles the explorer evaluates after every controlled step.
 *
 * An oracle is a pure observer: it reads the AndroidSystem under test
 * (and the explorer's analyzer) and reports the first property violation
 * it sees. Oracles must be deterministic functions of the simulator
 * state so a replayed schedule reproduces exactly the same finding.
 *
 * The built-in set ("default oracles"):
 *  - "crash"          any installed app process crashed;
 *  - "analysis"       the PR-1 race detector / lifecycle checker (run
 *                     on every explored schedule by the explorer's
 *                     own analyzer) reported a violation;
 *  - "gc_live_async"  the shadow GC reclaimed an activity that a still
 *                     Pending/Running AsyncTask targets — the data-loss
 *                     class the seeded-bug scenario plants;
 *  - "saved_restore"  on every activity resume: the bundle saved at
 *                     shadow entry must be a subset of the restored
 *                     foreground's state, where each value matches
 *                     either the saved value or the shadow's *current*
 *                     value (lazy migration legitimately advances
 *                     essence past the snapshot — that is not loss).
 *
 * The scenario's final functional check runs separately at the end of
 * an execution and reports under the oracle name "final_state"
 * (src/mc/execution.h).
 */
#ifndef RCHDROID_MC_ORACLES_H
#define RCHDROID_MC_ORACLES_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "platform/time.h"
#include "sim/android_system.h"

namespace rchdroid::mc {

/** One oracle finding, attributed to the oracle that raised it. */
struct McViolation
{
    /** Oracle name ("crash", "analysis", "gc_live_async", ...). */
    std::string oracle;
    /** One-line human description. */
    std::string summary;
    /** Virtual time at which the oracle fired. */
    SimTime time = 0;
};

/** Base class: stateful observer over one execution. */
class Oracle
{
  public:
    virtual ~Oracle() = default;

    virtual const char *name() const = 0;

    /**
     * Called once after scenario setup, before the controlled window.
     * `analyzer` is the explorer's, null when analysis is off.
     */
    virtual void onStart(sim::AndroidSystem &system,
                         const analysis::Analyzer *analyzer)
    {
        (void)system;
        (void)analyzer;
    }

    /** Called after every controlled step; first finding wins. */
    virtual std::optional<McViolation>
    afterStep(sim::AndroidSystem &system,
              const analysis::Analyzer *analyzer) = 0;
};

/**
 * Instantiate oracles by name.
 * @param names Subset of defaultOracleNames(); unknown names throw
 *        std::invalid_argument (the CLI surfaces the message).
 */
std::vector<std::unique_ptr<Oracle>>
makeOracles(const std::vector<std::string> &names);

/** The full built-in set, in evaluation order. */
std::vector<std::string> defaultOracleNames();

} // namespace rchdroid::mc

#endif // RCHDROID_MC_ORACLES_H
