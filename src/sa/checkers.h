/**
 * @file
 * The checker registry: every static rule the analyzer runs over one
 * app's compiled models (stock + RCHDroid) and their flow solutions.
 *
 * Checkers are pure functions of the CheckInput; each registered
 * checker must have a matching test file tests/sa/checker_<name>_test.cc
 * (tools/lint_rules.py rule 4 enforces this against the kCheckers
 * table in checkers.cc).
 *
 * Severity contract:
 *  - Error: the modelled behaviour WILL violate a user-visible
 *    guarantee on some schedule (data loss, crash);
 *  - Warning: a structural inconsistency that degrades a guarantee
 *    (e.g. not RCH-eligible);
 *  - Info: advisory (dead discipline, redundant declarations).
 */
#ifndef RCHDROID_SA_CHECKERS_H
#define RCHDROID_SA_CHECKERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sa/dataflow.h"
#include "sa/model_ir.h"
#include "sa/phase_clock.h"

namespace rchdroid::sa {

enum class Severity : std::uint8_t { Info, Warning, Error };

/** "info" / "warning" / "error". */
const char *severityName(Severity severity);

/** One static finding. */
struct Finding
{
    /** Registry name of the checker that raised it. */
    std::string checker;
    Severity severity = Severity::Warning;
    /** The handling model the finding concerns. */
    HandlingModel handling = HandlingModel::Stock;
    /** The modelled state location involved, or "". */
    std::string location;
    std::string message;
    /**
     * A dynamic run can confirm or refute it (data loss, crash). False
     * for spec-consistency lints; the differential harness only counts
     * checkable findings toward precision.
     */
    bool dynamically_checkable = true;

    /** "error[data_loss/stock] EditText(no id).text: ..." */
    std::string toString() const;
};

/** Everything a checker may look at. */
struct CheckInput
{
    /** The spec both models were compiled from. */
    const apps::AppSpec *spec = nullptr;
    const AppModel *stock = nullptr;
    const AppModel *rch = nullptr;
    const FlowSolution *stock_flow = nullptr;
    const FlowSolution *rch_flow = nullptr;
    /**
     * Charges the async_race checker's graph and closure to their own
     * phases; null when nobody asked for timings.
     */
    PhaseClock *clock = nullptr;
};

using CheckerFn = std::vector<Finding> (*)(const CheckInput &input);

/** One registry row. */
struct CheckerInfo
{
    const char *name;
    const char *summary;
    CheckerFn fn;
};

/** The full registry, in evaluation order. */
const std::vector<CheckerInfo> &checkerRegistry();

/** Run every registered checker; findings in registry order. */
std::vector<Finding> runCheckers(const CheckInput &input);

} // namespace rchdroid::sa

#endif // RCHDROID_SA_CHECKERS_H
