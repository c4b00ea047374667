/**
 * @file
 * Corpus sweep: analyzeApp() over an app set, with aggregate counts and
 * a single JSON document (`{"apps": [...], "summary": {...}}`) the
 * rchdroid_sa binary writes for the CI artifact.
 */
#ifndef RCHDROID_SA_SWEEP_H
#define RCHDROID_SA_SWEEP_H

#include <string>
#include <vector>

#include "apps/app_spec.h"
#include "sa/verdict.h"

namespace rchdroid::sa {

/** Aggregate counts over one sweep. */
struct SweepSummary
{
    int apps = 0;
    int findings = 0;
    int errors = 0;
    int warnings = 0;
    int infos = 0;
    /** Apps predicted clean under the stock restart. */
    int stock_clean = 0;
    /** Apps predicted clean under RCHDroid. */
    int rch_clean = 0;
    /** android:configChanges (or patched): RCHDroid leaves them alone. */
    int self_handling = 0;
    /** RCHDroid fixes them transparently. */
    int rch_eligible = 0;
    /** App-private state RCHDroid cannot reach. */
    int rch_ineligible = 0;
};

/** The sweep's output: one verdict per app, in input order. */
struct SweepResult
{
    std::vector<AppVerdict> verdicts;

    SweepSummary summary() const;
    /**
     * `{"apps": [...], "summary": {...}}`, trailing newline included.
     * With `phases`, a `"phase_us": {...}` member follows the summary.
     */
    std::string toJson(const PhaseTimes *phases = nullptr) const;
};

/**
 * Analyze every app in `specs`. With `times`, also add the host time of
 * each phase, summed over the apps, to it.
 */
SweepResult sweep(const std::vector<apps::AppSpec> &specs,
                  PhaseTimes *times = nullptr);

/**
 * The full evaluation corpus: Table 3 (TP-37), Table 5 (top-100), and
 * the five examples/ stand-ins — every app the repo knows about, each
 * with a verdict in one pass.
 */
std::vector<apps::AppSpec> fullCorpus();

} // namespace rchdroid::sa

#endif // RCHDROID_SA_SWEEP_H
