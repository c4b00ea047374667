/**
 * @file
 * Per-app verdicts: the analyzer's end product.
 *
 * analyzeApp() compiles the spec under both handling models, runs the
 * fixpoint and every registered checker, and folds the findings into a
 * ModePrediction per handling model ("will the user's critical state
 * survive? will the app crash?"). The sweep serialises verdicts as JSON
 * (one object per app) for the CI artifact; the differential harness
 * compares them against dynamic observations.
 */
#ifndef RCHDROID_SA_VERDICT_H
#define RCHDROID_SA_VERDICT_H

#include <string>
#include <vector>

#include "apps/app_spec.h"
#include "sa/checkers.h"
#include "sa/model_ir.h"

namespace rchdroid::sa {

/** What the analyzer predicts for one app under one handling model. */
struct ModePrediction
{
    HandlingModel handling = HandlingModel::Stock;
    /** No critical location may lose its value across the change. */
    bool state_preserved = true;
    /** A stale-reference completion may crash the app. */
    bool crash_predicted = false;

    /** No user-visible issue predicted for this mode. */
    bool clean() const { return state_preserved && !crash_predicted; }
};

/** The analyzer's complete answer for one app. */
struct AppVerdict
{
    std::string app;
    std::string critical;
    bool in_place = false;
    ModePrediction stock;
    ModePrediction rch;
    std::vector<Finding> findings;

    const ModePrediction &prediction(HandlingModel handling) const
    {
        return handling == HandlingModel::Stock ? stock : rch;
    }

    /**
     * Statically clean for the mode: no dynamically-checkable
     * error-severity finding concerns it. This is the predicate the
     * soundness contract quantifies over.
     */
    bool cleanFor(HandlingModel handling) const;

    /** One JSON object (no trailing newline). */
    std::string toJson() const;
};

/** Compile, solve, and check one app. */
AppVerdict analyzeApp(const apps::AppSpec &spec);

} // namespace rchdroid::sa

#endif // RCHDROID_SA_VERDICT_H
