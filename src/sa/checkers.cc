#include "sa/checkers.h"

#include "sa/mhp.h"

namespace rchdroid::sa {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

std::string
Finding::toString() const
{
    std::string out = severityName(severity);
    out += "[";
    out += checker;
    out += "/";
    out += handlingModelName(handling);
    out += "]";
    if (!location.empty()) {
        out += " ";
        out += location;
        out += ":";
    }
    out += " ";
    out += message;
    return out;
}

namespace {

/**
 * The Fig. 1 crash shape, statically: a task that captured raw view
 * references may complete after the change. Under a stock restart the
 * captured instance is destroyed, so the completion mutates dead views
 * (or posts a dialog to a dead window). RCHDroid's shadow keeps the
 * captured instance alive, and the in-place path never tears it down,
 * so only the stock restart model crashes.
 */
bool
staleRefCrashPredicted(const AppModel &model)
{
    return model.handling == HandlingModel::Stock && !model.in_place &&
           model.async.has_task &&
           model.async.capture == AsyncCapture::RawViewRef &&
           model.async.may_straddle_change && !model.async.cancels_on_stop;
}

bool
anyCriticalLoss(const AppModel &model, const FlowSolution &flow)
{
    for (std::size_t i = 0; i < model.locations.size(); ++i) {
        if (model.locations[i].critical &&
            flow.mayLose(model.observationNode(), i))
            return true;
    }
    return false;
}

void
checkDataLossFor(const AppModel &model, const FlowSolution &flow,
                 std::vector<Finding> &findings)
{
    const LcNode observed = model.observationNode();
    for (std::size_t i = 0; i < model.locations.size(); ++i) {
        const StateLocation &location = model.locations[i];
        if (!flow.mayLose(observed, i))
            continue;
        Finding finding;
        finding.checker = "data_loss";
        finding.handling = model.handling;
        finding.location = location.traits.location;
        if (location.critical) {
            finding.severity = Severity::Error;
            finding.dynamically_checkable = true;
            finding.message = "critical state may not survive a runtime "
                              "change (fact at ";
            finding.message += lcNodeName(observed);
            finding.message += " is ";
            finding.message += stateFactName(flow.at(observed, i));
            finding.message += ")";
        } else {
            // verifyCriticalState only observes the table-row state, so
            // companion losses are advisory and excluded from the
            // differential precision count.
            finding.severity = Severity::Info;
            finding.dynamically_checkable = false;
            finding.message = "auxiliary view state may not survive a "
                              "runtime change";
        }
        findings.push_back(std::move(finding));
    }
}

std::vector<Finding>
checkDataLoss(const CheckInput &input)
{
    std::vector<Finding> findings;
    checkDataLossFor(*input.stock, *input.stock_flow, findings);
    checkDataLossFor(*input.rch, *input.rch_flow, findings);
    return findings;
}

std::vector<Finding>
checkStaleReference(const CheckInput &input)
{
    std::vector<Finding> findings;
    if (!staleRefCrashPredicted(*input.stock))
        return findings;
    Finding finding;
    finding.checker = "stale_reference";
    finding.severity = Severity::Error;
    finding.handling = HandlingModel::Stock;
    finding.location = input.stock->async.shows_dialog
                           ? "AsyncTask.onPostExecute(dialog)"
                           : "AsyncTask.onPostExecute(view refs)";
    finding.dynamically_checkable = true;
    finding.message =
        input.stock->async.shows_dialog
            ? "task may outlive the restart and show a dialog on the "
              "destroyed activity (BadTokenException class)"
            : "task captures raw view references and may complete after "
              "the restart destroyed them";
    findings.push_back(std::move(finding));
    return findings;
}

std::vector<Finding>
checkConfigDecl(const CheckInput &input)
{
    std::vector<Finding> findings;
    const apps::AppSpec &spec = *input.spec;

    const bool predicted_issue_stock =
        anyCriticalLoss(*input.stock, *input.stock_flow) ||
        staleRefCrashPredicted(*input.stock);
    const bool predicted_fixed_rch =
        predicted_issue_stock && !anyCriticalLoss(*input.rch, *input.rch_flow);

    auto mismatch = [&](HandlingModel handling, std::string message) {
        Finding finding;
        finding.checker = "config_decl";
        finding.severity = Severity::Warning;
        finding.handling = handling;
        finding.dynamically_checkable = false;
        finding.message = std::move(message);
        findings.push_back(std::move(finding));
    };

    if (spec.expect_issue_stock != predicted_issue_stock) {
        mismatch(HandlingModel::Stock,
                 spec.expect_issue_stock
                     ? "table row expects a stock issue but the model "
                       "predicts a clean restart"
                     : "table row expects stock to be safe but the model "
                       "predicts loss or crash");
    }
    if (spec.expect_fixed_by_rch != predicted_fixed_rch) {
        mismatch(HandlingModel::RchDroid,
                 spec.expect_fixed_by_rch
                     ? "table row expects RCHDroid to fix the issue but "
                       "the model predicts residual loss"
                     : "table row expects RCHDroid not to fix it but the "
                       "model predicts a clean change");
    }
    if (spec.runtimedroid_patched && !spec.handles_config_changes) {
        Finding finding;
        finding.checker = "config_decl";
        finding.severity = Severity::Info;
        finding.handling = HandlingModel::Stock;
        finding.dynamically_checkable = false;
        finding.message =
            "RuntimeDroid patch requires android:configChanges; the "
            "installer supplies it, but the spec should declare it";
        findings.push_back(std::move(finding));
    }
    if (spec.implements_on_save && input.stock->in_place) {
        Finding finding;
        finding.checker = "config_decl";
        finding.severity = Severity::Info;
        finding.handling = HandlingModel::Stock;
        finding.dynamically_checkable = false;
        finding.message =
            "onSaveInstanceState is dead discipline for runtime changes "
            "once android:configChanges suppresses the restart";
        findings.push_back(std::move(finding));
    }
    return findings;
}

std::vector<Finding>
checkRchEligibility(const CheckInput &input)
{
    std::vector<Finding> findings;
    Finding finding;
    finding.checker = "rch_eligibility";
    finding.handling = HandlingModel::RchDroid;
    finding.dynamically_checkable = false;

    if (input.rch->in_place) {
        finding.severity = Severity::Info;
        finding.message = "self-handling: the app declares (or is patched "
                          "to declare) android:configChanges, so RCHDroid "
                          "leaves it alone";
        findings.push_back(std::move(finding));
        return findings;
    }
    // Which critical locations still leak under RCHDroid?
    std::string residual;
    const LcNode observed = input.rch->observationNode();
    for (std::size_t i = 0; i < input.rch->locations.size(); ++i) {
        const StateLocation &location = input.rch->locations[i];
        if (location.critical && input.rch_flow->mayLose(observed, i)) {
            if (!residual.empty())
                residual += ", ";
            residual += location.traits.location;
        }
    }
    if (residual.empty()) {
        finding.severity = Severity::Info;
        finding.message = "eligible: shadow snapshot + lazy migration "
                          "cover every tracked location";
    } else {
        finding.severity = Severity::Warning;
        finding.location = residual;
        finding.message = "ineligible without app cooperation: app-private "
                          "state rides neither the snapshot nor the essence "
                          "mapping (needs onSaveInstanceState)";
    }
    findings.push_back(std::move(finding));
    return findings;
}

/**
 * MHP-backed race checker. Builds each model's concurrency graph,
 * closes happens-before, and reports MHP pairs whose location masks
 * conflict.
 *
 * Per handling model:
 *  - Stock: an async completion racing the restart teardown is exactly
 *    the Fig. 1 crash (Error, dynamically checkable). By construction
 *    this agrees with stale_reference's predicate — the graph has an
 *    async node iff has_task, a raw-ref completion writes the captured
 *    tree iff capture == RawViewRef, !may_straddle adds the
 *    completion→change edge and cancels_on_stop the completion→onStop
 *    edge, and the in-place model has no DestroyViews node at all.
 *  - RCHDroid: the completion may race the shadow GC's CollectShadow
 *    teardown. The gc policy guards this window (thresh_t keeps a
 *    young shadow alive, and releaseShadow runs behind a sync
 *    barrier), so it is a Warning and not dynamically checkable.
 *  - Migrate × CollectShadow MHP pairs exist in the rch graph (the
 *    ShadowAlive fork makes them branch-parallel) but the two arms are
 *    mutually exclusive at runtime — one shadow either migrates or is
 *    collected — so this checker suppresses them (racePairs reports
 *    every conflicting MHP pair).
 */
std::vector<Finding>
checkAsyncRace(const CheckInput &input)
{
    std::vector<Finding> findings;
    const auto lap = [&input](std::int64_t PhaseTimes::*phase) {
        if (input.clock != nullptr)
            input.clock->lap(phase);
    };

    auto scan = [&](const AppModel &model, const FlowSolution &flow) {
        lap(&PhaseTimes::checkers_ns);
        const ConcurrencyGraph graph = buildConcurrencyGraph(model, flow);
        lap(&PhaseTimes::graph_ns);
        const MhpResult mhp = computeMhp(graph);
        lap(&PhaseTimes::mhp_ns);
        for (const RacePair &pair : racePairs(graph, mhp)) {
            const CgNode &a = graph.nodes[pair.a];
            const CgNode &b = graph.nodes[pair.b];
            const bool async_involved = a.is_async || b.is_async;
            if (!async_involved)
                continue; // branch-parallel lifecycle arms (see above)
            Finding finding;
            finding.checker = "async_race";
            finding.handling = model.handling;
            finding.location = a.label;
            finding.location += " || ";
            finding.location += b.label;
            if (model.handling == HandlingModel::Stock) {
                finding.severity = Severity::Error;
                finding.dynamically_checkable = true;
                finding.message =
                    "async completion may happen in parallel with the "
                    "restart teardown and touch ";
                finding.message += maskToString(model, pair.locations);
            } else {
                finding.severity = Severity::Warning;
                finding.dynamically_checkable = false;
                finding.message =
                    "async completion is unordered with shadow GC over ";
                finding.message += maskToString(model, pair.locations);
                finding.message +=
                    " (policy-guarded: thresh_t + sync barrier)";
            }
            findings.push_back(std::move(finding));
        }
    };

    scan(*input.stock, *input.stock_flow);
    scan(*input.rch, *input.rch_flow);
    return findings;
}

// tools/lint_rules.py parses this table: every row's name must have a
// matching tests/sa/checker_<name>_test.cc.
const std::vector<CheckerInfo> kCheckers = {
    {"data_loss", "critical state may not survive a runtime change",
     checkDataLoss},
    {"stale_reference",
     "async completion may mutate views of a destroyed instance",
     checkStaleReference},
    {"config_decl",
     "spec/table consistency around android:configChanges declarations",
     checkConfigDecl},
    {"rch_eligibility",
     "can RCHDroid transparently fix this app?", checkRchEligibility},
    {"async_race",
     "MHP pairs with conflicting write/teardown location masks",
     checkAsyncRace},
};

} // namespace

const std::vector<CheckerInfo> &
checkerRegistry()
{
    return kCheckers;
}

std::vector<Finding>
runCheckers(const CheckInput &input)
{
    std::vector<Finding> findings;
    for (const CheckerInfo &checker : kCheckers) {
        std::vector<Finding> batch = checker.fn(input);
        for (Finding &finding : batch)
            findings.push_back(std::move(finding));
    }
    return findings;
}

} // namespace rchdroid::sa
