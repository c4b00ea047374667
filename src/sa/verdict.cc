#include "sa/verdict.h"

#include "platform/strings.h"
#include "sa/dataflow.h"

namespace rchdroid::sa {

bool
AppVerdict::cleanFor(HandlingModel handling) const
{
    for (const Finding &finding : findings) {
        if (finding.handling == handling &&
            finding.severity == Severity::Error &&
            finding.dynamically_checkable)
            return false;
    }
    return true;
}

namespace {

const char *
jsonBool(bool value)
{
    return value ? "true" : "false";
}

std::string
predictionJson(const ModePrediction &prediction)
{
    std::string out = "{\"state_preserved\": ";
    out += jsonBool(prediction.state_preserved);
    out += ", \"crash_predicted\": ";
    out += jsonBool(prediction.crash_predicted);
    out += ", \"clean\": ";
    out += jsonBool(prediction.clean());
    out += "}";
    return out;
}

std::string
findingJson(const Finding &finding)
{
    std::string out = "{\"checker\": \"";
    out += jsonEscape(finding.checker);
    out += "\", \"severity\": \"";
    out += severityName(finding.severity);
    out += "\", \"handling\": \"";
    out += handlingModelName(finding.handling);
    out += "\", \"location\": \"";
    out += jsonEscape(finding.location);
    out += "\", \"message\": \"";
    out += jsonEscape(finding.message);
    out += "\", \"dynamically_checkable\": ";
    out += jsonBool(finding.dynamically_checkable);
    out += "}";
    return out;
}

ModePrediction
foldPrediction(HandlingModel handling, const std::vector<Finding> &findings)
{
    ModePrediction prediction;
    prediction.handling = handling;
    for (const Finding &finding : findings) {
        if (finding.handling != handling ||
            finding.severity != Severity::Error)
            continue;
        if (finding.checker == "data_loss")
            prediction.state_preserved = false;
        else if (finding.checker == "stale_reference" ||
                 finding.checker == "async_race")
            prediction.crash_predicted = true;
    }
    return prediction;
}

} // namespace

std::string
AppVerdict::toJson() const
{
    std::string out = "{\"app\": \"";
    out += jsonEscape(app);
    out += "\", \"critical\": \"";
    out += jsonEscape(critical);
    out += "\", \"in_place\": ";
    out += jsonBool(in_place);
    out += ", \"stock\": ";
    out += predictionJson(stock);
    out += ", \"rchdroid\": ";
    out += predictionJson(rch);
    out += ", \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += findingJson(findings[i]);
    }
    out += "]}";
    return out;
}

AppVerdict
analyzeApp(const apps::AppSpec &spec, PhaseTimes *times)
{
    PhaseClock clock(times);
    const AppModel stock_model = compile(spec, HandlingModel::Stock);
    const AppModel rch_model = compile(spec, HandlingModel::RchDroid);
    clock.lap(&PhaseTimes::compile_ns);
    const FlowSolution stock_flow = solve(stock_model);
    const FlowSolution rch_flow = solve(rch_model);
    clock.lap(&PhaseTimes::dataflow_ns);

    CheckInput input;
    input.spec = &spec;
    input.stock = &stock_model;
    input.rch = &rch_model;
    input.stock_flow = &stock_flow;
    input.rch_flow = &rch_flow;
    input.clock = &clock;

    AppVerdict verdict;
    verdict.app = spec.name;
    verdict.critical = apps::criticalStateName(spec.critical);
    verdict.in_place = stock_model.in_place;
    verdict.findings = runCheckers(input);
    clock.lap(&PhaseTimes::checkers_ns);
    verdict.stock = foldPrediction(HandlingModel::Stock, verdict.findings);
    verdict.rch = foldPrediction(HandlingModel::RchDroid, verdict.findings);
    clock.finish();
    return verdict;
}

} // namespace rchdroid::sa
