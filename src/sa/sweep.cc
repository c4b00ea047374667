#include "sa/sweep.h"

#include "apps/corpus.h"

namespace rchdroid::sa {

SweepSummary
SweepResult::summary() const
{
    SweepSummary totals;
    totals.apps = static_cast<int>(verdicts.size());
    for (const AppVerdict &verdict : verdicts) {
        totals.findings += static_cast<int>(verdict.findings.size());
        for (const Finding &finding : verdict.findings) {
            switch (finding.severity) {
              case Severity::Error: ++totals.errors; break;
              case Severity::Warning: ++totals.warnings; break;
              case Severity::Info: ++totals.infos; break;
            }
        }
        if (verdict.stock.clean())
            ++totals.stock_clean;
        if (verdict.rch.clean())
            ++totals.rch_clean;
        if (verdict.in_place) {
            ++totals.self_handling;
        } else if (verdict.rch.clean()) {
            ++totals.rch_eligible;
        } else {
            ++totals.rch_ineligible;
        }
    }
    return totals;
}

std::string
SweepResult::toJson(const PhaseTimes *phases) const
{
    const SweepSummary totals = summary();
    std::string out = "{\"apps\": [\n";
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        out += "  ";
        out += verdicts[i].toJson();
        if (i + 1 < verdicts.size())
            out += ",";
        out += "\n";
    }
    out += "], \"summary\": {\"apps\": ";
    out += std::to_string(totals.apps);
    out += ", \"findings\": ";
    out += std::to_string(totals.findings);
    out += ", \"errors\": ";
    out += std::to_string(totals.errors);
    out += ", \"warnings\": ";
    out += std::to_string(totals.warnings);
    out += ", \"infos\": ";
    out += std::to_string(totals.infos);
    out += ", \"stock_clean\": ";
    out += std::to_string(totals.stock_clean);
    out += ", \"rch_clean\": ";
    out += std::to_string(totals.rch_clean);
    out += ", \"self_handling\": ";
    out += std::to_string(totals.self_handling);
    out += ", \"rch_eligible\": ";
    out += std::to_string(totals.rch_eligible);
    out += ", \"rch_ineligible\": ";
    out += std::to_string(totals.rch_ineligible);
    out += "}";
    if (phases != nullptr) {
        out += ", \"phase_us\": ";
        out += phases->toJson();
    }
    out += "}\n";
    return out;
}

SweepResult
sweep(const std::vector<apps::AppSpec> &specs, PhaseTimes *times)
{
    SweepResult result;
    result.verdicts.reserve(specs.size());
    for (const apps::AppSpec &spec : specs)
        result.verdicts.push_back(analyzeApp(spec, times));
    return result;
}

std::vector<apps::AppSpec>
fullCorpus()
{
    std::vector<apps::AppSpec> specs = apps::tp37();
    for (auto set : {apps::top100(), apps::exampleSpecs()}) {
        for (apps::AppSpec &spec : set)
            specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace rchdroid::sa
