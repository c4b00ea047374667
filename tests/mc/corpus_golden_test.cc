/**
 * @file
 * Golden-file pin of the model checker's per-app verdicts: every
 * sa::fullCorpus() app under both handling modes, explored at depth 8
 * with the checker's defaults (makeAppScenario with expect_clean from
 * sa::analyzeApp, default oracles, analysis and reduction on, the
 * scenario's independence spec). Each scenario's executions, schedules
 * covered, truncation flag, violation count and first violating oracle
 * must equal tests/mc/corpus_golden.json, one line per app.
 *
 * After an intentional change, regenerate with
 *
 *   RCHDROID_UPDATE_GOLDEN=1 ./tests/mc/corpus_golden_test
 *
 * and review the diff of tests/mc/corpus_golden.json like any other
 * source change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/app_scenario.h"
#include "mc/explorer.h"
#include "platform/logging.h"
#include "sa/sweep.h"

namespace rchdroid::mc {
namespace {

constexpr int kDepth = 8;

/** One scenario's exploration counters and verdict as a JSON object. */
std::string
exploreToJson(const apps::AppSpec &spec, sa::HandlingModel handling,
              bool expect_clean)
{
    const Scenario scenario = makeAppScenario(spec, handling, expect_clean);
    ExplorerOptions options;
    options.scenario = &scenario;
    options.max_depth = kDepth;
    options.run_analysis = true;
    options.reduction = true;
    if (!scenario.independence.empty())
        options.independence = &scenario.independence;
    const ExplorerReport report = explore(options);
    const ExplorerStats &stats = report.stats;
    return std::string("{\"executions\": ") +
           std::to_string(stats.executions) +
           ", \"schedules_covered\": " +
           std::to_string(stats.schedules_covered) +
           ", \"truncated\": " + (stats.truncated ? "true" : "false") +
           ", \"violations\": " + std::to_string(report.violations.size()) +
           ", \"first_violation\": " +
           (report.violations.empty()
                ? std::string("null")
                : "\"" + report.violations.front().oracle + "\"") +
           "}";
}

std::string
corpusJson()
{
    ScopedLogSilencer quiet;
    std::string out = "{\"depth\": " + std::to_string(kDepth) +
                      ", \"apps\": [\n";
    const std::vector<apps::AppSpec> corpus = sa::fullCorpus();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const apps::AppSpec &spec = corpus[i];
        const sa::AppVerdict verdict = sa::analyzeApp(spec);
        out += "  {\"app\": \"" + spec.name + "\"";
        for (const sa::HandlingModel handling :
             {sa::HandlingModel::Stock, sa::HandlingModel::RchDroid}) {
            out += std::string(", \"") + sa::handlingModelName(handling) +
                   "\": " +
                   exploreToJson(spec, handling, verdict.cleanFor(handling));
        }
        out += i + 1 < corpus.size() ? "},\n" : "}\n";
    }
    out += "]}\n";
    return out;
}

/** Line `number` (1-based) of `text`, without its newline. */
std::string
lineAt(const std::string &text, std::size_t number)
{
    std::istringstream in(text);
    std::string line;
    for (std::size_t i = 0; i < number && std::getline(in, line); ++i) {
    }
    return line;
}

TEST(CorpusGolden, EveryAppAndModeExploresAsPinned)
{
    const std::string actual = corpusJson();
    const std::string path = RCHDROID_CORPUS_GOLDEN;

    if (std::getenv("RCHDROID_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run with RCHDROID_UPDATE_GOLDEN=1 once";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string expected = buffer.str();

    // On mismatch, show the first diverging line: one app, both modes.
    if (actual != expected) {
        std::size_t line = 1, at = 0;
        const std::size_t limit = std::min(actual.size(), expected.size());
        while (at < limit && actual[at] == expected[at]) {
            if (actual[at] == '\n')
                ++line;
            ++at;
        }
        FAIL() << "corpus exploration diverges from the golden at line "
               << line << "\n  golden: " << lineAt(expected, line)
               << "\n  actual: " << lineAt(actual, line)
               << "\nif the change is intentional, regenerate with "
                  "RCHDROID_UPDATE_GOLDEN=1 and review the JSON diff";
    }
}

} // namespace
} // namespace rchdroid::mc
