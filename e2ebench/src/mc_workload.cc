/**
 * @file
 * The mc_explore workload: mc::explore with rchdroid_mc's default
 * options (snapshots as the explorer defaults them, the scenario's MHP
 * independence spec, analysis on, all four oracles) over
 *  - the seven catalogue scenarios at depth 16, and
 *  - a seeded sample of corpus app×mode scenarios at depth 8
 *    (makeAppScenario, expect_clean from sa::analyzeApp).
 *
 * One episode is one scenario's exploration: the host time to its
 * verdict. The traced run adds runExecution probes on seeded random
 * schedules that split one execution into construction, bare stepping,
 * fingerprinting, oracles and analysis.
 */
#include <algorithm>
#include <map>
#include <optional>

#include "bench.h"
#include "mc/app_scenario.h"
#include "mc/execution.h"
#include "mc/explorer.h"
#include "mc/independence.h"
#include "mc/oracles.h"
#include "mc/scenario.h"
#include "mc/state_hash.h"
#include "sa/sweep.h"
#include "sa/verdict.h"

namespace e2ebench {

namespace {

using namespace rchdroid;

constexpr int kCatalogueDepth = 16;
constexpr int kCorpusDepth = 8;
/** The catalogue scenario whose planted GC bug the checker must find. */
constexpr const char *kSeededBug = "seeded_gc";
/** Probe sizing: scenarios, schedules per scenario, fingerprint calls. */
constexpr std::size_t kProbeCorpusScenarios = 8;
constexpr int kProbeSchedules = 8;
constexpr int kFingerprintCalls = 8;

/** Digest of the default seed at the default scale. */
constexpr std::uint64_t kPinnedDigest = 0x442b763db07bdfc9ULL;

struct McCase
{
    mc::Scenario scenario;
    int depth = kCatalogueDepth;
    /** The exploration must find no violation. */
    bool expect_clean = true;
    /**
     * The exploration must find a violation (the planted bug). A corpus
     * app that sa::analyzeApp calls dirty carries neither expectation.
     */
    bool expect_dirty = false;
    /** Corpus cases only: the app and mode the scenario drives. */
    std::optional<apps::AppSpec> spec;
    sa::HandlingModel handling = sa::HandlingModel::Stock;
};

/**
 * Pin the system's own analyzer off: analysis runs through the
 * explorer's McHooks (ExplorerOptions::run_analysis), and an
 * RCHDROID_ANALYSIS in the environment must not add a second one.
 */
void
pinSystemOptions(mc::Scenario &scenario)
{
    auto make = scenario.make_options;
    scenario.make_options = [make] {
        sim::SystemOptions options = make();
        options.analysis_enabled = false;
        return options;
    };
}

/** ExplorerStats counters that a build may not have (snapshot layer). */
template <class Stats>
std::uint64_t
snapshotsTaken(const Stats &stats)
{
    if constexpr (requires { stats.snapshots_taken; })
        return stats.snapshots_taken;
    return 0;
}

template <class Stats>
std::uint64_t
snapshotRestores(const Stats &stats)
{
    if constexpr (requires { stats.snapshot_restores; })
        return stats.snapshot_restores;
    return 0;
}

class McWorkload final : public Workload
{
  public:
    McWorkload(std::uint64_t seed, const Scale &scale)
        : seed_(seed), scale_(scale)
    {
    }

    void setup() override;
    JobResult runJob(Spans &spans) override;
    std::vector<Metric> perLayer(const JobResult &last,
                                 Spans &spans) override;
    std::uint64_t pinnedDigest() const override { return kPinnedDigest; }

  private:
    std::vector<Metric> probes(Spans &spans);

    std::uint64_t seed_;
    Scale scale_;
    std::vector<McCase> cases_;
    std::vector<double> analyze_us_;
};

void
McWorkload::setup()
{
    cases_.clear();
    analyze_us_.clear();
    for (const mc::Scenario &scenario : mc::scenarioCatalog()) {
        McCase item;
        item.scenario = scenario;
        pinSystemOptions(item.scenario);
        item.depth = kCatalogueDepth;
        item.expect_clean =
            scale_.plant_wrong_expectation || scenario.name != kSeededBug;
        item.expect_dirty = !item.expect_clean;
        cases_.push_back(std::move(item));
    }

    // A seeded stratified sample of the 2 × |corpus| app×mode scenarios:
    // the candidates, in corpus order, are cut into `sample` equal strata
    // and one is drawn from each, so every seed covers the whole corpus.
    const std::vector<apps::AppSpec> corpus = sa::fullCorpus();
    const std::size_t candidates = corpus.size() * 2;
    const std::size_t sample = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(scale_.scenarios, 0)), candidates);
    InputRng rng(seed_ ^ 0x6d635f6578706c72ULL);
    std::map<std::size_t, sa::AppVerdict> verdicts;
    for (std::size_t k = 0; k < sample; ++k) {
        const auto pick = static_cast<std::size_t>(rng.between(
            static_cast<std::int64_t>(k * candidates / sample),
            static_cast<std::int64_t>((k + 1) * candidates / sample - 1)));
        const std::size_t app = pick / 2;
        const sa::HandlingModel handling = pick % 2
                                               ? sa::HandlingModel::RchDroid
                                               : sa::HandlingModel::Stock;
        auto verdict = verdicts.find(app);
        if (verdict == verdicts.end()) {
            const std::uint64_t t0 = hostNs();
            verdict = verdicts.emplace(app, sa::analyzeApp(corpus[app])).first;
            analyze_us_.push_back(static_cast<double>(hostNs() - t0) / 1e3);
        }
        McCase item;
        item.expect_clean = scale_.plant_wrong_expectation ||
                            verdict->second.cleanFor(handling);
        item.scenario = mc::makeAppScenario(corpus[app], handling,
                                            item.expect_clean);
        pinSystemOptions(item.scenario);
        item.depth = kCorpusDepth;
        item.spec = corpus[app];
        item.handling = handling;
        cases_.push_back(std::move(item));
    }
}

JobResult
McWorkload::runJob(Spans &spans)
{
    JobResult job;
    Digest digest;
    mc::ExplorerStats total;
    std::uint64_t snapshots_taken = 0, snapshot_restores = 0;
    double explore_ns = 0.0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
        const McCase &item = cases_[i];
        mc::ExplorerOptions options;
        options.scenario = &item.scenario;
        options.max_depth = item.depth;
        options.max_executions = 50'000;
        options.oracles = mc::defaultOracleNames();
        options.run_analysis = true;
        options.reduction = true;
        if (!item.scenario.independence.empty())
            options.independence = &item.scenario.independence;

        const int span =
            spans.begin("mc.explore", static_cast<std::uint32_t>(i));
        const std::uint64_t t0 = hostNs();
        const mc::ExplorerReport report = mc::explore(options);
        const std::uint64_t t1 = hostNs();
        spans.end(span);
        job.episode_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        explore_ns += static_cast<double>(t1 - t0);

        ++job.attempted;
        const bool clean = report.violations.empty();
        if (report.stats.truncated)
            job.fail(item.scenario.name + ": exploration truncated");
        else if (item.expect_clean && !clean)
            job.fail(item.scenario.name + ": expected clean, found " +
                     report.violations.front().oracle + ": " +
                     report.violations.front().summary);
        else if (item.expect_dirty && clean)
            job.fail(item.scenario.name + ": planted bug not found");

        const mc::ExplorerStats &stats = report.stats;
        digest.add(item.scenario.name);
        digest.add(stats.executions);
        digest.add(stats.schedules_covered);
        digest.add(static_cast<std::uint64_t>(stats.truncated));
        for (const mc::McViolation &violation : report.violations) {
            digest.add(violation.oracle);
            digest.add(violation.summary);
            digest.add(static_cast<std::uint64_t>(violation.time));
        }
        for (int choice : report.first_violation_schedule)
            digest.add(static_cast<std::uint64_t>(choice));

        total.executions += stats.executions;
        total.schedules_covered += stats.schedules_covered;
        total.visited_hits += stats.visited_hits;
        total.sleep_skips += stats.sleep_skips;
        total.mhp_prunes += stats.mhp_prunes;
        total.events_replayed += stats.events_replayed;
        snapshots_taken += snapshotsTaken(stats);
        snapshot_restores += snapshotRestores(stats);
    }
    job.digest = digest.value();

    const auto count = [](std::uint64_t value) {
        return static_cast<double>(value);
    };
    job.layer = {
        {"mc.scenarios", count(cases_.size()), "count"},
        {"mc.executions", count(total.executions), "count"},
        {"mc.schedules_covered", count(total.schedules_covered), "count"},
        {"mc.visited_hits", count(total.visited_hits), "count"},
        {"mc.sleep_skips", count(total.sleep_skips), "count"},
        {"mc.mhp_prunes", count(total.mhp_prunes), "count"},
        {"mc.snapshots_taken", count(snapshots_taken), "count"},
        {"mc.snapshot_restores", count(snapshot_restores), "count"},
        {"mc.events_replayed", count(total.events_replayed), "count"},
        {"mc.exec_us",
         explore_ns / 1e3 /
             count(std::max<std::uint64_t>(total.executions, 1)),
         "us"},
    };
    return job;
}

/**
 * runExecution probes on seeded random schedules: every catalogue
 * scenario plus the first corpus ones, each at its own depth. A probe
 * times one execution variant; the per-schedule differences between
 * variants attribute an execution's cost to oracles and analysis. Each
 * metric is the median over the probed schedules.
 */
std::vector<Metric>
McWorkload::probes(Spans &spans)
{
    std::vector<const McCase *> probed;
    std::size_t corpus_taken = 0;
    for (const McCase &item : cases_) {
        if (!item.spec)
            probed.push_back(&item);
        else if (corpus_taken++ < kProbeCorpusScenarios)
            probed.push_back(&item);
    }

    InputRng rng(seed_ ^ 0x70726f6265ULL);
    double fingerprints = 0.0;
    int fingerprint_runs = 0;
    for (std::size_t p = 0; p < probed.size(); ++p) {
        const McCase &item = *probed[p];
        const auto op = static_cast<std::uint32_t>(p);
        SpanScope probe_span(spans, "probe", op);
        if (item.spec) {
            SpanScope span(spans, "mc.independence", op);
            const sa::IndependenceSpec spec =
                mc::independenceForApp(*item.spec, item.handling);
            (void)spec;
        }
        for (int s = 0; s < kProbeSchedules; ++s) {
            mc::ExecutionOptions bare;
            bare.scenario = &item.scenario;
            bare.max_choice_points = item.depth;
            for (int d = 0; d < item.depth; ++d)
                bare.schedule.push_back(static_cast<int>(rng.between(0, 2)));
            bare.oracles = {"crash"};
            bare.run_analysis = false;
            bare.fingerprints = false;

            {
                SpanScope span(spans, "mc.construct", op);
                sim::AndroidSystem system(item.scenario.make_options());
                item.scenario.setup(system);
                for (int f = 0; f < kFingerprintCalls; ++f) {
                    SpanScope fingerprint(spans, "mc.fingerprint", op);
                    (void)mc::stateFingerprint(system);
                }
            }
            {
                SpanScope span(spans, "mc.exec_bare", op);
                (void)mc::runExecution(bare);
            }
            {
                mc::ExecutionOptions with_fingerprints = bare;
                with_fingerprints.fingerprints = true;
                fingerprints += static_cast<double>(
                    mc::runExecution(with_fingerprints)
                        .fingerprints_computed);
                ++fingerprint_runs;
            }
            {
                mc::ExecutionOptions oracles = bare;
                oracles.oracles = mc::defaultOracleNames();
                SpanScope span(spans, "mc.exec_oracles", op);
                (void)mc::runExecution(oracles);
            }
            {
                mc::ExecutionOptions analysis = bare;
                analysis.run_analysis = true;
                SpanScope span(spans, "mc.exec_analysis", op);
                (void)mc::runExecution(analysis);
            }
        }
    }

    const std::vector<Span> &all = spans.all();
    const std::vector<double> bare = spanSelfUs(all, "mc.exec_bare");
    // Paired per schedule: the same execution with one feature added.
    const auto overUs = [&](const char *name) {
        std::vector<double> extra = spanSelfUs(all, name);
        for (std::size_t i = 0; i < extra.size() && i < bare.size(); ++i)
            extra[i] -= bare[i];
        return quantile(extra, 0.5);
    };
    return {
        {"mc.independence_us",
         quantile(spanSelfUs(all, "mc.independence"), 0.5), "us"},
        {"mc.construct_us", quantile(spanSelfUs(all, "mc.construct"), 0.5),
         "us"},
        {"mc.exec_bare_us", quantile(bare, 0.5), "us"},
        {"mc.fingerprint_us",
         quantile(spanSelfUs(all, "mc.fingerprint"), 0.5), "us"},
        {"mc.fingerprints_per_exec",
         fingerprint_runs ? fingerprints / fingerprint_runs : 0.0, "count"},
        {"mc.oracles_us", overUs("mc.exec_oracles"), "us"},
        {"analysis.exec_overhead_us", overUs("mc.exec_analysis"), "us"},
    };
}

std::vector<Metric>
McWorkload::perLayer(const JobResult &last, Spans &spans)
{
    std::vector<Metric> out = last.layer;
    out.push_back({"mc.explore_ms",
                   spanMeanUs(spans.all(), "mc.explore") / 1e3, "ms"});
    out.push_back({"sa.analyze_us", mean(analyze_us_), "us"});
    for (Metric &metric : probes(spans))
        out.push_back(std::move(metric));
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeMcWorkload(std::uint64_t seed, const Scale &scale)
{
    return std::make_unique<McWorkload>(seed, scale);
}

} // namespace e2ebench
