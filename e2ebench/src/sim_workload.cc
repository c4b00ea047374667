/**
 * @file
 * The sim_stock and sim_rchdroid workloads: config-change storms over
 * the whole corpus through the sim::AndroidSystem facade.
 *
 * Every app (sa::fullCorpus() plus the §5.1 benchmark apps) gets one
 * seeded script, shared by both workloads: launch, seed user state, then
 * 5..200 changes (rotate / locale toggle / `wm size` toggle)
 * separated by exponential gaps of mean 10 s virtual (Fig. 11's 6/min),
 * with button taps at seeded points inside the gaps so AsyncTasks are in
 * flight when changes land. An app that crashes is reopened and its
 * script goes on. A final settle lets the last task return, then
 * verifyCriticalState reads the screen.
 *
 * One episode is the change call plus waitHandlingComplete, timed on the
 * host clock. The virtual handling ms, crash outcomes and final states
 * go into the digest only.
 */
#include <algorithm>
#include <cmath>

#include "apps/corpus.h"
#include "bench.h"
#include "rch/view_tree_mapper.h"
#include "sa/sweep.h"
#include "sa/verdict.h"
#include "sim/android_system.h"

namespace e2ebench {

namespace {

using namespace rchdroid;

enum class Change : std::uint8_t { Rotate, Locale, WmSize };

/** One gap (with an optional tap inside it) followed by one change. */
struct Step
{
    SimDuration gap = 0;
    /** Offset of the button tap inside the gap; negative for none. */
    SimDuration tap_at = -1;
    Change change = Change::Rotate;
};

struct AppPlan
{
    apps::AppSpec spec;
    /** sa::analyzeApp calls the app clean for this workload's mode. */
    bool expect_clean = false;
    std::vector<Step> steps;
};

constexpr std::int64_t kMaxChanges = 200;
constexpr double kMeanGapNs = 10e9;
constexpr double kTapProbability = 0.3;
constexpr int kBenchmarkAppSizes[] = {1, 2, 4, 8, 16, 32, 64, 128};
/** Repeats of each view/mapping probe, for timer resolution. */
constexpr int kProbeRepeats = 16;
/** Fixed order in which the change counts are dealt to the apps. */
constexpr std::uint64_t kDealSeed = 0x636f756e7473ULL;

/** Digests of the default seed at the default scale. */
constexpr std::uint64_t kPinnedStock = 0x43d41ab8731ea84dULL;
constexpr std::uint64_t kPinnedRchDroid = 0xa2c5583e62453e2dULL;

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    InputRng rng(seed ^ (salt * 0xd1b54a32d192ed03ULL));
    return rng.next();
}

/**
 * Gap lengths [lo, hi) after which the shadow GC may fire inside the next
 * handling episode. A shadow becomes collectable at THRESH_T and is
 * collected by the first GC tick after max(THRESH_T, frequency window),
 * so any tick of that band (±1 s) can land mid-episode. There the GC
 * reclaims the shadow the ATMS has just picked for a coin flip, and the
 * flip panics ("flip target is not a shadow instance") — a race in the
 * program, not a workload outcome. Gaps of at least `hi` let the GC
 * collect before the next change arrives.
 */
struct GcBand
{
    SimDuration lo = 0;
    SimDuration hi = 0;
};

GcBand
gcBand()
{
    const RchConfig rch;
    return {rch.thresh_t - seconds(1),
            std::max(rch.thresh_t, rch.frequency_window) + rch.gc_interval +
                seconds(1)};
}

template <class T>
void
shuffle(std::vector<T> &items, InputRng &rng)
{
    for (std::size_t k = items.size(); k > 1; --k)
        std::swap(items[k - 1],
                  items[static_cast<std::size_t>(rng.between(
                      0, static_cast<std::int64_t>(k - 1)))]);
}

void
applyChange(sim::AndroidSystem &system, Change change)
{
    const Configuration config = system.currentConfiguration();
    switch (change) {
    case Change::Rotate:
        system.rotate();
        return;
    case Change::Locale:
        system.setLocale(config.locale == "fr-FR" ? "en-US" : "fr-FR");
        return;
    case Change::WmSize:
        if (config.screen_width_px == 1080 && config.screen_height_px == 1920)
            system.wmSizeReset();
        else
            system.wmSize(1080, 1920);
        return;
    }
}

/** Per-layer tallies of one job repetition. */
struct Tally
{
    std::uint64_t events = 0;
    std::uint64_t episode_events = 0;
    std::uint64_t episodes = 0;
    double episode_ns = 0.0;
    std::uint64_t crashes = 0;
    std::uint64_t layout_loads = 0;
    std::uint64_t drawable_bytes = 0;
    StarterStats starts;
    RchStats rch;
};

class SimWorkload final : public Workload
{
  public:
    SimWorkload(bool rchdroid, std::uint64_t seed, const Scale &scale)
        : rchdroid_(rchdroid), seed_(seed), scale_(scale)
    {
    }

    void setup() override;
    JobResult runJob(Spans &spans) override;
    std::vector<Metric> perLayer(const JobResult &last,
                                 Spans &spans) override;

    std::uint64_t
    pinnedDigest() const override
    {
        return rchdroid_ ? kPinnedRchDroid : kPinnedStock;
    }

  private:
    std::unique_ptr<sim::AndroidSystem> boot(std::uint32_t op,
                                             const apps::AppSpec &spec,
                                             Spans &spans);
    void retire(sim::AndroidSystem &system, const apps::AppSpec &spec,
                Tally &tally, Digest &digest);
    void runApp(std::uint32_t op, const AppPlan &plan, Spans &spans,
                JobResult &job, Tally &tally, Digest &digest);
    void probe(std::uint32_t op, sim::AndroidSystem &system,
               const AppPlan &plan, Spans &spans);

    bool rchdroid_;
    std::uint64_t seed_;
    Scale scale_;
    std::vector<AppPlan> plans_;
    std::vector<double> analyze_us_;
};

void
SimWorkload::setup()
{
    std::vector<apps::AppSpec> specs = sa::fullCorpus();
    const auto apps = static_cast<std::size_t>(scale_.apps);
    if (apps > 0 && apps < specs.size())
        specs.resize(apps);
    for (int n : kBenchmarkAppSizes)
        specs.push_back(apps::makeBenchmarkApp(n));

    // Change counts evenly spaced over [5, kMaxChanges], dealt to the
    // apps in one fixed order: every seed runs the same episodes per app,
    // so the heavy apps' share of the tail does not depend on the seed.
    InputRng deal(kDealSeed);
    std::vector<std::int64_t> counts(specs.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        counts[i] = 5 + (kMaxChanges - 5) * static_cast<std::int64_t>(i) /
                            static_cast<std::int64_t>(
                                std::max<std::size_t>(counts.size() - 1, 1));
    }
    shuffle(counts, deal);

    const sa::HandlingModel handling =
        rchdroid_ ? sa::HandlingModel::RchDroid : sa::HandlingModel::Stock;
    const GcBand band = gcBand();
    plans_.clear();
    analyze_us_.clear();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        AppPlan plan;
        plan.spec = specs[i];
        const std::uint64_t t0 = hostNs();
        const sa::AppVerdict verdict = sa::analyzeApp(plan.spec);
        analyze_us_.push_back(static_cast<double>(hostNs() - t0) / 1e3);
        plan.expect_clean = scale_.plant_wrong_expectation ||
                            verdict.cleanFor(handling);

        // Keyed by seed and app index only, so both modes replay the
        // same script. The gaps are stratified (one draw per 1/n of the
        // exponential's quantiles, in seeded order): each app sees its
        // share of long gaps, which let the shadow GC collect.
        InputRng rng(mixSeed(seed_, i + 1));
        const auto n = static_cast<std::size_t>(counts[i]);
        std::vector<std::size_t> strata(n);
        for (std::size_t k = 0; k < n; ++k)
            strata[k] = k;
        shuffle(strata, rng);
        for (std::size_t k = 0; k < n; ++k) {
            Step step;
            const double u = (static_cast<double>(strata[k]) + rng.uniform()) /
                             static_cast<double>(n);
            step.gap = static_cast<SimDuration>(-kMeanGapNs * std::log1p(-u));
            if (step.gap >= band.lo && step.gap < band.hi)
                step.gap += band.hi - band.lo; // past the GC race band
            if (rng.uniform() < kTapProbability) {
                // After a gap the GC collected in, the surviving instance
                // keeps view-peer links into the freed shadow until the
                // next init launch re-maps it; an async result landing on
                // it in between reads freed views (a use-after-free in the
                // program). Taps in such gaps come early enough that the
                // task returns long before the gap ends.
                const SimDuration window =
                    step.gap >= band.hi ? step.gap / 2 : step.gap;
                step.tap_at = static_cast<SimDuration>(
                    rng.uniform() * static_cast<double>(window));
            }
            step.change = static_cast<Change>(rng.between(0, 2));
            plan.steps.push_back(step);
        }
        plans_.push_back(std::move(plan));
    }
}

std::unique_ptr<sim::AndroidSystem>
SimWorkload::boot(std::uint32_t op, const apps::AppSpec &spec, Spans &spans)
{
    SpanScope launch(spans, "sim.launch", op);
    sim::SystemOptions options;
    options.mode =
        rchdroid_ ? RuntimeChangeMode::RchDroid : RuntimeChangeMode::Restart;
    options.analysis_enabled = false;
    auto system = std::make_unique<sim::AndroidSystem>(options);
    system->install(spec);
    system->launch(spec);
    system->applyUserState(spec);
    return system;
}

void
SimWorkload::retire(sim::AndroidSystem &system, const apps::AppSpec &spec,
                    Tally &tally, Digest &digest)
{
    SimScheduler &scheduler = system.scheduler();
    digest.add(scheduler.executedEvents());
    digest.add(static_cast<std::uint64_t>(scheduler.now()));
    tally.events += scheduler.executedEvents();
    const StarterStats &starts = system.atms().starterStats();
    tally.starts.coin_flips += starts.coin_flips;
    tally.starts.sunny_creates += starts.sunny_creates;
    tally.starts.normal_starts += starts.normal_starts;
    if (const auto &handler = system.installed(spec).handler) {
        const RchStats &rch = handler->stats();
        tally.rch.flips += rch.flips;
        tally.rch.init_launches += rch.init_launches;
        tally.rch.views_mapped += rch.views_mapped;
        tally.rch.views_migrated += rch.views_migrated;
        tally.rch.gc_collections += rch.gc_collections;
    }
}

void
SimWorkload::runApp(std::uint32_t op, const AppPlan &plan, Spans &spans,
                    JobResult &job, Tally &tally, Digest &digest)
{
    const apps::AppSpec &spec = plan.spec;
    SpanScope app_span(spans, "app", op);
    digest.add(spec.name);

    std::unique_ptr<sim::AndroidSystem> system = boot(op, spec, spans);
    // A crashed app is reopened by the user (a fresh boot, user state
    // re-applied) and the script goes on, so every seed runs every step.
    std::uint64_t crashes = 0;
    const auto reopenIfCrashed = [&] {
        if (!system->threadFor(spec).crashed())
            return;
        ++crashes;
        digest.add(static_cast<std::uint64_t>(system->scheduler().now()));
        retire(*system, spec, tally, digest);
        system = boot(op, spec, spans);
    };

    for (const Step &step : plan.steps) {
        {
            SpanScope settle(spans, "sim.settle", op);
            if (step.tap_at >= 0) {
                system->runFor(step.tap_at);
                {
                    SpanScope tap(spans, "sim.tap", op);
                    system->clickUpdateButton(spec);
                }
                system->runFor(step.gap - step.tap_at);
            } else {
                system->runFor(step.gap);
            }
        }
        reopenIfCrashed();

        ++job.attempted;
        ActivityThread &thread = system->threadFor(spec);
        SimScheduler &scheduler = system->scheduler();
        const std::uint64_t events_before = scheduler.executedEvents();
        const ResourceLoadStats loads_before = thread.resources().stats();
        const int span = spans.begin("sim.change", op);
        const std::uint64_t t0 = hostNs();
        applyChange(*system, step.change);
        const bool done = system->waitHandlingComplete();
        const std::uint64_t t1 = hostNs();
        spans.end(span);

        job.episode_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        ++tally.episodes;
        tally.episode_ns += static_cast<double>(t1 - t0);
        tally.episode_events += scheduler.executedEvents() - events_before;
        const ResourceLoadStats &loads = thread.resources().stats();
        tally.layout_loads += loads.layout_loads - loads_before.layout_loads;
        tally.drawable_bytes +=
            loads.drawable_bytes - loads_before.drawable_bytes;

        if (done) {
            digest.add(system->lastHandlingMs());
        } else if (thread.crashed()) {
            reopenIfCrashed();
        } else {
            job.fail(spec.name + ": handling episode timed out");
            break;
        }
    }

    {
        SpanScope settle(spans, "sim.settle", op);
        system->runFor(spec.async.duration + seconds(2));
    }
    const bool crashed = crashes > 0 || system->threadFor(spec).crashed();
    bool preserved = false;
    {
        SpanScope verify(spans, "sim.verify", op);
        preserved = !crashed && system->verifyCriticalState(spec).preserved;
    }
    ++job.attempted;
    if (plan.expect_clean && !preserved) {
        job.fail(spec.name + (crashed ? ": crashed" : ": lost state") +
                 " although sa::analyzeApp calls it clean");
    }
    crashes += system->threadFor(spec).crashed() ? 1 : 0;
    tally.crashes += crashes;
    digest.add(crashes);
    digest.add(static_cast<std::uint64_t>(preserved));
    retire(*system, spec, tally, digest);

    if (spans.enabled() && !system->threadFor(spec).crashed()) {
        const std::uint64_t t0 = hostNs();
        probe(op, *system, plan, spans);
        job.probe_ns += hostNs() - t0;
    }
}

/**
 * Traced-run probes on the app's final screen, after its outputs were
 * recorded: save/restore of the foreground view tree and, under
 * RCHDroid, a mapping build between the live sunny/shadow pair.
 */
void
SimWorkload::probe(std::uint32_t op, sim::AndroidSystem &system,
                   const AppPlan &plan, Spans &spans)
{
    ActivityThread &thread = system.threadFor(plan.spec);
    const std::shared_ptr<Activity> foreground = thread.foregroundActivity();
    View *root = foreground ? foreground->window().content() : nullptr;
    if (root == nullptr)
        return;
    for (int i = 0; i < kProbeRepeats; ++i) {
        Bundle saved;
        {
            SpanScope save(spans, "view.save", op);
            root->saveHierarchyState(saved, /*full=*/rchdroid_);
        }
        SpanScope restore(spans, "view.restore", op);
        root->restoreHierarchyState(saved);
    }
    const auto &handler = system.installed(plan.spec).handler;
    const std::shared_ptr<Activity> shadow = thread.shadowActivity();
    if (!handler || !shadow)
        return;
    const ViewTreeMapper mapper(handler->config().mapping_strategy);
    for (int i = 0; i < kProbeRepeats; ++i) {
        SpanScope map(spans, "rch.map_build", op);
        mapper.buildMapping(*foreground, *shadow);
    }
}

JobResult
SimWorkload::runJob(Spans &spans)
{
    JobResult job;
    Tally tally;
    Digest digest;
    for (std::size_t i = 0; i < plans_.size(); ++i)
        runApp(static_cast<std::uint32_t>(i), plans_[i], spans, job, tally,
               digest);
    job.digest = digest.value();

    const double episodes = static_cast<double>(std::max<std::uint64_t>(
        tally.episodes, 1));
    const std::uint64_t flip_base = tally.rch.flips + tally.rch.init_launches;
    job.layer = {
        {"sim.episodes", static_cast<double>(tally.episodes), "count"},
        {"os.events", static_cast<double>(tally.events), "count"},
        {"os.events_per_episode",
         static_cast<double>(tally.episode_events) / episodes, "count"},
        {"os.ns_per_event",
         tally.episode_ns /
             static_cast<double>(std::max<std::uint64_t>(
                 tally.episode_events, 1)),
         "ns"},
        {"app.crashes", static_cast<double>(tally.crashes), "count"},
        {"ams.coin_flips", static_cast<double>(tally.starts.coin_flips),
         "count"},
        {"ams.sunny_creates",
         static_cast<double>(tally.starts.sunny_creates), "count"},
        {"ams.normal_starts",
         static_cast<double>(tally.starts.normal_starts), "count"},
        {"rch.flip_ratio",
         flip_base ? static_cast<double>(tally.rch.flips) /
                         static_cast<double>(flip_base)
                   : 0.0,
         "ratio"},
        {"rch.flip_ratio_base", static_cast<double>(flip_base), "count"},
        {"rch.views_mapped", static_cast<double>(tally.rch.views_mapped),
         "count"},
        {"rch.views_migrated", static_cast<double>(tally.rch.views_migrated),
         "count"},
        {"rch.gc_collections", static_cast<double>(tally.rch.gc_collections),
         "count"},
        {"resources.layout_loads_per_episode",
         static_cast<double>(tally.layout_loads) / episodes, "count"},
        {"resources.drawable_bytes_per_episode",
         static_cast<double>(tally.drawable_bytes) / episodes, "B"},
    };
    return job;
}

std::vector<Metric>
SimWorkload::perLayer(const JobResult &last, Spans &spans)
{
    std::vector<Metric> out = last.layer;
    out.push_back({"sa.analyze_us", mean(analyze_us_), "us"});
    for (const auto &[metric, span] :
         {std::pair{"sim.launch_us", "sim.launch"},
          {"sim.settle_us", "sim.settle"},
          {"view.save_us", "view.save"},
          {"view.restore_us", "view.restore"},
          {"rch.map_build_us", "rch.map_build"}})
        out.push_back({metric, spanMeanUs(spans.all(), span), "us"});
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeSimWorkload(bool rchdroid, std::uint64_t seed, const Scale &scale)
{
    return std::make_unique<SimWorkload>(rchdroid, seed, scale);
}

} // namespace e2ebench
