#include "mc/oracles.h"

#include <map>
#include <sstream>
#include <stdexcept>
#include <variant>

namespace rchdroid::mc {

namespace {

/**
 * Deep BundleValue equality: nested bundles compare structurally
 * (Bundle::operator== is deep); the variant's own == would compare
 * the shared_ptr identity and call every nested bundle "changed".
 */
bool
deepEquals(const BundleValue &a, const BundleValue &b)
{
    if (a.index() != b.index())
        return false;
    if (const auto *nested_a = std::get_if<std::shared_ptr<Bundle>>(&a)) {
        const auto *nested_b = std::get_if<std::shared_ptr<Bundle>>(&b);
        if (!*nested_a || !*nested_b)
            return *nested_a == *nested_b;
        return **nested_a == **nested_b;
    }
    return a == b;
}

/** Any installed app process crashed. */
class CrashOracle final : public Oracle
{
  public:
    const char *name() const override { return "crash"; }

    std::optional<McViolation>
    afterStep(sim::AndroidSystem &system, const analysis::Analyzer *) override
    {
        for (const auto &[process, app] : system.installedApps()) {
            if (!app->thread->crashed())
                continue;
            McViolation violation;
            violation.oracle = name();
            violation.time = system.scheduler().now();
            std::ostringstream os;
            os << "process " << process << " crashed";
            if (app->thread->crashInfo())
                os << ": " << app->thread->crashInfo()->reason;
            violation.summary = os.str();
            return violation;
        }
        return std::nullopt;
    }
};

/** The PR-1 analyzer (race detector + lifecycle checker) found one. */
class AnalysisOracle final : public Oracle
{
  public:
    const char *name() const override { return "analysis"; }

    void
    onStart(sim::AndroidSystem &,
            const analysis::Analyzer *analyzer) override
    {
        // Setup runs uncontrolled; findings there are not schedule
        // dependent, so only count what the controlled window adds.
        baseline_ = analyzer ? analyzer->sink().totalCount() : 0;
    }

    std::optional<McViolation>
    afterStep(sim::AndroidSystem &system,
              const analysis::Analyzer *analyzer) override
    {
        if (!analyzer || analyzer->sink().totalCount() <= baseline_)
            return std::nullopt;
        McViolation violation;
        violation.oracle = name();
        violation.time = system.scheduler().now();
        const auto &stored = analyzer->sink().violations();
        violation.summary =
            stored.empty() ? "analyzer reported a violation"
                           : stored.back().summary;
        return violation;
    }

  private:
    std::size_t baseline_ = 0;
};

/**
 * The shadow GC reclaimed an activity some live AsyncTask still
 * targets: the task's onPostExecute will run against released views.
 * Fires at collection time (when the damage is done), not when the
 * task later returns — that keeps counterexamples short.
 */
class GcLiveAsyncOracle final : public Oracle
{
  public:
    const char *name() const override { return "gc_live_async"; }

    void
    onStart(sim::AndroidSystem &system, const analysis::Analyzer *) override
    {
        for (const auto &[process, app] : system.installedApps()) {
            if (app->handler)
                baselines_[process] = app->handler->stats().gc_collections;
        }
    }

    std::optional<McViolation>
    afterStep(sim::AndroidSystem &system, const analysis::Analyzer *) override
    {
        for (const auto &[process, app] : system.installedApps()) {
            if (!app->handler)
                continue;
            const std::uint64_t collections =
                app->handler->stats().gc_collections;
            if (collections <= baselines_[process])
                continue;
            baselines_[process] = collections;
            for (const auto &task : app->thread->inFlightAsyncList()) {
                if (task->state() != AsyncTask::TaskState::Pending &&
                    task->state() != AsyncTask::TaskState::Running)
                    continue;
                const auto &owner = task->owner();
                if (!owner || !owner->isDestroyed())
                    continue;
                McViolation violation;
                violation.oracle = name();
                violation.time = system.scheduler().now();
                std::ostringstream os;
                os << "GC reclaimed " << owner->component()
                   << " (token " << owner->token()
                   << ") while AsyncTask \"" << task->name()
                   << "\" still targets it";
                violation.summary = os.str();
                return violation;
            }
        }
        return std::nullopt;
    }

  private:
    std::map<std::string, std::uint64_t> baselines_;
};

/**
 * Saved-bundle ⊆ restored-state: whenever an activity resumes while a
 * shadow (with its entry snapshot) exists, every key saved at shadow
 * entry must be present in the freshly restored foreground and hold
 * either the saved value or the shadow's current value (lazy migration
 * may legitimately have advanced it).
 */
class SavedRestoreOracle final : public Oracle
{
  public:
    const char *name() const override { return "saved_restore"; }

    void
    onStart(sim::AndroidSystem &system, const analysis::Analyzer *) override
    {
        last_resumed_ =
            system.trace().countOfKind(kinds::kAtmsActivityResumed);
    }

    std::optional<McViolation>
    afterStep(sim::AndroidSystem &system, const analysis::Analyzer *) override
    {
        const std::size_t resumed =
            system.trace().countOfKind(kinds::kAtmsActivityResumed);
        if (resumed <= last_resumed_)
            return std::nullopt;
        last_resumed_ = resumed;
        for (const auto &[process, app] : system.installedApps()) {
            auto foreground = app->thread->foregroundActivity();
            auto shadow = app->thread->shadowActivity();
            if (!foreground || !shadow || foreground == shadow ||
                !shadow->hasShadowSnapshot())
                continue;
            const Bundle &saved = shadow->shadowSnapshot();
            const Bundle restored =
                foreground->saveInstanceStateNow(/*full=*/true);
            const Bundle shadow_now =
                shadow->saveInstanceStateNow(/*full=*/true);
            for (const auto &[key, value] : saved.entries()) {
                auto restored_it = restored.entries().find(key);
                if (restored_it == restored.entries().end())
                    return loss(system, process, key, "missing");
                if (deepEquals(restored_it->second, value))
                    continue;
                auto now_it = shadow_now.entries().find(key);
                if (now_it != shadow_now.entries().end() &&
                    deepEquals(restored_it->second, now_it->second))
                    continue; // migrated past the snapshot: not loss
                return loss(system, process, key, "changed");
            }
        }
        return std::nullopt;
    }

  private:
    static McViolation
    loss(sim::AndroidSystem &system, const std::string &process,
         const std::string &key, const char *how)
    {
        McViolation violation;
        violation.oracle = "saved_restore";
        violation.time = system.scheduler().now();
        std::ostringstream os;
        os << "data loss in " << process << ": saved key \"" << key
           << "\" " << how << " in the restored state";
        violation.summary = os.str();
        return violation;
    }

    std::size_t last_resumed_ = 0;
};

} // namespace

std::vector<std::string>
defaultOracleNames()
{
    return {"crash", "analysis", "gc_live_async", "saved_restore"};
}

std::vector<std::unique_ptr<Oracle>>
makeOracles(const std::vector<std::string> &names)
{
    std::vector<std::unique_ptr<Oracle>> oracles;
    for (const std::string &name : names) {
        if (name == "crash") {
            oracles.push_back(std::make_unique<CrashOracle>());
        } else if (name == "analysis") {
            oracles.push_back(std::make_unique<AnalysisOracle>());
        } else if (name == "gc_live_async") {
            oracles.push_back(std::make_unique<GcLiveAsyncOracle>());
        } else if (name == "saved_restore") {
            oracles.push_back(std::make_unique<SavedRestoreOracle>());
        } else {
            throw std::invalid_argument(
                "unknown oracle \"" + name +
                "\" (known: crash, analysis, gc_live_async, "
                "saved_restore)");
        }
    }
    return oracles;
}

} // namespace rchdroid::mc
