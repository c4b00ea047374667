#include "mc/app_scenario.h"

#include "analysis/analyzer.h"
#include "mc/explorer.h"
#include "sim/android_system.h"

namespace rchdroid::mc {

namespace {

sim::SystemOptions
systemOptionsFor(sa::HandlingModel handling)
{
    sim::SystemOptions options;
    options.mode = handling == sa::HandlingModel::Stock
                       ? RuntimeChangeMode::Restart
                       : RuntimeChangeMode::RchDroid;
    return options;
}

/** Install, launch, seed state, and start the button task if any. */
void
driveSetup(sim::AndroidSystem &system, const apps::AppSpec &spec)
{
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    if (spec.async.trigger == apps::AsyncTrigger::OnButtonClick)
        system.clickUpdateButton(spec);
}

} // namespace

sa::DynamicObservation
observeApp(const apps::AppSpec &spec, sa::HandlingModel handling,
           const ObserveOptions &options)
{
    sa::DynamicObservation observation;
    observation.app = spec.name;
    observation.handling = handling;

    {
        // Recording analyzer, installed before the system so the
        // first-install-wins seam routes events here (and the
        // environment's abort-on-violation cannot kill the run — the
        // harness wants counts, not a panic).
        analysis::AnalyzerOptions record;
        record.abort_on_violation = false;
        analysis::ScopedAnalyzer guard(record);

        sim::AndroidSystem system(systemOptionsFor(handling));
        driveSetup(system, spec);
        // Rotate while any OnCreate/OnButtonClick task is mid-flight
        // (the §6 methodology: change while running in the state), then
        // let the episode and any straddling completion land.
        system.rotate();
        system.waitHandlingComplete(seconds(10));
        system.runFor(spec.async.duration + seconds(2));

        observation.crashed = system.threadFor(spec).crashed();
        observation.state_preserved =
            !observation.crashed &&
            system.verifyCriticalState(spec).preserved;

        const analysis::ViolationSink &sink = guard.analyzer().sink();
        observation.stale_view_mutations = static_cast<int>(
            sink.countOf(analysis::ViolationKind::DestroyedViewMutation));
        observation.other_violations =
            static_cast<int>(sink.totalCount()) -
            observation.stale_view_mutations;
    }

    if (options.run_mc) {
        // Quantify over schedules, not just the default interleaving:
        // any oracle finding on any explored schedule marks the app
        // dynamically dirty. The final_state oracle only arms for apps
        // the static pass calls clean — expected-dirty apps would
        // otherwise drown the report in known losses.
        const bool expect_clean = !observation.dirty();
        const Scenario scenario =
            makeAppScenario(spec, handling, expect_clean);
        ExplorerOptions explore_options;
        explore_options.scenario = &scenario;
        explore_options.max_depth = options.mc_max_depth;
        explore_options.max_executions = options.mc_max_executions;
        const ExplorerReport report = explore(explore_options);
        observation.mc_explored = true;
        observation.mc_issue_found = !report.violations.empty();
    }
    return observation;
}

Scenario
makeAppScenario(const apps::AppSpec &spec, sa::HandlingModel handling,
                bool expect_clean)
{
    Scenario scenario;
    scenario.name = "app:" + spec.name;
    scenario.description =
        "differential-validation drive of " + spec.name + " under " +
        sa::handlingModelName(handling);
    scenario.make_options = [handling] { return systemOptionsFor(handling); };
    scenario.setup = [spec](sim::AndroidSystem &system) {
        driveSetup(system, spec);
    };
    scenario.injections = {InjectionKind::Rotate};
    scenario.max_injections = 2;
    scenario.horizon = spec.async.duration + seconds(2);
    scenario.tail = spec.async.duration + seconds(2);
    if (expect_clean) {
        scenario.final_check =
            [spec](sim::AndroidSystem &system)
            -> std::optional<std::string> {
            if (system.threadFor(spec).crashed())
                return "process crashed";
            const apps::StateCheckResult check =
                system.verifyCriticalState(spec);
            if (!check.preserved)
                return "critical state " + check.toString();
            return std::nullopt;
        };
    }
    return scenario;
}

} // namespace rchdroid::mc
