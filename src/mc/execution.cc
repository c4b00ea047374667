#include "mc/execution.h"

#include <optional>

#include "mc/footprint.h"
#include "mc/state_hash.h"
#include "platform/logging.h"

namespace rchdroid::mc {

namespace {

/**
 * A choice point's options: the due events in `runnable`, then, while
 * the budget lasts, the injections (after an explicit "end the window"
 * when no event is due, so the default stays injection-free).
 */
std::vector<ChoiceOption>
buildOptions(const std::vector<RunnableEvent> &runnable,
             const Scenario &scenario, bool can_inject)
{
    std::vector<ChoiceOption> options;
    for (const RunnableEvent &event : runnable) {
        ChoiceOption option;
        option.kind = ChoiceOption::Kind::Event;
        option.event_id = event.id;
        option.label = event.label.name ? event.label.name : "?";
        options.push_back(std::move(option));
    }
    if (can_inject) {
        if (options.empty()) {
            ChoiceOption end;
            end.kind = ChoiceOption::Kind::EndWindow;
            end.label = "end";
            options.push_back(std::move(end));
        }
        for (InjectionKind kind : scenario.injections) {
            ChoiceOption option;
            option.kind = ChoiceOption::Kind::Injection;
            option.injection = kind;
            option.label = injectionName(kind);
            options.push_back(std::move(option));
        }
    }
    return options;
}

} // namespace

ExecutionResult
runExecution(const ExecutionOptions &options)
{
    RCH_ASSERT(options.scenario != nullptr, "runExecution without scenario");
    const Scenario &scenario = *options.scenario;

    // Declared first, so it outlives the recorder, which writes into its
    // choice points during recorded steps.
    ExecutionResult result;

    // Subscribe the footprint recorder (stopped until a recorded step)
    // and our analyzer (abort off) BEFORE the system exists, so the
    // analyzer sees its construction too. The system brings no analyzer
    // of its own: with the environment's abort-on-violation default it
    // would kill the run, and with run_analysis off no analyzer may run
    // at all.
    FootprintRecorder footprint;
    obs::Subscription footprint_subscription(footprint);
    std::optional<analysis::Analyzer> analyzer;
    std::optional<obs::Subscription> analyzer_subscription;
    if (options.run_analysis)
        analyzer_subscription.emplace(analyzer.emplace());

    sim::SystemOptions system_options = scenario.make_options();
    system_options.analysis_enabled = false;
    sim::AndroidSystem system(system_options);
    scenario.setup(system);

    const analysis::Analyzer *checker = analyzer ? &*analyzer : nullptr;
    std::vector<std::unique_ptr<Oracle>> oracles = makeOracles(
        options.oracles.empty() ? defaultOracleNames() : options.oracles);
    for (auto &oracle : oracles)
        oracle->onStart(system, checker);

    SimScheduler &scheduler = system.scheduler();
    const SimTime deadline = scheduler.now() + scenario.horizon;
    int injections_used = 0;
    bool violated = false;

    const auto evaluate = [&]() -> bool {
        for (auto &oracle : oracles) {
            if (auto violation = oracle->afterStep(system, checker)) {
                result.violations.push_back(*violation);
                return true;
            }
        }
        return false;
    };

    while (!violated && scheduler.now() < deadline) {
        std::vector<RunnableEvent> runnable = scheduler.runnableNow();
        if (!runnable.empty() && runnable.front().when > deadline)
            runnable.clear(); // nothing due inside the window any more
        const bool within_depth =
            result.choice_points.size() <
            static_cast<std::size_t>(options.max_choice_points);
        const bool can_inject = within_depth && !scenario.injections.empty() &&
                                injections_used < scenario.max_injections;

        EventId event = kInvalidEventId;
        std::optional<InjectionKind> injection;
        if (can_inject || (within_depth && runnable.size() >= 2)) {
            const std::size_t depth = result.choice_points.size();
            ChoicePoint &cp = result.choice_points.emplace_back();
            cp.options = buildOptions(runnable, scenario, can_inject);
            cp.injections_left = scenario.max_injections - injections_used;
            cp.events_before = scheduler.executedEvents();
            if (options.fingerprints && depth >= options.known_states) {
                cp.fingerprint_before = stateFingerprint(system);
                ++result.fingerprints_computed;
            }
            int chosen =
                depth < options.schedule.size() ? options.schedule[depth] : 0;
            if (chosen < 0 || chosen >= static_cast<int>(cp.options.size()))
                chosen = 0; // out of range: take the default
            cp.chosen = chosen;
            const ChoiceOption &option = cp.options[chosen];
            if (option.kind == ChoiceOption::Kind::EndWindow)
                break;
            if (option.kind == ChoiceOption::Kind::Injection)
                injection = option.injection;
            else
                event = option.event_id;
        } else if (!runnable.empty()) {
            // One due event and nothing to inject is no choice; past the
            // depth bound the default runs.
            if (runnable.size() >= 2)
                result.hit_depth_cap = true;
            event = runnable.front().id;
        } else {
            break;
        }

        // The explorer reads a segment only from the branch's divergence
        // point on (ExecutionOptions::known_states).
        if (!result.choice_points.empty() &&
            result.choice_points.size() >= options.known_states)
            footprint.record(result.choice_points.back().segment_footprint);
        if (injection) {
            applyInjection(system, *injection);
            ++injections_used;
        } else {
            const bool ran = scheduler.runEventById(event);
            RCH_ASSERT(ran, "controlled event vanished before running");
        }
        footprint.stop();
        ++result.steps;
        violated = evaluate();
    }

    if (!violated) {
        // Deterministic run-out: finish in-flight handling episodes.
        system.runFor(scenario.tail);
        violated = evaluate();
    }
    if (!violated && scenario.final_check) {
        if (auto failure = scenario.final_check(system)) {
            McViolation violation;
            violation.oracle = "final_state";
            violation.summary = *failure;
            violation.time = scheduler.now();
            result.violations.push_back(std::move(violation));
        }
    }
    return result;
}

} // namespace rchdroid::mc
