#include "mc/execution.h"

#include "mc/state_hash.h"
#include "platform/logging.h"

namespace rchdroid::mc {

namespace {

/** Options at the current instant: due events, then injections. */
std::vector<ChoiceOption>
buildOptions(SimScheduler &scheduler, const Scenario &scenario,
             SimTime deadline, bool can_inject)
{
    std::vector<ChoiceOption> options;
    std::vector<RunnableEvent> runnable = scheduler.runnableNow();
    if (!runnable.empty() && runnable.front().when > deadline)
        runnable.clear(); // nothing due inside the window any more
    for (const RunnableEvent &event : runnable) {
        ChoiceOption option;
        option.kind = ChoiceOption::Kind::Event;
        option.event_id = event.id;
        option.label = event.label.name ? event.label.name : "?";
        options.push_back(std::move(option));
    }
    if (can_inject) {
        if (options.empty()) {
            // Idle device: the default must stay injection-free, so
            // offer "end the window" as option 0.
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

    // Install the checker's hooks BEFORE the system exists: the
    // system's own ScopedAnalyzer defers to them, which both routes
    // every event through our footprint recorder and keeps the
    // environment's abort-on-violation default from killing the run.
    McHooks hooks(options.run_analysis);
    ScopedMcHooks hooks_guard(hooks);

    sim::AndroidSystem system(scenario.make_options());
    scenario.setup(system);

    std::vector<std::unique_ptr<Oracle>> oracles = makeOracles(
        options.oracles.empty() ? defaultOracleNames() : options.oracles);
    for (auto &oracle : oracles)
        oracle->onStart(system, hooks);

    ExecutionResult result;
    SimScheduler &scheduler = system.scheduler();
    const SimTime deadline = scheduler.now() + scenario.horizon;
    int injections_used = 0;
    bool violated = false;

    const auto evaluate = [&]() -> bool {
        for (auto &oracle : oracles) {
            if (auto violation = oracle->afterStep(system, hooks)) {
                result.violations.push_back(*violation);
                return true;
            }
        }
        return false;
    };

    while (!violated && scheduler.now() < deadline) {
        const bool within_depth =
            result.choice_points.size() <
            static_cast<std::size_t>(options.max_choice_points);
        const bool can_inject = within_depth && !scenario.injections.empty() &&
                                injections_used < scenario.max_injections;
        std::vector<ChoiceOption> choice_options =
            buildOptions(scheduler, scenario, deadline, can_inject);
        if (choice_options.empty())
            break;

        int chosen = 0;
        if (choice_options.size() >= 2) {
            if (!within_depth) {
                result.hit_depth_cap = true;
            } else {
                ChoicePoint cp;
                cp.options = choice_options;
                cp.injections_left =
                    scenario.max_injections - injections_used;
                cp.events_before = scheduler.executedEvents();
                const std::size_t depth = result.choice_points.size();
                if (options.fingerprints && depth >= options.known_states) {
                    cp.fingerprint_before = stateFingerprint(system);
                    ++result.fingerprints_computed;
                }
                chosen = depth < options.schedule.size()
                             ? options.schedule[depth]
                             : 0;
                if (chosen < 0 ||
                    chosen >= static_cast<int>(choice_options.size()))
                    chosen = 0; // out of range: take the default
                cp.chosen = chosen;
                result.choice_points.push_back(std::move(cp));
            }
        }

        const ChoiceOption &option = choice_options[chosen];
        if (option.kind == ChoiceOption::Kind::EndWindow)
            break;
        hooks.beginStep();
        if (option.kind == ChoiceOption::Kind::Injection) {
            applyInjection(system, option.injection);
            ++injections_used;
        } else {
            const bool ran = scheduler.runEventById(option.event_id);
            RCH_ASSERT(ran, "controlled event vanished before running");
        }
        ++result.steps;
        if (!result.choice_points.empty() &&
            result.choice_points.size() >= options.known_states) {
            ChoicePoint &last = result.choice_points.back();
            last.segment_footprint.insert(hooks.footprint().begin(),
                                          hooks.footprint().end());
            last.segment.merge(hooks.segment());
        }
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
