/**
 * @file
 * Model-checking scenarios: the workload catalogue rchdroid_mc explores.
 *
 * A scenario bundles everything one bounded exploration needs:
 * system options (mode + RCH tuning), a deterministic setup phase
 * (install apps, launch, seed user state — runs uncontrolled, before
 * the first choice point), the set of configuration-change injections
 * the explorer may interleave with pending events, the virtual-time
 * horizon of the controlled window, and an optional end-of-execution
 * functional check (reported under the oracle name "final_state").
 *
 * The catalogue covers the five examples/ programs (quickstart,
 * login_form, photo_gallery, mail_navigation, gc_tuning) plus two
 * checker-specific workloads:
 *  - "seeded_gc": an intentionally mistuned GC (THRESH_T of a second,
 *    a tick every second) over the Fig. 1 gallery — the GC reclaims
 *    the shadow while the thumbnail AsyncTask still targets it, but
 *    only on schedules where a rotation is injected before the task
 *    returns. The bug the gc_live_async oracle and the minimizer are
 *    demonstrated on.
 *  - "reduction_demo": three fully independent app processes stepping
 *    in lock-step — every interleaving is equivalent, so it isolates
 *    what sleep sets + state hashing buy over naive DFS.
 */
#ifndef RCHDROID_MC_SCENARIO_H
#define RCHDROID_MC_SCENARIO_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sa/mhp.h"
#include "sim/android_system.h"

namespace rchdroid::mc {

/** A configuration change the explorer may inject at a choice point. */
enum class InjectionKind : std::uint8_t {
    /** Toggle orientation (Configuration::rotated). */
    Rotate,
    /** Toggle `wm size 1080x1920` / `wm size reset`. */
    WmSizeToggle,
    /** Toggle the system locale en-US / fr-FR. */
    LocaleToggle,
};

/** Stable display name ("rotate", "wm_size", "locale"). */
const char *injectionName(InjectionKind kind);

/** Perform the injection on the device (toggles are self-inverse). */
void applyInjection(sim::AndroidSystem &system, InjectionKind kind);

/**
 * One explorable workload.
 *
 * The explorer replays branches on worker threads (mc/explorer.h), so
 * `make_options`, `setup` and `final_check` may run concurrently, each
 * call on its own system. They must not mutate shared state: the
 * catalogue's and makeAppScenario's closures capture by value and
 * mutate nothing.
 */
struct Scenario
{
    std::string name;
    std::string description;
    /** System construction parameters for each (re-)execution. */
    std::function<sim::SystemOptions()> make_options;
    /** Deterministic uncontrolled warm-up: install, launch, seed. */
    std::function<void(sim::AndroidSystem &)> setup;
    /** Injections offered at choice points (may be empty). */
    std::vector<InjectionKind> injections;
    /** Total injections allowed along one schedule. */
    int max_injections = 4;
    /** Virtual-time extent of the controlled window. */
    SimDuration horizon = seconds(30);
    /** Uncontrolled run-out after the window, before final_check. */
    SimDuration tail = seconds(2);
    /**
     * End-of-execution functional check; returns a description of the
     * failure or nullopt. Must hold on EVERY schedule — it asserts
     * what RCHDroid guarantees, not what one lucky ordering produces.
     */
    std::function<std::optional<std::string>(sim::AndroidSystem &)>
        final_check;
    /**
     * The looper ownership persistent-set pruning reads (sa/mhp.h);
     * only a closed-world spec prunes. Empty = no static guidance; the
     * explorer then runs classical unguided DPOR. Spec authors carry
     * the soundness obligations documented on sa::IndependenceSpec; the
     * guided-vs-unguided equivalence CTest cross-checks them.
     */
    sa::IndependenceSpec independence;
};

/** Look up a scenario; null when the name is unknown. */
const Scenario *findScenario(const std::string &name);

/** The full catalogue, in presentation order. */
const std::vector<Scenario> &scenarioCatalog();

} // namespace rchdroid::mc

#endif // RCHDROID_MC_SCENARIO_H
