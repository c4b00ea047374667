/**
 * @file
 * The canonical fingerprint must be stable across executions (two
 * fresh systems driven identically hash identically — despite
 * process-global instance-id counters advancing between them) and
 * sensitive to every state dimension the oracles observe.
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "mc/scenario.h"
#include "mc/state_hash.h"
#include "sim/android_system.h"

namespace rchdroid::mc {
namespace {

/** The scenario's system options, analyzer off as in an execution. */
sim::SystemOptions
withoutAnalysis(const Scenario &scenario)
{
    sim::SystemOptions options = scenario.make_options();
    options.analysis_enabled = false;
    return options;
}

/** Build the scenario's system and run its uncontrolled setup. */
std::uint64_t
fingerprintAfterSetup(const Scenario &scenario,
                      SimDuration extra_run = 0)
{
    sim::AndroidSystem system(withoutAnalysis(scenario));
    scenario.setup(system);
    if (extra_run > 0)
        system.runFor(extra_run);
    return stateFingerprint(system);
}

TEST(StateHashTest, IdenticalExecutionsHashIdentically)
{
    const Scenario *scenario = findScenario("quickstart");
    ASSERT_NE(scenario, nullptr);
    // Two fully separate systems: fresh scheduler, fresh processes,
    // different Activity instance ids. Same observable state.
    const std::uint64_t first = fingerprintAfterSetup(*scenario);
    const std::uint64_t second = fingerprintAfterSetup(*scenario);
    EXPECT_EQ(first, second);
}

TEST(StateHashTest, StableAcrossAllScenarios)
{
    for (const Scenario &scenario : scenarioCatalog()) {
        EXPECT_EQ(fingerprintAfterSetup(scenario),
                  fingerprintAfterSetup(scenario))
            << "fingerprint unstable for scenario " << scenario.name;
    }
}

TEST(StateHashTest, AdvancingTheSystemChangesTheHash)
{
    const Scenario *scenario = findScenario("quickstart");
    ASSERT_NE(scenario, nullptr);
    const std::uint64_t at_setup = fingerprintAfterSetup(*scenario);
    const std::uint64_t later =
        fingerprintAfterSetup(*scenario, seconds(1));
    EXPECT_NE(at_setup, later); // at minimum, virtual time moved
}

TEST(StateHashTest, ConfigurationChangeChangesTheHash)
{
    const Scenario *scenario = findScenario("quickstart");
    ASSERT_NE(scenario, nullptr);

    sim::AndroidSystem plain(withoutAnalysis(*scenario));
    scenario->setup(plain);
    sim::AndroidSystem rotated(withoutAnalysis(*scenario));
    scenario->setup(rotated);
    applyInjection(rotated, InjectionKind::Rotate);

    // Same virtual time, same widgets; only the pending config-change
    // machinery differs — the hash must see it.
    EXPECT_NE(stateFingerprint(plain), stateFingerprint(rotated));
}

TEST(StateHashTest, DifferentScenariosHashDifferently)
{
    const Scenario *notes = findScenario("quickstart");
    const Scenario *login = findScenario("login_form");
    ASSERT_NE(notes, nullptr);
    ASSERT_NE(login, nullptr);
    EXPECT_NE(fingerprintAfterSetup(*notes),
              fingerprintAfterSetup(*login));
}

} // namespace
} // namespace rchdroid::mc
