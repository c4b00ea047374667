/**
 * @file
 * ExecutionOptions::known_states trims the explorer's bookkeeping and
 * nothing else. On every catalogue scenario and seeded random
 * schedules, a run that knows its first s states matches a
 * full-bookkeeping run on every choice point's options, choice, event
 * count and budget, on steps and violations, on fingerprints from depth
 * s and on segment footprints from depth s - 1. The slots before those
 * stay 0 or empty.
 */
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mc/execution.h"
#include "mc/scenario.h"
#include "platform/rng.h"

namespace rchdroid::mc {
namespace {

constexpr int kDepth = 10;
constexpr int kSchedulesPerScenario = 6;

void
expectSameOptions(const std::vector<ChoiceOption> &got,
                  const std::vector<ChoiceOption> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << i;
        EXPECT_EQ(got[i].event_id, want[i].event_id) << i;
        EXPECT_EQ(got[i].injection, want[i].injection) << i;
        EXPECT_EQ(got[i].label, want[i].label) << i;
    }
}

void
expectSuffixEquivalent(const Scenario &scenario, std::vector<int> schedule)
{
    ExecutionOptions full;
    full.scenario = &scenario;
    full.schedule = std::move(schedule);
    full.max_choice_points = kDepth;
    const ExecutionResult want = runExecution(full);

    ExecutionOptions suffix = full;
    suffix.known_states = full.schedule.size();
    const ExecutionResult got = runExecution(suffix);
    const std::size_t s = suffix.known_states;

    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.hit_depth_cap, want.hit_depth_cap);
    ASSERT_EQ(got.violations.size(), want.violations.size());
    for (std::size_t i = 0; i < got.violations.size(); ++i) {
        EXPECT_EQ(got.violations[i].oracle, want.violations[i].oracle);
        EXPECT_EQ(got.violations[i].summary, want.violations[i].summary);
        EXPECT_EQ(got.violations[i].time, want.violations[i].time);
    }

    ASSERT_EQ(got.choice_points.size(), want.choice_points.size());
    std::uint64_t suffix_points = 0;
    for (std::size_t depth = 0; depth < got.choice_points.size(); ++depth) {
        SCOPED_TRACE("depth " + std::to_string(depth));
        const ChoicePoint &g = got.choice_points[depth];
        const ChoicePoint &w = want.choice_points[depth];
        expectSameOptions(g.options, w.options);
        EXPECT_EQ(g.chosen, w.chosen);
        EXPECT_EQ(g.events_before, w.events_before);
        EXPECT_EQ(g.injections_left, w.injections_left);
        if (depth >= s) {
            EXPECT_EQ(g.fingerprint_before, w.fingerprint_before);
            ++suffix_points;
        } else {
            EXPECT_EQ(g.fingerprint_before, 0u);
        }
        if (depth + 1 >= s)
            EXPECT_EQ(g.segment_footprint, w.segment_footprint);
        else
            EXPECT_TRUE(g.segment_footprint.empty());
    }
    EXPECT_EQ(got.fingerprints_computed, suffix_points);
    EXPECT_EQ(want.fingerprints_computed, want.choice_points.size());
}

TEST(SuffixBookkeeping, MatchesFullBookkeepingFromTheDivergencePoint)
{
    Rng rng(0x5eed0b00cULL);
    for (const Scenario &scenario : scenarioCatalog()) {
        SCOPED_TRACE(scenario.name);
        for (int k = 0; k < kSchedulesPerScenario; ++k) {
            std::vector<int> schedule(
                static_cast<std::size_t>(rng.nextInt(1, kDepth)));
            for (int &choice : schedule)
                choice = static_cast<int>(rng.nextInt(0, 2));
            expectSuffixEquivalent(scenario, schedule);
        }
    }
}

} // namespace
} // namespace rchdroid::mc
