/**
 * @file
 * Unit tests of the lifecycle protocol checker, driven through the hook
 * interface with synthetic activity identities.
 */
#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include "app/lifecycle.h"
#include "platform/logging.h"

using namespace rchdroid;
using namespace rchdroid::analysis;

namespace {

AnalyzerOptions
recordingOptions()
{
    AnalyzerOptions options;
    options.abort_on_violation = false;
    return options;
}

std::uint8_t
raw(LifecycleState state)
{
    return static_cast<std::uint8_t>(state);
}

/** Report one transition for a synthetic activity identity. */
void
transition(const void *activity, const void *scope, LifecycleState from,
           LifecycleState to, const char *component = "com.t/.A",
           std::uint64_t instance = 1)
{
    obs::notify(&obs::Observer::onLifecycleTransition, activity, scope,
                component, instance, raw(from), raw(to));
}

/** Walk an activity Initial → Resumed through the legal chain. */
void
bringToForeground(const void *activity, const void *scope,
                  const char *component, std::uint64_t instance)
{
    transition(activity, scope, LifecycleState::Initial,
               LifecycleState::Created, component, instance);
    transition(activity, scope, LifecycleState::Created,
               LifecycleState::Started, component, instance);
    transition(activity, scope, LifecycleState::Started,
               LifecycleState::Resumed, component, instance);
}

} // namespace

TEST(LifecycleChecker, LegalFullLifecycleIsClean)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity = 0;

    transition(&activity, nullptr, LifecycleState::Initial,
               LifecycleState::Created);
    transition(&activity, nullptr, LifecycleState::Created,
               LifecycleState::Started);
    transition(&activity, nullptr, LifecycleState::Started,
               LifecycleState::Resumed);
    transition(&activity, nullptr, LifecycleState::Resumed,
               LifecycleState::Paused);
    transition(&activity, nullptr, LifecycleState::Paused,
               LifecycleState::Stopped);
    transition(&activity, nullptr, LifecycleState::Stopped,
               LifecycleState::Destroyed);

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
    EXPECT_EQ(guard.analyzer().lifecycleChecker().transitionsChecked(), 6u);
}

TEST(LifecycleChecker, RchDroidDottedEdgesAreLegal)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity = 0;

    bringToForeground(&activity, nullptr, "com.t/.A", 1);
    // Resumed → Shadow (runtime change), Shadow → Sunny (coin flip),
    // Sunny → Shadow (displaced), Shadow → Destroyed (GC).
    transition(&activity, nullptr, LifecycleState::Resumed,
               LifecycleState::Shadow);
    transition(&activity, nullptr, LifecycleState::Shadow,
               LifecycleState::Sunny);
    transition(&activity, nullptr, LifecycleState::Sunny,
               LifecycleState::Shadow);
    transition(&activity, nullptr, LifecycleState::Shadow,
               LifecycleState::Destroyed);

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
}

TEST(LifecycleChecker, IllegalEdgeIsFlagged)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity = 0;

    transition(&activity, nullptr, LifecycleState::Initial,
               LifecycleState::Created);
    // No Created → Resumed edge in Fig. 4 (must pass Started).
    transition(&activity, nullptr, LifecycleState::Created,
               LifecycleState::Resumed);

    const ViolationSink &sink = guard.analyzer().sink();
    ASSERT_EQ(sink.countOf(ViolationKind::LifecycleTransition), 1u);
    EXPECT_NE(sink.violations()[0].summary.find("illegal transition"),
              std::string::npos);
}

TEST(LifecycleChecker, StateDesyncIsFlagged)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity = 0;

    transition(&activity, nullptr, LifecycleState::Initial,
               LifecycleState::Created);
    // Claims to come from Started, but the checker observed Created.
    transition(&activity, nullptr, LifecycleState::Started,
               LifecycleState::Resumed);

    EXPECT_EQ(guard.analyzer().sink().countOf(
                  ViolationKind::LifecycleTransition),
              1u);
}

TEST(LifecycleChecker, TwoForegroundInstancesInOneScopeAreFlagged)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity_a = 0;
    int activity_b = 0;
    int scope = 0;

    bringToForeground(&activity_a, &scope, "com.t/.A", 1);
    bringToForeground(&activity_b, &scope, "com.t/.B", 2);

    const ViolationSink &sink = guard.analyzer().sink();
    ASSERT_EQ(sink.countOf(ViolationKind::LifecycleInvariant), 1u);
    EXPECT_NE(sink.violations()[0].summary.find("two foreground"),
              std::string::npos);
}

TEST(LifecycleChecker, AtMostOneSunnyPerScopeIsEnforced)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity_a = 0;
    int activity_b = 0;
    int scope = 0;

    bringToForeground(&activity_a, &scope, "com.t/.A", 1);
    transition(&activity_a, &scope, LifecycleState::Resumed,
               LifecycleState::Shadow, "com.t/.A", 1);
    transition(&activity_a, &scope, LifecycleState::Shadow,
               LifecycleState::Sunny, "com.t/.A", 1);
    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);

    // A second instance going Sunny in the same scope violates the
    // one-Sunny invariant.
    transition(&activity_b, &scope, LifecycleState::Initial,
               LifecycleState::Created, "com.t/.B", 2);
    transition(&activity_b, &scope, LifecycleState::Created,
               LifecycleState::Sunny, "com.t/.B", 2);
    EXPECT_EQ(guard.analyzer().sink().countOf(
                  ViolationKind::LifecycleInvariant),
              1u);
}

TEST(LifecycleChecker, ForegroundPairInDifferentScopesIsFine)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity_a = 0;
    int activity_b = 0;
    int scope_a = 0;
    int scope_b = 0;

    bringToForeground(&activity_a, &scope_a, "com.t/.A", 1);
    bringToForeground(&activity_b, &scope_b, "com.t/.B", 2);

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
}

TEST(LifecycleChecker, ActivityGoneForgetsTheInstance)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int activity = 0;
    int scope = 0;

    bringToForeground(&activity, &scope, "com.t/.A", 1);
    obs::notify(&obs::Observer::onActivityGone, &activity);
    // A fresh instance reusing the address starts clean: no desync, no
    // foreground conflict with the stale record.
    bringToForeground(&activity, &scope, "com.t/.A", 2);

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
}

TEST(LifecycleChecker, FrameworkDestroyedViewMutationIsFlagged)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int view = 0;

    obs::notify(&obs::Observer::onDestroyedViewMutation, &view, "TextView",
                "status");

    const ViolationSink &sink = guard.analyzer().sink();
    ASSERT_EQ(sink.countOf(ViolationKind::DestroyedViewMutation), 1u);
    EXPECT_NE(sink.violations()[0].summary.find("framework mutated"),
              std::string::npos);
}

TEST(LifecycleChecker, AppCodeDestroyedViewMutationIsTheStudiedBug)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    int view = 0;

    // Inside the crash guard, a destroyed-view touch is the app bug the
    // paper studies — counted, not reported.
    obs::notify(&obs::Observer::onAppCodeBegin);
    obs::notify(&obs::Observer::onDestroyedViewMutation, &view, "TextView",
                "status");
    obs::notify(&obs::Observer::onAppCodeEnd);

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
    EXPECT_EQ(
        guard.analyzer().lifecycleChecker().appDestroyedViewTouches(), 1u);
}
