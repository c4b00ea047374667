/**
 * @file
 * AndroidSystem façade: installation paths, device actions, clock
 * control, and measurement wiring.
 */
#include <gtest/gtest.h>

#include <memory>

#include "sim/android_system.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid::sim {
namespace {

class TinyActivity final : public Activity
{
  public:
    TinyActivity() : Activity("t/.Tiny") {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        setContentView(std::make_unique<FrameLayout>("root"));
    }
};

TEST(AndroidSystem, InstallCustomAndLaunch)
{
    AndroidSystem system;
    CustomAppParams params;
    params.process = "t";
    params.component = "t/.Tiny";
    params.factory = [] { return std::make_unique<TinyActivity>(); };
    system.installCustom(params);
    system.launchProcess("t");
    auto activity = system.foregroundActivityOf("t");
    ASSERT_NE(activity, nullptr);
    EXPECT_EQ(activity->component(), "t/.Tiny");
    EXPECT_EQ(activity->lifecycleState(), LifecycleState::Resumed);
}

TEST(AndroidSystem, BootConfigurationIsNativeLandscape)
{
    AndroidSystem system;
    EXPECT_EQ(system.currentConfiguration().orientation,
              Orientation::Landscape);
    EXPECT_EQ(system.currentConfiguration().screen_width_px, 1920);
}

TEST(AndroidSystem, WmSizeAndResetRoundTrip)
{
    AndroidSystem system;
    const auto spec = apps::makeBenchmarkApp(1);
    system.install(spec);
    system.launch(spec);

    system.wmSize(1080, 1920);
    ASSERT_TRUE(system.waitHandlingComplete());
    EXPECT_EQ(system.currentConfiguration().orientation,
              Orientation::Portrait);

    system.wmSizeReset();
    ASSERT_TRUE(system.waitHandlingComplete());
    EXPECT_EQ(system.currentConfiguration().screen_width_px, 1920);
}

TEST(AndroidSystem, LocalePreservedAcrossWmReset)
{
    AndroidSystem system;
    const auto spec = apps::makeBenchmarkApp(1);
    system.install(spec);
    system.launch(spec);
    system.setLocale("fr-FR");
    ASSERT_TRUE(system.waitHandlingComplete());
    system.wmSize(1080, 1920);
    ASSERT_TRUE(system.waitHandlingComplete());
    system.wmSizeReset();
    ASSERT_TRUE(system.waitHandlingComplete());
    EXPECT_EQ(system.currentConfiguration().locale, "fr-FR");
}

TEST(AndroidSystem, KeyboardAttachIsARuntimeChange)
{
    SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    AndroidSystem system(options);
    const auto spec = apps::makeBenchmarkApp(2);
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);

    system.setKeyboardAttached(true);
    ASSERT_TRUE(system.waitHandlingComplete());
    EXPECT_EQ(system.currentConfiguration().keyboard,
              KeyboardState::Attached);
    EXPECT_TRUE(system.verifyCriticalState(spec).preserved);

    system.setKeyboardAttached(false);
    ASSERT_TRUE(system.waitHandlingComplete());
    // Detach coin-flips back to the original instance.
    EXPECT_EQ(system.atms().starterStats().coin_flips, 1u);
}

TEST(AndroidSystem, RunUntilTimesOut)
{
    AndroidSystem system;
    const auto spec = apps::makeBenchmarkApp(1);
    system.install(spec);
    system.launch(spec);
    // A periodic sampler keeps the event queue non-empty, so the wait
    // genuinely runs to its deadline.
    system.startMemorySampling(spec);
    const bool hit = system.runUntil([] { return false; }, seconds(1));
    EXPECT_FALSE(hit);
    EXPECT_GE(system.scheduler().now(), seconds(1));
}

TEST(AndroidSystem, RunUntilReturnsOnEmptyQueue)
{
    AndroidSystem system;
    // Nothing pending: runUntil must not spin to the deadline.
    const bool hit = system.runUntil([] { return false; }, minutes(30));
    EXPECT_FALSE(hit);
    EXPECT_LT(system.scheduler().now(), minutes(30));
}

TEST(AndroidSystem, WaitHandlingCompleteFalseOnCrash)
{
    SystemOptions options;
    options.mode = RuntimeChangeMode::Restart;
    AndroidSystem system(options);
    const auto spec = apps::makeBenchmarkApp(2, milliseconds(200));
    system.install(spec);
    system.launch(spec);
    system.clickUpdateButton(spec);
    system.rotate();
    // The handling completes first (restart is fast), so consume it...
    ASSERT_TRUE(system.waitHandlingComplete());
    // ...then the async return crashes; a second wait sees the crash,
    // not a resume.
    system.rotate();
    EXPECT_FALSE(system.waitHandlingComplete(seconds(2)));
    EXPECT_TRUE(system.threadFor(spec).crashed());
}

TEST(AndroidSystem, TraceRecordsConfigChangeEvents)
{
    AndroidSystem system;
    const auto spec = apps::makeBenchmarkApp(1);
    system.install(spec);
    system.launch(spec);
    EXPECT_EQ(system.trace().countOfKind(kinds::kAtmsConfigChange), 0u);
    system.rotate();
    system.waitHandlingComplete();
    EXPECT_EQ(system.trace().countOfKind(kinds::kAtmsConfigChange), 1u);
    EXPECT_GT(system.lastHandlingMs(), 0.0);
}

TEST(AndroidSystem, TwoSystemsOnOneThreadRecordSeparately)
{
    const auto spec = apps::makeBenchmarkApp(1);
    AndroidSystem solo;
    solo.install(spec);
    solo.launch(spec);
    const std::size_t boot_events = solo.trace().events().size();
    const std::size_t boot_busy = solo.cpuTracker().intervals().size();
    ASSERT_GT(boot_busy, 0u);

    AndroidSystem plain;
    AndroidSystem rotated;
    for (AndroidSystem *system : {&plain, &rotated}) {
        system->install(spec);
        system->launch(spec);
        // Each boot recorded exactly what a lone system records.
        EXPECT_EQ(system->trace().events().size(), boot_events);
        EXPECT_EQ(system->cpuTracker().intervals().size(), boot_busy);
    }

    rotated.rotate();
    ASSERT_TRUE(rotated.waitHandlingComplete());
    EXPECT_EQ(rotated.trace().handlingEpisodes().size(), 1u);
    EXPECT_EQ(rotated.trace().countOfKind(kinds::kAtmsConfigChange), 1u);
    EXPECT_GT(rotated.cpuTracker().intervals().size(), boot_busy);
    // The other system on the thread heard none of it.
    EXPECT_TRUE(plain.trace().handlingEpisodes().empty());
    EXPECT_EQ(plain.trace().countOfKind(kinds::kAtmsConfigChange), 0u);
    EXPECT_EQ(plain.trace().events().size(), boot_events);
    EXPECT_EQ(plain.cpuTracker().intervals().size(), boot_busy);
}

TEST(AndroidSystem, ReplacementBuiltBeforeTheOldOneDiesKeepsRecording)
{
    // A crash reopen: the new system exists before the old one is
    // destroyed, so the old one leaves the observer chain from behind
    // the new one.
    const auto spec = apps::makeBenchmarkApp(1);
    auto system = std::make_unique<AndroidSystem>();
    system->install(spec);
    system->launch(spec);
    system = std::make_unique<AndroidSystem>();
    system->install(spec);
    system->launch(spec);
    EXPECT_EQ(system->trace().countOfKind(kinds::kAtmsActivityResumed), 1u);
    const std::size_t boot_busy = system->cpuTracker().intervals().size();
    EXPECT_GT(boot_busy, 0u);

    system->rotate();
    ASSERT_TRUE(system->waitHandlingComplete());
    EXPECT_EQ(system->trace().handlingEpisodes().size(), 1u);
    EXPECT_GT(system->cpuTracker().intervals().size(), boot_busy);
}

TEST(AndroidSystem, MemorySamplingLifecycle)
{
    AndroidSystem system;
    const auto spec = apps::makeBenchmarkApp(1);
    system.install(spec);
    system.launch(spec);
    auto &sampler = system.startMemorySampling(spec);
    system.runFor(milliseconds(100));
    sampler.stop();
    EXPECT_GT(sampler.samples().size(), 5u);
    EXPECT_GT(sampler.meanMb(), 0.0);
    // Restart returns the same sampler.
    EXPECT_EQ(&system.startMemorySampling(spec), &sampler);
}

TEST(AndroidSystemDeath, DoubleInstallPanics)
{
    AndroidSystem system;
    const auto spec = apps::makeBenchmarkApp(1);
    system.install(spec);
    EXPECT_DEATH(system.install(spec), "already installed");
}

} // namespace
} // namespace rchdroid::sim
