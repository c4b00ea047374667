/**
 * @file
 * The shadow GC end-to-end: collection after idle, retention under
 * frequent flipping, memory reclamation, and the post-GC init path.
 */
#include <gtest/gtest.h>

#include "sim/android_system.h"

namespace rchdroid::sim {
namespace {

SystemOptions
rchOptions(SimDuration thresh_t = seconds(50), int thresh_f = 4)
{
    SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    options.rch.thresh_t = thresh_t;
    options.rch.thresh_f = thresh_f;
    options.rch.gc_interval = seconds(1);
    return options;
}

TEST(GcIntegration, IdleShadowCollectedAfterThreshold)
{
    AndroidSystem system(rchOptions());
    const auto spec = apps::makeBenchmarkApp(4);
    system.install(spec);
    system.launch(spec);
    system.rotate();
    ASSERT_TRUE(system.waitHandlingComplete());
    ASSERT_NE(system.threadFor(spec).shadowActivity(), nullptr);

    const auto heap_with_shadow = system.appHeapBytes(spec);
    // Age past THRESH_T (50 s) and past the 60 s frequency window.
    system.runFor(seconds(70));
    EXPECT_EQ(system.threadFor(spec).shadowActivity(), nullptr);
    EXPECT_LT(system.appHeapBytes(spec), heap_with_shadow);
    EXPECT_EQ(system.installed(spec).handler->stats().gc_collections, 1u);
    // The ATMS dropped the shadow record too.
    EXPECT_EQ(system.atms().recordCount(), 1u);
}

TEST(GcIntegration, CollectionClearsTheSurvivorsPeerLinks)
{
    AndroidSystem system(rchOptions());
    const auto spec = apps::makeBenchmarkApp(4);
    system.install(spec);
    system.launch(spec);
    system.rotate();
    ASSERT_TRUE(system.waitHandlingComplete());

    const auto foreground = system.threadFor(spec).foregroundActivity();
    ASSERT_NE(foreground, nullptr);
    const auto linkedViews = [&foreground] {
        int linked = 0;
        foreground->window().decorView().visitConst([&linked](const View &v) {
            if (v.sunnyPeer() != nullptr)
                ++linked;
        });
        return linked;
    };
    ASSERT_GT(linkedViews(), 0); // mapped against the shadow

    system.runFor(seconds(70)); // GC collects the shadow
    ASSERT_EQ(system.threadFor(spec).shadowActivity(), nullptr);
    // No foreground view may point into the freed shadow tree.
    EXPECT_EQ(linkedViews(), 0);
}

TEST(GcIntegration, FrequentFlippingKeepsShadowAlive)
{
    AndroidSystem system(rchOptions());
    const auto spec = apps::makeBenchmarkApp(4);
    system.install(spec);
    system.launch(spec);
    // Six changes per minute for three minutes: frequency ≥ THRESH_F.
    for (int i = 0; i < 18; ++i) {
        system.rotate();
        ASSERT_TRUE(system.waitHandlingComplete());
        system.runFor(seconds(10));
    }
    EXPECT_EQ(system.installed(spec).handler->stats().gc_collections, 0u);
    EXPECT_NE(system.threadFor(spec).shadowActivity(), nullptr);
}

TEST(GcIntegration, ChangeAfterCollectionTakesInitPathAgain)
{
    AndroidSystem system(rchOptions());
    const auto spec = apps::makeBenchmarkApp(4);
    system.install(spec);
    system.launch(spec);
    system.rotate();
    ASSERT_TRUE(system.waitHandlingComplete());
    system.runFor(seconds(70)); // GC collects
    ASSERT_EQ(system.threadFor(spec).shadowActivity(), nullptr);

    system.rotate();
    ASSERT_TRUE(system.waitHandlingComplete());
    const auto &stats = system.installed(spec).handler->stats();
    EXPECT_EQ(stats.init_launches, 2u); // no flip available
    EXPECT_EQ(stats.flips, 0u);
    EXPECT_EQ(system.atms().starterStats().sunny_creates, 2u);
}

TEST(GcIntegration, TickReclaimingTheFlipTargetFallsBackToInitLaunch)
{
    // Default GC tuning. The second change lands just as the first
    // shadow ages past THRESH_T: the ATMS picks that shadow for a coin
    // flip, and a GC tick collects it before the flip reaches the app.
    SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    AndroidSystem system(options);
    const auto spec = apps::makeBenchmarkApp(4);
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    system.rotate();
    ASSERT_TRUE(system.waitHandlingComplete());
    system.runFor(milliseconds(49'840));

    system.rotate();
    ASSERT_TRUE(system.waitHandlingComplete());
    const auto &stats = system.installed(spec).handler->stats();
    EXPECT_EQ(stats.gc_collections, 1u);
    EXPECT_EQ(stats.flips, 0u);
    EXPECT_EQ(stats.init_launches, 2u);
    EXPECT_EQ(system.atms().starterStats().coin_flips, 1u);
    EXPECT_TRUE(system.verifyCriticalState(spec).preserved);
}

TEST(GcIntegration, AggressiveGcNeverBreaksCorrectness)
{
    // THRESH_T = 0 and no frequency gate: collect at every tick. State
    // must still be preserved through every change (via the snapshot).
    auto options = rchOptions(0, 0);
    options.rch.thresh_f = std::numeric_limits<int>::max();
    options.rch.gc_interval = milliseconds(200);
    AndroidSystem system(options);
    auto spec = apps::tp37()[15]; // OpenSudoku: TextViewText critical
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    for (int i = 0; i < 4; ++i) {
        system.rotate();
        ASSERT_TRUE(system.waitHandlingComplete());
        system.runFor(seconds(2));
        EXPECT_TRUE(system.verifyCriticalState(spec).preserved)
            << "change " << i;
    }
    EXPECT_GE(system.installed(spec).handler->stats().gc_collections, 3u);
}

TEST(GcIntegration, HigherThresholdRetainsMoreMemoryOnAverage)
{
    const auto spec = apps::makeBenchmarkApp(16);
    auto mean_heap = [&](SimDuration thresh_t) {
        AndroidSystem system(rchOptions(thresh_t));
        system.install(spec);
        system.launch(spec);
        auto &sampler = system.startMemorySampling(spec);
        system.rotate();
        system.waitHandlingComplete();
        system.runFor(seconds(120));
        sampler.stop();
        return sampler.meanMb();
    };
    EXPECT_GT(mean_heap(seconds(200)), mean_heap(seconds(5)));
}

} // namespace
} // namespace rchdroid::sim
