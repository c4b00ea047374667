/**
 * @file
 * Unit tests of the happens-before race detector, driven through real
 * loopers on a real scheduler: accesses are reported from inside
 * dispatches exactly the way the instrumented framework reports them.
 */
#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include "os/looper.h"
#include "os/scheduler.h"
#include "platform/logging.h"

using namespace rchdroid;
using namespace rchdroid::analysis;

namespace {

/** Recording analyzer (abort off) installed for one test's scope. */
AnalyzerOptions
recordingOptions()
{
    AnalyzerOptions options;
    options.abort_on_violation = false;
    return options;
}

void
access(const void *object, bool is_write)
{
    obs::notify(&obs::Observer::onSharedAccess, object, "Dummy", "obj",
                is_write);
}

} // namespace

TEST(RaceDetector, MessageSendOrdersCrossLooperAccesses)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");
    Looper b(scheduler, "looper.b");

    int object = 0;
    a.post([&] {
        access(&object, /*is_write=*/true);
        // Posting from inside a's dispatch carries a's clock to b.
        b.post([&] { access(&object, /*is_write=*/false); });
    });
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
    EXPECT_EQ(guard.analyzer().raceDetector().accessesChecked(), 2u);
}

TEST(RaceDetector, UnorderedReadWriteIsARace)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");
    Looper b(scheduler, "looper.b");

    int object = 0;
    // Both posts come from the harness (no sender): no edge between the
    // two dispatches, whatever their virtual-time order.
    a.post([&] { access(&object, /*is_write=*/true); });
    b.post([&] { access(&object, /*is_write=*/false); }, milliseconds(1));
    scheduler.runUntilIdle();

    const ViolationSink &sink = guard.analyzer().sink();
    ASSERT_EQ(sink.countOf(ViolationKind::DataRace), 1u);
    EXPECT_NE(sink.violations()[0].summary.find("looper.a"),
              std::string::npos);
    EXPECT_NE(sink.violations()[0].summary.find("looper.b"),
              std::string::npos);
}

TEST(RaceDetector, UnorderedWriteWriteIsARace)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");
    Looper b(scheduler, "looper.b");

    int object = 0;
    a.post([&] { access(&object, /*is_write=*/true); });
    b.post([&] { access(&object, /*is_write=*/true); }, milliseconds(1));
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().countOf(ViolationKind::DataRace), 1u);
}

TEST(RaceDetector, SameLooperAccessesAreProgramOrdered)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");

    int object = 0;
    a.post([&] { access(&object, /*is_write=*/true); });
    a.post([&] { access(&object, /*is_write=*/true); });
    a.post([&] { access(&object, /*is_write=*/false); });
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
}

TEST(RaceDetector, BarrierOrdersOtherwiseConcurrentAccesses)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");
    Looper b(scheduler, "looper.b");

    int object = 0;
    int scope = 0;
    a.post([&] {
        access(&object, /*is_write=*/true);
        obs::notify(&obs::Observer::onSyncBarrier, &scope, "test");
    });
    b.post(
        [&] {
            obs::notify(&obs::Observer::onSyncBarrier, &scope, "test");
            access(&object, /*is_write=*/true);
        },
        milliseconds(1));
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
}

TEST(RaceDetector, HarnessAccessesOutsideDispatchAreIgnored)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");

    int object = 0;
    // Direct access from the test body: outside the concurrency model.
    access(&object, /*is_write=*/true);
    a.post([&] { access(&object, /*is_write=*/true); });
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
    EXPECT_EQ(guard.analyzer().raceDetector().accessesIgnored(), 1u);
}

TEST(RaceDetector, RacesOnOneObjectAreReportedOnce)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");
    Looper b(scheduler, "looper.b");

    int object = 0;
    a.post([&] { access(&object, /*is_write=*/true); });
    for (int i = 1; i <= 3; ++i) {
        b.post([&] { access(&object, /*is_write=*/true); },
               milliseconds(i));
    }
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().countOf(ViolationKind::DataRace), 1u);
    EXPECT_GE(guard.analyzer().raceDetector().racesFound(), 1u);
}

TEST(RaceDetector, ObjectGoneDropsStaleHistory)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());
    SimScheduler scheduler;
    Looper a(scheduler, "looper.a");
    Looper b(scheduler, "looper.b");

    int object = 0;
    a.post([&] { access(&object, /*is_write=*/true); });
    // The object dies; a fresh object at the same address must not
    // inherit the access history (ABA).
    a.post([&] { obs::notify(&obs::Observer::onObjectGone, &object); },
           milliseconds(1));
    b.post([&] { access(&object, /*is_write=*/true); }, milliseconds(2));
    scheduler.runUntilIdle();

    EXPECT_EQ(guard.analyzer().sink().totalCount(), 0u);
}

TEST(RaceDetector, SecondAnalyzerDoesNotInstall)
{
    ScopedAnalyzer first(recordingOptions());
    ASSERT_TRUE(first.installed());
    ScopedAnalyzer second(recordingOptions());
    EXPECT_FALSE(second.installed());
    EXPECT_EQ(subscribedAnalyzer(), &first.analyzer());
}
