/**
 * @file
 * FootprintRecorder records what the steps between record() and stop()
 * touch, and nothing else: the looper a message is dispatched on, the
 * looper a message is sent to, and "<barrier>" for a sync barrier.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mc/footprint.h"
#include "os/looper.h"
#include "os/observer.h"
#include "os/scheduler.h"

namespace rchdroid::mc {
namespace {

using Footprint = std::set<std::string>;

/**
 * Two loopers on one scheduler. Each test declares its footprints
 * before its recorder, so they outlive the recording, as in
 * runExecution().
 */
class FootprintRecorderTest : public ::testing::Test
{
  protected:
    SimScheduler scheduler_;
    Looper a_{scheduler_, "a.main"};
    Looper b_{scheduler_, "b.main"};
};

TEST_F(FootprintRecorderTest, StartsStoppedAndRecordsNothing)
{
    Footprint footprint;
    FootprintRecorder recorder;
    obs::Subscription subscription(recorder);
    // Send, dispatch and barrier before any record(): the recorder has
    // nowhere to write and must not keep them for later.
    a_.post([] {});
    scheduler_.runUntilIdle();
    obs::notify(&obs::Observer::onSyncBarrier, &a_, "test");

    recorder.record(footprint);
    EXPECT_TRUE(footprint.empty());
}

TEST_F(FootprintRecorderTest, RecordsDispatchSendAndBarrier)
{
    Footprint dispatch, send, barrier;
    FootprintRecorder recorder;
    obs::Subscription subscription(recorder);

    a_.post([] {});
    recorder.record(dispatch);
    ASSERT_TRUE(scheduler_.step());
    EXPECT_EQ(dispatch, Footprint{"a.main"});

    recorder.record(send);
    b_.post([] {});
    EXPECT_EQ(send, Footprint{"b.main"});
    EXPECT_EQ(dispatch, Footprint{"a.main"}); // record() moved on

    recorder.record(barrier);
    obs::notify(&obs::Observer::onSyncBarrier, &a_, "test");
    EXPECT_EQ(barrier, Footprint{"<barrier>"});
}

TEST_F(FootprintRecorderTest, StepAddsEveryLooperItTouches)
{
    Footprint footprint;
    FootprintRecorder recorder;
    obs::Subscription subscription(recorder);
    // One dispatch on a that sends to b twice: both loopers, once each.
    a_.post([this] {
        b_.post([] {});
        b_.post([] {});
    });
    recorder.record(footprint);
    ASSERT_TRUE(scheduler_.step());
    EXPECT_EQ(footprint, (Footprint{"a.main", "b.main"}));
}

TEST_F(FootprintRecorderTest, StopEndsRecording)
{
    Footprint footprint;
    FootprintRecorder recorder;
    obs::Subscription subscription(recorder);
    recorder.record(footprint);
    a_.post([] {});
    recorder.stop();
    b_.post([] {});
    scheduler_.runUntilIdle();
    obs::notify(&obs::Observer::onSyncBarrier, &a_, "test");
    EXPECT_EQ(footprint, Footprint{"a.main"});
}

} // namespace
} // namespace rchdroid::mc
