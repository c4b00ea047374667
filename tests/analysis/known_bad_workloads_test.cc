/**
 * @file
 * Seeded known-bad workloads on the full simulated device: each test
 * installs a recording analyzer (abort off), provokes a specific defect
 * the checkers must flag, and asserts the finding — plus one clean
 * workload asserting the checkers stay silent while demonstrably active.
 */
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "platform/logging.h"
#include "sim/android_system.h"
#include "view/text_view.h"
#include "view/view_group.h"

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

/** One screen with a programmatically-set status label. */
class StatusActivity final : public Activity
{
  public:
    StatusActivity() : Activity("com.bad.app/.StatusActivity") {}

  protected:
    void
    onCreate(const Bundle *saved_state) override
    {
        (void)saved_state;
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto status = std::make_unique<TextView>("status");
        status->setText("ready");
        root->addChild(std::move(status));
        setContentView(std::move(root));
    }
};

sim::AndroidSystem
makeDevice(RuntimeChangeMode mode)
{
    sim::SystemOptions options;
    options.mode = mode;
    return sim::AndroidSystem(options);
}

void
installStatusApp(sim::AndroidSystem &device)
{
    sim::CustomAppParams params;
    params.process = "com.bad.app";
    params.component = "com.bad.app/.StatusActivity";
    params.factory = [] { return std::make_unique<StatusActivity>(); };
    device.installCustom(params);
    device.launchProcess("com.bad.app");
}

/**
 * Seed a data race on `device`: the UI and worker loopers both write a
 * view that never joined a window. Such a view has no thread affinity —
 * Android will not reject wrong-thread writes to it, so only
 * happens-before analysis catches the sharing bug.
 */
void
provokeRace(sim::AndroidSystem &device)
{
    installStatusApp(device);
    ActivityThread &thread = *device.installedProcess("com.bad.app").thread;
    auto detached = std::make_shared<TextView>("cache");
    thread.postAppCallback([detached] { detached->setText("ui"); });
    thread.workerLooper().post(
        [detached] { detached->setText("worker"); }, milliseconds(1));
    device.runFor(milliseconds(5));
}

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

} // namespace

TEST(KnownBadWorkloads, UnsynchronizedShadowViewAccessIsFlagged)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());

    sim::SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    sim::AndroidSystem device(options);
    installStatusApp(device);

    // Rotate: the foreground instance enters the shadow state and a
    // sunny instance takes over.
    device.rotate();
    ASSERT_TRUE(device.waitHandlingComplete());
    ActivityThread &thread = *device.installedProcess("com.bad.app").thread;
    auto shadow = thread.shadowActivity();
    ASSERT_NE(shadow, nullptr);

    // Seed the bug: the UI thread writes the shadow instance's view
    // while a worker-looper closure reads it, with no message-send path
    // between the two dispatches.
    thread.postAppCallback([shadow] {
        shadow->findViewByIdAs<TextView>("status")->setText("ui write");
    });
    thread.workerLooper().post([shadow] {
        (void)shadow->findViewByIdAs<TextView>("status")->text();
    });
    device.runFor(milliseconds(5));

    const ViolationSink &sink = guard.analyzer().sink();
    ASSERT_GE(sink.countOf(ViolationKind::DataRace), 1u);
    const Violation &race = sink.violations()[0];
    EXPECT_NE(race.summary.find("TextView 'status'"), std::string::npos);
    EXPECT_NE(race.summary.find("com.bad.app.async"), std::string::npos);
    // The defect is confined to the race: the lifecycle protocol held.
    EXPECT_EQ(sink.countOf(ViolationKind::LifecycleTransition), 0u);
    EXPECT_EQ(sink.countOf(ViolationKind::LifecycleInvariant), 0u);
}

TEST(KnownBadWorkloads, WorkerWriteToDetachedViewIsFlagged)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());

    sim::AndroidSystem device = makeDevice(RuntimeChangeMode::RchDroid);
    provokeRace(device);

    EXPECT_GE(guard.analyzer().sink().countOf(ViolationKind::DataRace), 1u);
}

TEST(KnownBadWorkloads, CleanRotationWorkloadReportsNothing)
{
    ScopedLogSilencer quiet;
    ScopedAnalyzer guard(recordingOptions());
    ASSERT_TRUE(guard.installed());

    for (RuntimeChangeMode mode :
         {RuntimeChangeMode::Restart, RuntimeChangeMode::RchDroid}) {
        sim::AndroidSystem device = makeDevice(mode);
        installStatusApp(device);
        device.rotate();
        device.waitHandlingComplete();
        device.runFor(seconds(1));
        device.rotate();
        device.waitHandlingComplete();
        device.runFor(seconds(1));
    }

    const Analyzer &analyzer = guard.analyzer();
    EXPECT_EQ(analyzer.sink().totalCount(), 0u);
    // Silence must come from checked-and-clean, not from not-looking.
    EXPECT_GT(analyzer.raceDetector().accessesChecked(), 0u);
    EXPECT_GT(analyzer.lifecycleChecker().transitionsChecked(), 0u);
}

TEST(KnownBadWorkloads, SystemInstallsAnalyzerUnlessOneIsPresent)
{
    ScopedLogSilencer quiet;
    {
        // No analyzer installed: the system brings its own (the test
        // environment forces RCHDROID_ANALYSIS=1) but with the test's
        // env also forcing abort we pass an explicit enable instead.
        sim::SystemOptions options;
        options.analysis_enabled = true;
        options.analysis.abort_on_violation = false;
        sim::AndroidSystem device(options);
        ASSERT_NE(device.analyzer(), nullptr);
        EXPECT_EQ(subscribedAnalyzer(), device.analyzer());
    }
    EXPECT_EQ(subscribedAnalyzer(), nullptr);
    {
        ScopedAnalyzer guard(recordingOptions());
        sim::SystemOptions options;
        options.analysis_enabled = true;
        sim::AndroidSystem device(options);
        // The test's analyzer was first; the system defers to it.
        EXPECT_EQ(device.analyzer(), nullptr);
        EXPECT_EQ(subscribedAnalyzer(), &guard.analyzer());
    }
}

TEST(KnownBadWorkloads, OnlyTheSystemsOwnAnalyzerWritesItsTrace)
{
    ScopedLogSilencer quiet;
    // A system's own analyzer takes its abort from the environment,
    // which every ctest run arms; this test wants the findings.
    ScopedEnv no_abort("RCHDROID_ANALYSIS_ABORT", "0");
    sim::SystemOptions options;
    options.analysis_enabled = true;

    {
        // Each system brings its own analyzer (no other is subscribed
        // first); the finding lands on the trace of the system it
        // happened in, and nowhere else.
        sim::AndroidSystem first(options);
        ASSERT_NE(first.analyzer(), nullptr);
        provokeRace(first);
        const std::size_t races =
            first.analyzer()->sink().countOf(ViolationKind::DataRace);
        ASSERT_GE(races, 1u);
        EXPECT_EQ(first.trace().countOfKind(kinds::kAnalysisDataRace), races);
        const auto last = first.trace().lastOfKind(kinds::kAnalysisDataRace);
        ASSERT_TRUE(last.has_value());
        EXPECT_EQ(last->detail,
                  first.analyzer()->sink().violations().back().summary);

        // A second system on the thread defers to the first one's
        // analyzer: what it finds there is the first system's finding,
        // so it reaches the first system's trace, not the second's.
        sim::AndroidSystem second(options);
        EXPECT_EQ(second.analyzer(), nullptr);
        provokeRace(second);
        EXPECT_GT(first.analyzer()->sink().countOf(ViolationKind::DataRace),
                  races);
        EXPECT_GT(first.trace().countOfKind(kinds::kAnalysisDataRace), races);
        EXPECT_EQ(second.trace().countOfKind(kinds::kAnalysisDataRace), 0u);
    }
    {
        // The test's analyzer was first: it finds the race, and the
        // system's trace carries no analysis event.
        ScopedAnalyzer guard(recordingOptions());
        sim::AndroidSystem device(options);
        EXPECT_EQ(device.analyzer(), nullptr);
        provokeRace(device);
        EXPECT_GE(guard.analyzer().sink().countOf(ViolationKind::DataRace),
                  1u);
        EXPECT_EQ(device.trace().countOfKind(kinds::kAnalysisDataRace), 0u);
    }
}
