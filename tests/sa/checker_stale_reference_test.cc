/**
 * @file
 * stale_reference checker: the static mirror of the crash-matrix
 * integration test. A stock restart crashes exactly when an
 * undisciplined task's raw view captures straddle the change; every
 * other cell of the matrix must stay finding-free.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "sa/verdict.h"

namespace rchdroid::sa {
namespace {

apps::AppSpec
asyncSpec()
{
    apps::AppSpec spec;
    spec.name = "StaleRefApp";
    spec.critical = apps::CriticalState::None;
    spec.async.trigger = apps::AsyncTrigger::OnButtonClick;
    spec.async.duration = seconds(5);
    return spec;
}

bool
crashPredicted(const apps::AppSpec &spec)
{
    const AppVerdict verdict = analyzeApp(spec);
    const bool finding = std::any_of(
        verdict.findings.begin(), verdict.findings.end(),
        [](const Finding &f) {
            return f.checker == "stale_reference" &&
                   f.severity == Severity::Error;
        });
    EXPECT_EQ(finding, verdict.stock.crash_predicted);
    EXPECT_FALSE(verdict.rch.crash_predicted);
    return finding;
}

TEST(StaleReferenceChecker, TruePositiveUndisciplinedStraddlingTask)
{
    EXPECT_TRUE(crashPredicted(asyncSpec()));
}

TEST(StaleReferenceChecker, TrueNegativeDisciplinedTask)
{
    apps::AppSpec spec = asyncSpec();
    spec.async.cancels_on_stop = true;
    EXPECT_FALSE(crashPredicted(spec));
}

TEST(StaleReferenceChecker, TrueNegativeNoTask)
{
    apps::AppSpec spec = asyncSpec();
    spec.async.trigger = apps::AsyncTrigger::Never;
    EXPECT_FALSE(crashPredicted(spec));
}

TEST(StaleReferenceChecker, TrueNegativeInstantTaskCannotStraddle)
{
    apps::AppSpec spec = asyncSpec();
    spec.async.duration = seconds(0);
    EXPECT_FALSE(crashPredicted(spec));
}

TEST(StaleReferenceChecker, TrueNegativeDeclaredConfigChanges)
{
    apps::AppSpec spec = asyncSpec();
    spec.handles_config_changes = true;
    EXPECT_FALSE(crashPredicted(spec));
}

TEST(StaleReferenceChecker, TrueNegativePatchedIdCapture)
{
    apps::AppSpec spec = asyncSpec();
    spec.runtimedroid_patched = true;
    EXPECT_FALSE(crashPredicted(spec));
}

TEST(StaleReferenceChecker, DialogFlavorNamesTheWindowLeak)
{
    apps::AppSpec spec = asyncSpec();
    spec.async.shows_dialog = true;
    const AppVerdict verdict = analyzeApp(spec);
    const auto finding = std::find_if(
        verdict.findings.begin(), verdict.findings.end(),
        [](const Finding &f) { return f.checker == "stale_reference"; });
    ASSERT_NE(finding, verdict.findings.end());
    EXPECT_NE(finding->location.find("dialog"), std::string::npos);
    EXPECT_NE(finding->message.find("dialog"), std::string::npos);
}

TEST(StaleReferenceChecker, RchNeverPredictsTheCrash)
{
    // The whole matrix: under RCHDroid the shadow keeps captured views
    // alive, so no combination yields an rchdroid-mode finding.
    for (const bool cancels : {false, true}) {
        for (const bool dialog : {false, true}) {
            apps::AppSpec spec = asyncSpec();
            spec.async.cancels_on_stop = cancels;
            spec.async.shows_dialog = dialog;
            const AppVerdict verdict = analyzeApp(spec);
            for (const Finding &finding : verdict.findings) {
                if (finding.checker == "stale_reference") {
                    EXPECT_EQ(finding.handling, HandlingModel::Stock);
                }
            }
            EXPECT_FALSE(verdict.rch.crash_predicted);
        }
    }
}

} // namespace
} // namespace rchdroid::sa
