/**
 * @file
 * config_decl checker: cross-checking the spec's declared expectations
 * (the table columns) against what the compiled model predicts, plus
 * the declaration-hygiene advisories.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/corpus.h"
#include "sa/sweep.h"
#include "sa/verdict.h"

namespace rchdroid::sa {
namespace {

int
declWarnings(const AppVerdict &verdict)
{
    return static_cast<int>(std::count_if(
        verdict.findings.begin(), verdict.findings.end(),
        [](const Finding &f) {
            return f.checker == "config_decl" &&
                   f.severity == Severity::Warning;
        }));
}

TEST(ConfigDeclChecker, ConsistentSpecRaisesNoWarning)
{
    apps::AppSpec spec;
    spec.name = "ConsistentApp";
    spec.critical = apps::CriticalState::EditTextNoId;
    spec.expect_issue_stock = true;
    spec.expect_fixed_by_rch = true;
    EXPECT_EQ(declWarnings(analyzeApp(spec)), 0);
}

TEST(ConfigDeclChecker, ClaimedIssueOnSafeAppIsFlagged)
{
    apps::AppSpec spec;
    spec.name = "OverclaimApp";
    spec.critical = apps::CriticalState::EditTextWithId;
    spec.expect_issue_stock = true; // but the default save covers it
    spec.expect_fixed_by_rch = false;
    EXPECT_EQ(declWarnings(analyzeApp(spec)), 1);
}

TEST(ConfigDeclChecker, ClaimedSafetyOnLossyAppIsFlagged)
{
    apps::AppSpec spec;
    spec.name = "UnderclaimApp";
    spec.critical = apps::CriticalState::TextViewText;
    spec.expect_issue_stock = false; // but TextView text is not saved
    spec.expect_fixed_by_rch = false; // and RCHDroid would fix it
    EXPECT_EQ(declWarnings(analyzeApp(spec)), 2);
}

TEST(ConfigDeclChecker, ClaimedRchFixOnCustomStateIsFlagged)
{
    apps::AppSpec spec;
    spec.name = "CustomClaimApp";
    spec.critical = apps::CriticalState::CustomVariable;
    spec.expect_issue_stock = true;
    spec.expect_fixed_by_rch = true; // app-private: RCHDroid cannot
    EXPECT_EQ(declWarnings(analyzeApp(spec)), 1);
}

TEST(ConfigDeclChecker, PatchWithoutDeclarationIsAdvisory)
{
    apps::AppSpec spec;
    spec.name = "PatchedApp";
    spec.critical = apps::CriticalState::EditTextNoId;
    spec.expect_issue_stock = false;
    spec.expect_fixed_by_rch = false;
    spec.runtimedroid_patched = true;
    const AppVerdict verdict = analyzeApp(spec);
    EXPECT_EQ(declWarnings(verdict), 0);
    EXPECT_TRUE(std::any_of(
        verdict.findings.begin(), verdict.findings.end(),
        [](const Finding &f) {
            return f.checker == "config_decl" &&
                   f.severity == Severity::Info &&
                   f.message.find("configChanges") != std::string::npos;
        }));
}

TEST(ConfigDeclChecker, DeadOnSaveDisciplineIsAdvisory)
{
    apps::AppSpec spec;
    spec.name = "DeadSaveApp";
    spec.critical = apps::CriticalState::EditTextNoId;
    spec.expect_issue_stock = false;
    spec.expect_fixed_by_rch = false;
    spec.handles_config_changes = true;
    spec.implements_on_save = true;
    const AppVerdict verdict = analyzeApp(spec);
    EXPECT_TRUE(std::any_of(
        verdict.findings.begin(), verdict.findings.end(),
        [](const Finding &f) {
            return f.checker == "config_decl" &&
                   f.severity == Severity::Info &&
                   f.message.find("dead discipline") != std::string::npos;
        }));
}

TEST(ConfigDeclChecker, FindingsAreNeverDynamicallyCheckable)
{
    apps::AppSpec spec;
    spec.name = "NotCheckableApp";
    spec.critical = apps::CriticalState::EditTextWithId;
    spec.expect_issue_stock = true;
    const AppVerdict verdict = analyzeApp(spec);
    for (const Finding &finding : verdict.findings) {
        if (finding.checker == "config_decl") {
            EXPECT_FALSE(finding.dynamically_checkable);
        }
    }
}

TEST(ConfigDeclChecker, WholeCorpusAgreesWithItsTables)
{
    // The strongest consistency statement the checker makes: across
    // TP-37, top-100 and the examples, the model's predictions match
    // every row's issue/fixed columns — zero mismatch warnings.
    for (const AppVerdict &verdict : sweep(fullCorpus()).verdicts)
        EXPECT_EQ(declWarnings(verdict), 0) << verdict.app;
}

} // namespace
} // namespace rchdroid::sa
