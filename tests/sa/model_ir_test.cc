/**
 * @file
 * Model IR compilation: the lifecycle CFG, state locations and async
 * summary that compile() derives from a spec — the analyzer's input
 * must reflect the handling model and manifest flags exactly.
 */
#include <gtest/gtest.h>

#include "apps/corpus.h"
#include "sa/model_ir.h"

namespace rchdroid::sa {
namespace {

apps::AppSpec
plainSpec(apps::CriticalState critical)
{
    apps::AppSpec spec;
    spec.name = "ModelIrApp";
    spec.critical = critical;
    return spec;
}

TEST(ModelIr, StockRestartPathReachesTeardownAndRecreate)
{
    const AppModel model =
        compile(plainSpec(apps::CriticalState::EditTextNoId),
                HandlingModel::Stock);
    EXPECT_FALSE(model.in_place);
    EXPECT_TRUE(model.reachable(LcNode::Saved));
    EXPECT_TRUE(model.reachable(LcNode::Destroyed));
    EXPECT_TRUE(model.reachable(LcNode::NextResumed));
    EXPECT_FALSE(model.reachable(LcNode::ShadowAlive));
    EXPECT_FALSE(model.reachable(LcNode::InPlaceHandled));
    EXPECT_EQ(model.observationNode(), LcNode::NextResumed);
}

TEST(ModelIr, RchPathReachesShadowNotTeardown)
{
    const AppModel model =
        compile(plainSpec(apps::CriticalState::EditTextNoId),
                HandlingModel::RchDroid);
    EXPECT_TRUE(model.reachable(LcNode::ShadowEntry));
    EXPECT_TRUE(model.reachable(LcNode::ShadowCollected));
    EXPECT_FALSE(model.reachable(LcNode::Destroyed));
    EXPECT_FALSE(model.reachable(LcNode::Saved));
    EXPECT_EQ(model.observationNode(), LcNode::NextResumed);
}

TEST(ModelIr, DeclaredConfigChangesCompilesToInPlaceUnderBothModels)
{
    apps::AppSpec spec = plainSpec(apps::CriticalState::EditTextNoId);
    spec.handles_config_changes = true;
    for (const auto handling :
         {HandlingModel::Stock, HandlingModel::RchDroid}) {
        const AppModel model = compile(spec, handling);
        EXPECT_TRUE(model.in_place);
        EXPECT_TRUE(model.reachable(LcNode::InPlaceHandled));
        EXPECT_FALSE(model.reachable(LcNode::Destroyed));
        EXPECT_FALSE(model.reachable(LcNode::ShadowAlive));
        EXPECT_EQ(model.observationNode(), LcNode::Resumed);
    }
}

TEST(ModelIr, RuntimeDroidPatchImpliesInPlaceAndIdCapture)
{
    apps::AppSpec spec = plainSpec(apps::CriticalState::EditTextNoId);
    spec.runtimedroid_patched = true;
    spec.async.trigger = apps::AsyncTrigger::OnButtonClick;
    const AppModel model = compile(spec, HandlingModel::Stock);
    EXPECT_TRUE(model.in_place);
    EXPECT_EQ(model.async.capture, AsyncCapture::ViewId);
}

TEST(ModelIr, CriticalLocationCarriesTraitsAndOnSaveCoverage)
{
    apps::AppSpec spec = plainSpec(apps::CriticalState::CustomVariable);
    AppModel model = compile(spec, HandlingModel::Stock);
    ASSERT_FALSE(model.locations.empty());
    EXPECT_TRUE(model.locations[0].critical);
    EXPECT_FALSE(model.locations[0].traits.view_backed);
    EXPECT_FALSE(model.locations[0].covered_by_on_save);

    spec.implements_on_save = true;
    model = compile(spec, HandlingModel::Stock);
    EXPECT_TRUE(model.locations[0].covered_by_on_save);
}

TEST(ModelIr, CompanionLocationsModelDefaultCoveredAndAsyncState)
{
    apps::AppSpec spec = plainSpec(apps::CriticalState::EditTextNoId);
    spec.n_edit_texts = 2;
    spec.n_image_views = 4;
    spec.async.trigger = apps::AsyncTrigger::OnCreate;
    const AppModel model = compile(spec, HandlingModel::Stock);
    // Critical + the id'd EditText + the async ImageView content.
    ASSERT_EQ(model.locations.size(), 3u);
    EXPECT_TRUE(model.locations[0].critical);
    EXPECT_FALSE(model.locations[1].critical);
    EXPECT_TRUE(model.locations[1].traits.saved_by_default);
    EXPECT_FALSE(model.locations[2].traits.saved_by_default);
}

TEST(ModelIr, AsyncSummaryTracksDisciplineAndStraddle)
{
    apps::AppSpec spec = plainSpec(apps::CriticalState::None);
    spec.async.trigger = apps::AsyncTrigger::OnButtonClick;
    spec.async.cancels_on_stop = true;
    spec.async.shows_dialog = true;
    const AppModel model = compile(spec, HandlingModel::Stock);
    EXPECT_TRUE(model.async.has_task);
    EXPECT_EQ(model.async.capture, AsyncCapture::RawViewRef);
    EXPECT_TRUE(model.async.cancels_on_stop);
    EXPECT_TRUE(model.async.shows_dialog);
    EXPECT_TRUE(model.async.may_straddle_change);

    spec.async.duration = seconds(0);
    EXPECT_FALSE(compile(spec, HandlingModel::Stock)
                     .async.may_straddle_change);
}

TEST(ModelIr, DescribeMentionsEveryLocationAndTheHandlingModel)
{
    apps::AppSpec spec = plainSpec(apps::CriticalState::ListSelection);
    const AppModel model = compile(spec, HandlingModel::RchDroid);
    const std::string text = model.describe(spec.name);
    EXPECT_EQ(text.rfind(spec.name, 0), 0u) << text;
    EXPECT_NE(text.find("rchdroid"), std::string::npos);
    for (const StateLocation &location : model.locations)
        EXPECT_NE(text.find(location.traits.location), std::string::npos)
            << text;
}

} // namespace
} // namespace rchdroid::sa
