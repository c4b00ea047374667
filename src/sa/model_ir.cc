#include "sa/model_ir.h"

namespace rchdroid::sa {

const char *
handlingModelName(HandlingModel model)
{
    return model == HandlingModel::Stock ? "stock" : "rchdroid";
}

const char *
lcNodeName(LcNode node)
{
    switch (node) {
      case LcNode::Launched: return "Launched";
      case LcNode::Created: return "Created";
      case LcNode::Started: return "Started";
      case LcNode::Resumed: return "Resumed";
      case LcNode::ConfigDispatch: return "ConfigDispatch";
      case LcNode::InPlaceHandled: return "InPlaceHandled";
      case LcNode::Paused: return "Paused";
      case LcNode::Saved: return "Saved";
      case LcNode::Stopped: return "Stopped";
      case LcNode::Destroyed: return "Destroyed";
      case LcNode::ShadowEntry: return "ShadowEntry";
      case LcNode::ShadowAlive: return "ShadowAlive";
      case LcNode::ShadowCollected: return "ShadowCollected";
      case LcNode::NextCreated: return "NextCreated";
      case LcNode::NextRestored: return "NextRestored";
      case LcNode::NextResumed: return "NextResumed";
      case LcNode::kCount: break;
    }
    return "?";
}

const char *
edgeEffectName(EdgeEffect effect)
{
    switch (effect) {
      case EdgeEffect::None: return "None";
      case EdgeEffect::Materialize: return "Materialize";
      case EdgeEffect::SaveDefault: return "SaveDefault";
      case EdgeEffect::SaveFull: return "SaveFull";
      case EdgeEffect::DestroyViews: return "DestroyViews";
      case EdgeEffect::EnterShadow: return "EnterShadow";
      case EdgeEffect::Restore: return "Restore";
      case EdgeEffect::Migrate: return "Migrate";
      case EdgeEffect::CollectShadow: return "CollectShadow";
    }
    return "?";
}

LcNode
AppModel::observationNode() const
{
    return in_place ? LcNode::Resumed : LcNode::NextResumed;
}

bool
AppModel::reachable(LcNode node) const
{
    for (const LcEdge &edge : edges) {
        if (edge.to == node || edge.from == node)
            return true;
    }
    return false;
}

std::string
AppModel::describe(std::string_view app) const
{
    std::string out(app);
    out += " [";
    out += handlingModelName(handling);
    out += in_place ? ", in-place]\n" : "]\n";
    for (const LcEdge &edge : edges) {
        out += "  ";
        out += lcNodeName(edge.from);
        out += " -> ";
        out += lcNodeName(edge.to);
        out += " (";
        out += edge.label;
        if (edge.effect != EdgeEffect::None) {
            out += ", ";
            out += edgeEffectName(edge.effect);
        }
        out += ")\n";
    }
    for (const StateLocation &location : locations) {
        out += "  loc ";
        out += location.traits.location;
        out += location.critical ? " [critical]\n" : "\n";
    }
    if (async.has_task) {
        out += "  async capture=";
        out += async.capture == AsyncCapture::RawViewRef ? "raw-view-ref"
               : async.capture == AsyncCapture::ViewId   ? "view-id"
                                                         : "none";
        if (async.cancels_on_stop)
            out += " cancels-on-stop";
        if (async.shows_dialog)
            out += " shows-dialog";
        if (async.may_straddle_change)
            out += " may-straddle-change";
        out += "\n";
    }
    return out;
}

namespace {

void
addCommonPrefix(AppModel &model)
{
    model.edges.push_back({LcNode::Launched, LcNode::Created,
                           EdgeEffect::Materialize, "onCreate"});
    model.edges.push_back(
        {LcNode::Created, LcNode::Started, EdgeEffect::None, "onStart"});
    model.edges.push_back(
        {LcNode::Started, LcNode::Resumed, EdgeEffect::None, "onResume"});
    model.edges.push_back({LcNode::Resumed, LcNode::ConfigDispatch,
                           EdgeEffect::None, "runtime change"});
}

void
addInPlacePath(AppModel &model)
{
    // android:configChanges declared (directly or via the RuntimeDroid
    // patch, which requires the declaration): the same instance handles
    // the change in onConfigurationChanged; nothing is torn down.
    model.edges.push_back({LcNode::ConfigDispatch, LcNode::InPlaceHandled,
                           EdgeEffect::None, "onConfigurationChanged"});
    model.edges.push_back({LcNode::InPlaceHandled, LcNode::Resumed,
                           EdgeEffect::None, "handled in place"});
}

void
addStockRestartPath(AppModel &model)
{
    model.edges.push_back(
        {LcNode::ConfigDispatch, LcNode::Paused, EdgeEffect::None,
         "onPause"});
    model.edges.push_back({LcNode::Paused, LcNode::Saved,
                           EdgeEffect::SaveDefault, "onSaveInstanceState"});
    model.edges.push_back(
        {LcNode::Saved, LcNode::Stopped, EdgeEffect::None, "onStop"});
    model.edges.push_back({LcNode::Stopped, LcNode::Destroyed,
                           EdgeEffect::DestroyViews, "onDestroy"});
    model.edges.push_back({LcNode::Destroyed, LcNode::NextCreated,
                           EdgeEffect::Materialize, "onCreate (recreated)"});
    model.edges.push_back({LcNode::NextCreated, LcNode::NextRestored,
                           EdgeEffect::Restore, "onRestoreInstanceState"});
    model.edges.push_back({LcNode::NextRestored, LcNode::NextResumed,
                           EdgeEffect::None, "onResume (recreated)"});
    // A later change treats the recreated instance as the foreground.
    model.edges.push_back({LcNode::NextResumed, LcNode::ConfigDispatch,
                           EdgeEffect::None, "runtime change"});
}

void
addRchPath(AppModel &model)
{
    // Coin flip lands in-process: the old instance is parked as the
    // shadow (views stay alive), a full-coverage snapshot is taken, the
    // sunny instance is created under the new configuration and essence
    // migrates lazily. The shadow is GC'd once cold.
    model.edges.push_back({LcNode::ConfigDispatch, LcNode::ShadowEntry,
                           EdgeEffect::SaveFull, "shadow snapshot"});
    model.edges.push_back({LcNode::ShadowEntry, LcNode::ShadowAlive,
                           EdgeEffect::EnterShadow, "enter shadow"});
    model.edges.push_back({LcNode::ShadowAlive, LcNode::NextCreated,
                           EdgeEffect::Materialize, "onCreate (sunny)"});
    model.edges.push_back({LcNode::NextCreated, LcNode::NextRestored,
                           EdgeEffect::Migrate, "lazy migration"});
    model.edges.push_back({LcNode::NextRestored, LcNode::NextResumed,
                           EdgeEffect::None, "onResume (sunny)"});
    model.edges.push_back({LcNode::ShadowAlive, LcNode::ShadowCollected,
                           EdgeEffect::CollectShadow, "shadow GC"});
    model.edges.push_back({LcNode::NextResumed, LcNode::ConfigDispatch,
                           EdgeEffect::None, "runtime change"});
}

void
addLocations(AppModel &model, const apps::AppSpec &spec)
{
    if (spec.critical != apps::CriticalState::None) {
        StateLocation location;
        location.traits = apps::criticalStateTraits(spec.critical);
        location.critical = true;
        location.covered_by_on_save =
            spec.implements_on_save &&
            apps::coveredByAppOnSave(spec.critical);
        model.locations.push_back(location);
    }
    // Non-critical companion locations keep the flow honest: every app
    // has an id-carrying EditText the default path covers (the
    // true-negative every checker must get right), and async apps'
    // ImageView contents are view state the default save skips.
    if (spec.n_edit_texts > 0 &&
        spec.critical != apps::CriticalState::EditTextWithId) {
        StateLocation edit;
        edit.traits =
            apps::criticalStateTraits(apps::CriticalState::EditTextWithId);
        model.locations.push_back(edit);
    }
    if (spec.n_image_views > 0 &&
        spec.async.trigger != apps::AsyncTrigger::Never) {
        StateLocation image;
        image.traits = {true, true, false, true, "ImageView#img.drawable"};
        model.locations.push_back(image);
    }
}

void
addAsyncModel(AppModel &model, const apps::AppSpec &spec)
{
    const apps::AsyncSpec &async = spec.async;
    if (async.trigger == apps::AsyncTrigger::Never)
        return;
    model.async.has_task = true;
    model.async.capture = spec.runtimedroid_patched
                              ? AsyncCapture::ViewId
                              : AsyncCapture::RawViewRef;
    model.async.cancels_on_stop = async.cancels_on_stop;
    model.async.shows_dialog = async.shows_dialog;
    // Any task with a nonzero doInBackground window may still be in
    // flight when a change arrives — the static model cannot bound when
    // the user rotates, so it over-approximates.
    model.async.may_straddle_change = async.duration > 0;
}

} // namespace

AppModel
compile(const apps::AppSpec &spec, HandlingModel handling)
{
    AppModel model;
    model.handling = handling;
    // The installer declares android:configChanges for patched apps
    // (the patch depends on it), so either flag suppresses the restart.
    model.in_place =
        spec.handles_config_changes || spec.runtimedroid_patched;

    // The longest path (stock restart) has 12 edges; reserving them
    // saves four reallocations a model.
    model.edges.reserve(12);
    addCommonPrefix(model);
    if (model.in_place)
        addInPlacePath(model);
    else if (handling == HandlingModel::Stock)
        addStockRestartPath(model);
    else
        addRchPath(model);

    addLocations(model, spec);
    addAsyncModel(model, spec);
    return model;
}

} // namespace rchdroid::sa
