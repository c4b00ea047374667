/**
 * @file
 * The static analyzer's model IR.
 *
 * compile(AppSpec, HandlingModel) lowers one declarative app spec into
 * three small structures the checkers reason over — without executing
 * anything and without including a single framework header (the build
 * enforces this: src/sa/ may only see spec/model headers, mirroring the
 * observer seam discipline):
 *
 *  - a lifecycle control-flow graph derived from the Fig. 4 protocol,
 *    specialised to the handling model (stock restart teardown, RCH
 *    shadow + lazy migration, or the in-place onConfigurationChanged
 *    path when the manifest declares android:configChanges);
 *  - a set of state locations (the bundle fields and view contents the
 *    spec's CriticalState names, via apps/spec_traits.h), each edge
 *    annotated with the save/restore/migrate effect it applies;
 *  - a callback/post summary of the app's AsyncTask: what it captures
 *    (raw view references vs id-based re-resolution), whether it may
 *    complete after a runtime change, and whether onStop cancels it.
 *
 * The dataflow engine (src/sa/dataflow.h) runs a fixpoint over this
 * graph; the checkers (src/sa/checkers.h) read the solution.
 */
#ifndef RCHDROID_SA_MODEL_IR_H
#define RCHDROID_SA_MODEL_IR_H

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_spec.h"
#include "apps/spec_traits.h"

namespace rchdroid::sa {

/** Which runtime-change handling the model is compiled against. */
enum class HandlingModel : std::uint8_t {
    /** Stock Android 10: destroy + recreate. */
    Stock,
    /** RCHDroid: coin flip, shadow instance, lazy migration. */
    RchDroid,
};

/** "stock" / "rchdroid". */
const char *handlingModelName(HandlingModel model);

/**
 * Lifecycle CFG nodes: the Fig. 4 protocol states plus the
 * post-change continuations the two handling models add.
 */
enum class LcNode : std::uint8_t {
    Launched,
    Created,
    Started,
    Resumed,
    /** A runtime change is delivered to the foreground instance. */
    ConfigDispatch,
    /** onConfigurationChanged handled it in place (declared/patched). */
    InPlaceHandled,
    /** @name Stock teardown of the old instance */
    Paused,
    Saved,
    Stopped,
    Destroyed,
    /** @name RCHDroid path for the old instance */
    ShadowEntry,
    ShadowAlive,
    ShadowCollected,
    /** @name The replacement (recreated / sunny) instance */
    NextCreated,
    NextRestored,
    NextResumed,
    kCount,
};

constexpr std::size_t kLcNodeCount = static_cast<std::size_t>(LcNode::kCount);

/** "Resumed", "ShadowEntry", ... */
const char *lcNodeName(LcNode node);

/** The state effect an edge applies to every tracked location. */
enum class EdgeEffect : std::uint8_t {
    None,
    /** onCreate builds the views: locations become live. */
    Materialize,
    /** Stock onSaveInstanceState: the partial per-widget default save. */
    SaveDefault,
    /** RCHDroid/RuntimeDroid full snapshot (the 79-LoC View patch). */
    SaveFull,
    /** Instance teardown: anything neither saved nor shadowed is lost. */
    DestroyViews,
    /** Old instance parked as the shadow; its views stay alive. */
    EnterShadow,
    /** Bundle contents restored into the new instance's views. */
    Restore,
    /** Essence mapping: shadow state lazily migrated to the sunny. */
    Migrate,
    /** Shadow GC: state that only lived in the shadow is lost. */
    CollectShadow,
};

/** "Materialize", "SaveDefault", ... */
const char *edgeEffectName(EdgeEffect effect);

/** One lifecycle CFG edge. */
struct LcEdge
{
    LcNode from;
    LcNode to;
    EdgeEffect effect = EdgeEffect::None;
    /** Protocol label, e.g. "onSaveInstanceState". */
    const char *label = "";
};

/** One modelled piece of app state the dataflow tracks. */
struct StateLocation
{
    /** Display name, e.g. "EditText(no id).text". */
    std::string name;
    apps::CriticalStateTraits traits;
    /** This is the spec's table-row critical state. */
    bool critical = false;
    /** An app-implemented onSaveInstanceState covers it. */
    bool covered_by_on_save = false;
};

/** How the app's AsyncTask captures its UI targets. */
enum class AsyncCapture : std::uint8_t {
    None,
    /** Fig. 1 anti-pattern: raw View pointers captured at task start. */
    RawViewRef,
    /** RuntimeDroid-patched: ids captured, re-resolved at completion. */
    ViewId,
};

/** Static summary of the app's callback/post graph. */
struct AsyncModel
{
    bool has_task = false;
    AsyncCapture capture = AsyncCapture::None;
    bool cancels_on_stop = false;
    /** onPostExecute shows a dialog on the captured activity (§2.3). */
    bool shows_dialog = false;
    /** Completion may interleave with a runtime change. */
    bool may_straddle_change = false;
};

/** The compiled model of one app under one handling model. */
struct AppModel
{
    apps::AppSpec spec;
    HandlingModel handling = HandlingModel::Stock;
    /** Manifest keeps the framework from restarting the activity. */
    bool in_place = false;
    std::vector<LcEdge> edges;
    std::vector<StateLocation> locations;
    AsyncModel async;

    /**
     * Where the app's post-change state is observed: Resumed for the
     * in-place path (same instance), NextResumed otherwise.
     */
    LcNode observationNode() const;

    /** True when some edge reaches `node`. */
    bool reachable(LcNode node) const;

    /** Multi-line debug dump of the CFG, locations and async summary. */
    std::string describe() const;
};

/** Lower one spec into its model under the given handling. */
AppModel compile(const apps::AppSpec &spec, HandlingModel handling);

} // namespace rchdroid::sa

#endif // RCHDROID_SA_MODEL_IR_H
