/**
 * @file
 * AppSpec: the declarative description of one evaluation app.
 *
 * The framework treats apps as black boxes (paper §1, challenge 1); the
 * spec is interpreted by apps::SimulatedApp, which behaves like the app
 * the table row describes: where its critical user state lives, whether
 * it implements onSaveInstanceState, whether it declares
 * android:configChanges, and whether it fires asynchronous tasks.
 */
#ifndef RCHDROID_APPS_APP_SPEC_H
#define RCHDROID_APPS_APP_SPEC_H

#include <cstdint>
#include <string>

#include "platform/time.h"

namespace rchdroid::apps {

/**
 * Where the app keeps the user state the table's "Specific Problem"
 * column says gets lost. Each value maps to a concrete widget pattern
 * with a known stock-Android save behaviour, so the Table 3/5 outcomes
 * emerge from mechanism rather than from hard-coding.
 */
enum class CriticalState : std::uint8_t {
    /** No state that a restart endangers. */
    None,
    /** EditText with an id: the default save path covers it (safe). */
    EditTextWithId,
    /** EditText without an id: "State loss (text box / login page)". */
    EditTextNoId,
    /** Programmatic TextView text: timers, report pages, dates. */
    TextViewText,
    /** AbsListView selection: "State loss (selection list)". */
    ListSelection,
    /** Id-less ScrollView offset: "State loss (scroll location)". */
    ScrollOffsetNoId,
    /** ProgressBar value: brightness/zoom/volume bars. */
    ProgressValue,
    /** Id-less CheckBox: settings toggles. */
    CheckBoxNoId,
    /** VideoView playback position. */
    VideoPosition,
    /**
     * A plain field of the activity object, not mirrored in any view:
     * only an app-implemented onSaveInstanceState can save it. Without
     * one this is the class neither system fixes (Table 3 #9/#10,
     * Table 5 #2/#57/#66/#70).
     */
    CustomVariable,
};

const char *criticalStateName(CriticalState state);

/** When the app fires its AsyncTask. */
enum class AsyncTrigger : std::uint8_t {
    Never,
    /** On activity creation (image/feed loading patterns). */
    OnCreate,
    /** On a button tap (the §5.1 benchmark apps). */
    OnButtonClick,
};

/** Background-task behaviour. */
struct AsyncSpec
{
    AsyncTrigger trigger = AsyncTrigger::Never;
    /** doInBackground duration (the benchmark apps use five seconds). */
    SimDuration duration = seconds(5);
    /** UI cost of the onPostExecute work. */
    SimDuration ui_cost = milliseconds(1);
    /**
     * Whether the app cancels its tasks in onStop — the discipline the
     * paper observes most developers lack ("92.4% of app developers are
     * unaware of the restarting").
     */
    bool cancels_on_stop = false;
    /**
     * onPostExecute shows a result dialog on the captured activity —
     * the WindowLeaked/BadTokenException crash class of §2.3 (instead
     * of, or in addition to, updating the ImageViews).
     */
    bool shows_dialog = false;

    bool operator==(const AsyncSpec &) const = default;
};

/**
 * Complete description of one evaluation app.
 */
struct AppSpec
{
    /** Display name, e.g. "OpenSudoku". */
    std::string name;
    /** Play-store downloads column ("1M+"). */
    std::string downloads;
    /** The table's "Issues of Current Android Design" text. */
    std::string issue_description;

    /** Table's issue column: stock Android loses state / crashes. */
    bool expect_issue_stock = true;
    /** Table's RCHDroid column: ✓ (fixed) vs ✗ (still lost). */
    bool expect_fixed_by_rch = true;

    /** Manifest android:configChanges — no restart on either system. */
    bool handles_config_changes = false;
    /**
     * The app carries a RuntimeDroid-style patch (the Table 4
     * modifications): it declares android:configChanges and handles the
     * change itself by hot-reloading its content in place — full state
     * snapshot, re-inflate under the new configuration, restore, and
     * id-based re-resolution of async view references. This is our
     * executable reimplementation of the §5.7 comparator's approach.
     */
    bool runtimedroid_patched = false;
    /**
     * Fixed app-level cost of the patch's dynamic resource reloading
     * (HotR-style), charged on each handled change.
     */
    SimDuration hot_reload_cost = milliseconds(28);
    /** App implements onSaveInstanceState for its custom state. */
    bool implements_on_save = false;
    CriticalState critical = CriticalState::None;
    AsyncSpec async;

    /** @name UI composition (drives tree size and resource weight)
     * @{
     */
    int n_text_views = 2;
    int n_edit_texts = 1;
    int n_image_views = 2;
    int n_checkboxes = 1;
    int n_progress_bars = 0;
    int n_list_views = 1;
    int list_items = 8;
    int n_video_views = 0;
    /** Square drawable edge in px (bytes = edge² × 4 per image). */
    int image_edge_px = 96;
    /** @} */

    /** @name Cost/heap parameters
     * @{
     */
    /** Process heap outside activity instances. */
    std::size_t base_heap_bytes = 40u << 20;
    /** Per-instance app-private heap (caches, decoded media). */
    std::size_t private_heap_bytes = 4u << 20;
    /** App-logic cost inside onCreate (DB reads, view wiring). */
    SimDuration app_create_cost = milliseconds(5);
    /** App-logic cost inside onConfigurationChanged. */
    SimDuration app_config_cost = milliseconds(2);
    /** @} */

    /** Process name, derived from the display name. */
    std::string process() const { return "com.eval." + name; }
    /** Component name of the main activity. */
    std::string component() const { return process() + "/.MainActivity"; }

    /** Total views the main layout will contain (incl. containers). */
    int totalLayoutViews() const;

    bool operator==(const AppSpec &) const = default;
};

} // namespace rchdroid::apps

#endif // RCHDROID_APPS_APP_SPEC_H
