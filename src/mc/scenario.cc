#include "mc/scenario.h"

#include <memory>

#include "view/image_view.h"
#include "view/list_view.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid::mc {

namespace {

// ---------------------------------------------------------------------
// Scenario app code. Small clones of the examples/ programs — the
// checker needs its own copies because examples/ are standalone
// binaries, and the activities here are tuned for exploration (small
// view trees keep the state fingerprint cheap).
// ---------------------------------------------------------------------

constexpr const char *kNotesProcess = "com.example.notes";
constexpr const char *kNotesComponent = "com.example.notes/.NotesActivity";

/** quickstart: a status label plus an id-less draft box. */
class McNotesActivity final : public Activity
{
  public:
    McNotesActivity() : Activity(kNotesComponent) {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto status = std::make_unique<TextView>("status");
        status->setText("0 unsaved notes");
        root->addChild(std::move(status));
        root->addChild(std::make_unique<EditText>("")); // id-less
        setContentView(std::move(root));
    }
};

constexpr const char *kLoginProcess = "com.example.login";
constexpr const char *kLoginComponent = "com.example.login/.LoginActivity";

/** login_form: Fig. 13(a) — id-less name box and remember-me. */
class McLoginActivity final : public Activity
{
  public:
    McLoginActivity() : Activity(kLoginComponent) {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto name = std::make_unique<EditText>("");
        name->setHint("username");
        root->addChild(std::move(name));
        auto remember = std::make_unique<CheckBox>("");
        remember->setText("remember me");
        root->addChild(std::move(remember));
        setContentView(std::move(root));
    }
};

constexpr const char *kPhotosProcess = "com.example.photos";
constexpr const char *kPhotosComponent =
    "com.example.photos/.GalleryActivity";
constexpr int kThumbnails = 3;

/** photo_gallery / seeded_gc: Fig. 1 — async views captured raw. */
class McGalleryActivity final : public Activity
{
  public:
    McGalleryActivity() : Activity(kPhotosComponent) {}

    void
    loadThumbnails(SimDuration duration)
    {
        auto self = context().thread->activityForToken(token());
        auto task = std::make_shared<AsyncTask>(*context().thread, self,
                                                "thumbnailLoader");
        std::vector<ImageView *> slots;
        window().decorView().visit([&slots](View &v) {
            if (auto *image = dynamic_cast<ImageView *>(&v))
                slots.push_back(image);
        });
        task->execute(duration, [slots] {
            int index = 0;
            for (ImageView *slot : slots) {
                slot->setDrawable(DrawableValue{
                    "thumb_" + std::to_string(index++), 256, 256});
            }
        });
    }

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto title = std::make_unique<TextView>("title");
        title->setText("Holiday album");
        root->addChild(std::move(title));
        for (int i = 0; i < kThumbnails; ++i) {
            root->addChild(
                std::make_unique<ImageView>("slot_" + std::to_string(i)));
        }
        setContentView(std::move(root));
    }
};

constexpr const char *kMailProcess = "com.example.mail";
constexpr const char *kInbox = "com.example.mail/.InboxActivity";
constexpr const char *kDetail = "com.example.mail/.DetailActivity";

class McInboxActivity final : public Activity
{
  public:
    McInboxActivity() : Activity(kInbox) {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto search = std::make_unique<EditText>("search");
        search->setHint("search mail");
        root->addChild(std::move(search));
        auto list = std::make_unique<ListView>("messages");
        list->setItems({"Re: invoices", "Build green", "Lunch?"});
        root->addChild(std::move(list));
        setContentView(std::move(root));
    }
};

class McDetailActivity final : public Activity
{
  public:
    McDetailActivity() : Activity(kDetail) {}

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        auto subject = std::make_unique<TextView>("subject");
        subject->setText("Re: invoices");
        root->addChild(std::move(subject));
        setContentView(std::move(root));
    }
};

/** reduction_demo: does nothing but host a callback chain. */
class McPingActivity final : public Activity
{
  public:
    explicit McPingActivity(const std::string &component)
        : Activity(component)
    {
    }

  protected:
    void
    onCreate(const Bundle *) override
    {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        root->addChild(std::make_unique<TextView>("label"));
        setContentView(std::move(root));
    }
};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

EditText *
firstEditText(Activity &activity)
{
    EditText *box = nullptr;
    activity.window().decorView().visit([&box](View &v) {
        if (!box)
            box = dynamic_cast<EditText *>(&v);
    });
    return box;
}

CheckBox *
firstCheckBox(Activity &activity)
{
    CheckBox *box = nullptr;
    activity.window().decorView().visit([&box](View &v) {
        if (!box)
            box = dynamic_cast<CheckBox *>(&v);
    });
    return box;
}

sim::SystemOptions
rchOptions(RchConfig rch = {})
{
    sim::SystemOptions options;
    options.mode = RuntimeChangeMode::RchDroid;
    options.rch = rch;
    return options;
}

/** Post a chain of `remaining` zero-cost callbacks onto `thread`. */
void
pingChain(ActivityThread &thread, int remaining)
{
    thread.postAppCallback(
        [&thread, remaining] {
            if (remaining > 1)
                pingChain(thread, remaining - 1);
        },
        0, "ping");
}

/**
 * Post a 1 s-period callback chain whose due times sit exactly on the
 * grid (zero cost, absolute re-post): chains started at the same
 * instant in two processes tie at every second.
 */
void
pulseChain(sim::AndroidSystem &device, const std::string &process,
           int remaining)
{
    device.installedProcess(process).thread->postAppCallbackAt(
        device.scheduler().now() + seconds(1),
        [&device, process, remaining] {
            if (remaining > 1)
                pulseChain(device, process, remaining - 1);
        },
        0, "pulse");
}

std::optional<std::string>
aliveWithForeground(sim::AndroidSystem &device, const std::string &process)
{
    if (device.installedProcess(process).thread->crashed())
        return "process " + process + " crashed";
    if (!device.foregroundActivityOf(process))
        return "no foreground activity in " + process;
    return std::nullopt;
}

// ---------------------------------------------------------------------
// The catalogue
// ---------------------------------------------------------------------

Scenario
quickstartScenario()
{
    Scenario s;
    s.name = "quickstart";
    s.description = "note-taking app; draft + label must survive any "
                    "interleaving of rotate / wm size / locale";
    s.make_options = [] { return rchOptions(RchConfig{}); };
    s.setup = [](sim::AndroidSystem &device) {
        sim::CustomAppParams params;
        params.process = kNotesProcess;
        params.component = kNotesComponent;
        params.factory = [] { return std::make_unique<McNotesActivity>(); };
        device.installCustom(params);
        device.launchProcess(kNotesProcess);
        auto activity = device.foregroundActivityOf(kNotesProcess);
        device.installedProcess(kNotesProcess)
            .thread->postAppCallback([activity] {
                activity->findViewByIdAs<TextView>("status")->setText(
                    "1 unsaved note");
                firstEditText(*activity)->typeText("buy milk");
            });
        device.runFor(milliseconds(10));
    };
    s.injections = {InjectionKind::Rotate, InjectionKind::WmSizeToggle,
                    InjectionKind::LocaleToggle};
    s.max_injections = 6;
    s.horizon = seconds(20);
    s.final_check =
        [](sim::AndroidSystem &device) -> std::optional<std::string> {
        if (auto alive = aliveWithForeground(device, kNotesProcess))
            return alive;
        auto fg = device.foregroundActivityOf(kNotesProcess);
        EditText *draft = firstEditText(*fg);
        if (!draft || draft->text() != "buy milk")
            return std::optional<std::string>{"draft text lost"};
        auto *status = fg->findViewByIdAs<TextView>("status");
        if (!status || status->text() != "1 unsaved note")
            return std::optional<std::string>{"status label lost"};
        return std::nullopt;
    };
    return s;
}

Scenario
loginFormScenario()
{
    Scenario s;
    s.name = "login_form";
    s.description = "Fig. 13(a) login form; the half-typed name and "
                    "remember-me must survive every schedule";
    s.make_options = [] { return rchOptions(); };
    s.setup = [](sim::AndroidSystem &device) {
        sim::CustomAppParams params;
        params.process = kLoginProcess;
        params.component = kLoginComponent;
        params.factory = [] { return std::make_unique<McLoginActivity>(); };
        device.installCustom(params);
        device.launchProcess(kLoginProcess);
        auto activity = device.foregroundActivityOf(kLoginProcess);
        device.installedProcess(kLoginProcess)
            .thread->postAppCallback([activity] {
                firstEditText(*activity)->typeText("ada.lovelace");
                firstCheckBox(*activity)->setChecked(true);
            });
        device.runFor(milliseconds(10));
    };
    s.injections = {InjectionKind::Rotate, InjectionKind::WmSizeToggle,
                    InjectionKind::LocaleToggle};
    s.max_injections = 4;
    s.horizon = seconds(20);
    s.final_check =
        [](sim::AndroidSystem &device) -> std::optional<std::string> {
        if (auto alive = aliveWithForeground(device, kLoginProcess))
            return alive;
        auto fg = device.foregroundActivityOf(kLoginProcess);
        EditText *name = firstEditText(*fg);
        if (!name || name->text() != "ada.lovelace")
            return std::optional<std::string>{"username lost"};
        CheckBox *remember = firstCheckBox(*fg);
        if (!remember || !remember->isChecked())
            return std::optional<std::string>{"remember-me lost"};
        return std::nullopt;
    };
    return s;
}

Scenario
photoGalleryScenario()
{
    Scenario s;
    s.name = "photo_gallery";
    s.description = "Fig. 1 gallery; rotations racing a 5 s AsyncTask "
                    "must never crash under RCHDroid";
    s.make_options = [] { return rchOptions(); };
    s.setup = [](sim::AndroidSystem &device) {
        sim::CustomAppParams params;
        params.process = kPhotosProcess;
        params.component = kPhotosComponent;
        params.factory = [] {
            return std::make_unique<McGalleryActivity>();
        };
        device.installCustom(params);
        device.launchProcess(kPhotosProcess);
        auto activity = std::dynamic_pointer_cast<McGalleryActivity>(
            device.foregroundActivityOf(kPhotosProcess));
        device.installedProcess(kPhotosProcess)
            .thread->postAppCallback(
                [activity] { activity->loadThumbnails(seconds(5)); });
        device.runFor(milliseconds(100));
    };
    s.injections = {InjectionKind::Rotate, InjectionKind::WmSizeToggle};
    s.max_injections = 2;
    s.horizon = seconds(8);
    s.tail = seconds(6); // let the task return after the window
    s.final_check =
        [](sim::AndroidSystem &device) -> std::optional<std::string> {
        return aliveWithForeground(device, kPhotosProcess);
    };
    return s;
}

Scenario
mailNavigationScenario()
{
    Scenario s;
    s.name = "mail_navigation";
    s.description = "two-screen mail app; changes land on the detail "
                    "screen while the inbox is stopped behind it";
    s.make_options = [] { return rchOptions(); };
    s.setup = [](sim::AndroidSystem &device) {
        sim::CustomAppParams params;
        params.process = kMailProcess;
        params.component = kInbox;
        params.factory = [] { return std::make_unique<McInboxActivity>(); };
        device.installCustom(params);
        device.declareExtraComponent(kMailProcess, kDetail, [] {
            return std::make_unique<McDetailActivity>();
        });
        device.launchProcess(kMailProcess);
        auto inbox = device.foregroundActivityOf(kMailProcess);
        device.installedProcess(kMailProcess)
            .thread->postAppCallback([inbox] {
                inbox->findViewByIdAs<EditText>("search")->typeText("inv");
            });
        device.runFor(milliseconds(10));
        auto foreground = device.foregroundActivityOf(kMailProcess);
        device.installedProcess(kMailProcess)
            .thread->postAppCallback(
                [foreground] { foreground->startActivity(kDetail); });
        device.runFor(seconds(1));
    };
    s.injections = {InjectionKind::Rotate, InjectionKind::LocaleToggle};
    s.max_injections = 3;
    s.horizon = seconds(20);
    s.final_check =
        [](sim::AndroidSystem &device) -> std::optional<std::string> {
        if (auto alive = aliveWithForeground(device, kMailProcess))
            return alive;
        auto fg = device.foregroundActivityOf(kMailProcess);
        if (fg->component() != kDetail)
            return std::optional<std::string>{
                "foreground is not the detail screen"};
        return std::nullopt;
    };
    return s;
}

Scenario
gcTuningScenario()
{
    Scenario s;
    s.name = "gc_tuning";
    s.description = "one rotated benchmark process (1 s GC ticks plus a "
                    "4.5 s AsyncTask) next to two lock-step pulse "
                    "processes: the window is fully process-isolated, "
                    "so the static oracle's persistent sets collapse "
                    "the pulse tree";
    s.make_options = [] {
        RchConfig rch; // paper defaults: THRESH_T keeps the shadow
        rch.gc_interval = seconds(1);
        return rchOptions(rch);
    };
    s.setup = [](sim::AndroidSystem &device) {
        // Pulse processes first: the benchmark launched last keeps the
        // foreground, so only it handles the rotation (shadow + ticks).
        for (int i = 0; i < 2; ++i) {
            const std::string process =
                "com.example.pulse" + std::to_string(i);
            const std::string component = process + "/.PulseActivity";
            sim::CustomAppParams params;
            params.process = process;
            params.component = component;
            params.factory = [component] {
                return std::make_unique<McPingActivity>(component);
            };
            device.installCustom(params);
            device.launchProcess(process);
        }
        const auto bench = apps::makeBenchmarkApp(4, milliseconds(4500));
        device.install(bench);
        device.launch(bench);
        device.rotate(); // shadow forms; the GC tick grid arms
        device.runFor(milliseconds(500)); // drain the sunny start
        device.clickUpdateButton(bench);  // 4.5 s task off the grid
        device.runFor(milliseconds(10));
        // Started back to back at the same instant, the two chains'
        // absolute due times tie at every second of the window.
        for (int i = 0; i < 2; ++i)
            pulseChain(device, "com.example.pulse" + std::to_string(i),
                       10);
    };
    s.injections = {};
    s.horizon = seconds(12);
    s.tail = seconds(6);
    s.final_check =
        [](sim::AndroidSystem &device) -> std::optional<std::string> {
        for (const auto &[process, app] : device.installedApps()) {
            if (app->thread->crashed())
                return std::optional<std::string>{"process " + process +
                                                  " crashed"};
        }
        return std::nullopt;
    };
    // Closed world: inside the window only the benchmark's GC ticks and
    // AsyncTask steps (on its main and async loopers) plus the two pulse
    // chains run, and none of them crosses processes.
    s.independence.closed_world = true;
    const std::string benchmark = "com.eval.Benchmark4";
    s.independence.looper_process = {{benchmark + ".main", benchmark},
                                     {benchmark + ".async", benchmark}};
    for (int i = 0; i < 2; ++i) {
        const std::string process = "com.example.pulse" + std::to_string(i);
        s.independence.looper_process[process + ".main"] = process;
    }
    return s;
}

Scenario
seededGcScenario()
{
    Scenario s;
    s.name = "seeded_gc";
    s.description = "SEEDED BUG: GC mistuned to a 1 s THRESH_T and a "
                    "1 s tick reclaims the shadow the thumbnail task "
                    "still targets — only when a rotation is injected "
                    "while the task is in flight";
    s.make_options = [] {
        RchConfig rch;
        rch.thresh_t = seconds(1);   // reclaim almost immediately
        rch.thresh_f = 100;          // KeepFrequent can never save it
        rch.frequency_window = seconds(60);
        rch.gc_interval = seconds(1);
        return rchOptions(rch);
    };
    s.setup = [](sim::AndroidSystem &device) {
        sim::CustomAppParams params;
        params.process = kPhotosProcess;
        params.component = kPhotosComponent;
        params.factory = [] {
            return std::make_unique<McGalleryActivity>();
        };
        device.installCustom(params);
        device.launchProcess(kPhotosProcess);
        auto activity = std::dynamic_pointer_cast<McGalleryActivity>(
            device.foregroundActivityOf(kPhotosProcess));
        device.installedProcess(kPhotosProcess)
            .thread->postAppCallback(
                [activity] { activity->loadThumbnails(seconds(5)); });
        device.runFor(milliseconds(100));
    };
    s.injections = {InjectionKind::Rotate, InjectionKind::LocaleToggle};
    s.max_injections = 3;
    s.horizon = seconds(6);
    s.tail = seconds(6);
    return s;
}

Scenario
reductionDemoScenario()
{
    Scenario s;
    s.name = "reduction_demo";
    s.description = "three independent processes in lock-step: every "
                    "interleaving is equivalent, so the sleep-set + "
                    "state-hash reduction is measurable against naive "
                    "DFS";
    s.make_options = [] {
        sim::SystemOptions options;
        options.mode = RuntimeChangeMode::Restart; // no GC ticks
        return options;
    };
    s.setup = [](sim::AndroidSystem &device) {
        for (int i = 0; i < 3; ++i) {
            const std::string process =
                "com.example.ping" + std::to_string(i);
            const std::string component =
                process + "/.PingActivity" + std::to_string(i);
            sim::CustomAppParams params;
            params.process = process;
            params.component = component;
            params.factory = [component] {
                return std::make_unique<McPingActivity>(component);
            };
            device.installCustom(params);
            device.launchProcess(process);
        }
        // Posted after all three launches so the first wakeups tie.
        for (int i = 0; i < 3; ++i) {
            pingChain(*device
                           .installedProcess("com.example.ping" +
                                             std::to_string(i))
                           .thread,
                      3);
        }
    };
    s.injections = {};
    s.horizon = seconds(1);
    s.tail = milliseconds(10);
    // Closed world: only the three ping chains run, one per process.
    s.independence.closed_world = true;
    for (int i = 0; i < 3; ++i) {
        const std::string process = "com.example.ping" + std::to_string(i);
        s.independence.looper_process[process + ".main"] = process;
    }
    return s;
}

} // namespace

const char *
injectionName(InjectionKind kind)
{
    switch (kind) {
    case InjectionKind::Rotate:
        return "rotate";
    case InjectionKind::WmSizeToggle:
        return "wm_size";
    case InjectionKind::LocaleToggle:
        return "locale";
    }
    return "?";
}

void
applyInjection(sim::AndroidSystem &system, InjectionKind kind)
{
    switch (kind) {
    case InjectionKind::Rotate:
        system.rotate();
        return;
    case InjectionKind::WmSizeToggle:
        if (system.currentConfiguration().screen_width_px == 1080 &&
            system.currentConfiguration().screen_height_px == 1920)
            system.wmSizeReset();
        else
            system.wmSize(1080, 1920);
        return;
    case InjectionKind::LocaleToggle:
        system.setLocale(system.currentConfiguration().locale == "fr-FR"
                             ? "en-US"
                             : "fr-FR");
        return;
    }
}

const std::vector<Scenario> &
scenarioCatalog()
{
    static const std::vector<Scenario> catalog = {
        quickstartScenario(),    loginFormScenario(),
        photoGalleryScenario(),  mailNavigationScenario(),
        gcTuningScenario(),      seededGcScenario(),
        reductionDemoScenario(),
    };
    return catalog;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const Scenario &scenario : scenarioCatalog()) {
        if (scenario.name == name)
            return &scenario;
    }
    return nullptr;
}

} // namespace rchdroid::mc
