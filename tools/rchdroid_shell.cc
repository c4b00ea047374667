/**
 * @file
 * rchdroid_shell: an adb-flavoured scripting front end for the
 * simulated device — the same workflow the paper's artifact drives with
 * real adb (`wm size 1080x1920`, touch the button, read the handling
 * time from logcat), but against this repository's simulator.
 *
 * Usage:
 *   rchdroid_shell [--check]             # read commands from stdin
 *   rchdroid_shell [--check] script.txt  # read commands from a file
 *
 * With --check the analysis subsystem (race detector + lifecycle
 * protocol checker) observes the whole session and a summary is printed
 * at exit; any violation makes the exit status non-zero.
 *
 * Commands (one per line, '#' starts a comment):
 *   mode rchdroid|android10      select the framework (before install)
 *   install benchmark <views>    install a §5.1 benchmark app
 *   install tp37 <index|name>    install a Table 3 app (1-based index)
 *   install top100 <index|name>  install a Table 5 app (1-based index)
 *   launch                       start the app's main activity (an
 *                                error once it runs or has crashed)
 *   apply-state                  scripted user writes canonical state
 *   verify-state                 observe the critical state
 *   click                        tap the update button (async task)
 *   rotate                       rotate the screen
 *   wm size <w> <h>              resize (adb shell wm size WxH)
 *   wm size reset                back to the native panel size
 *   locale <tag>                 switch the system language
 *   wait <ms>                    advance virtual time
 *   handling                     print the last handling time
 *   heap                         print the app heap (MB)
 *   stats                        print RCHDroid + starter counters
 *   dumpsys                      print the dumpsys state snapshot
 *   metrics-json <path>          write the metrics registry as JSON
 *   trace-csv <path>             dump the telemetry log as CSV
 *   quit                         exit
 *
 * With --trace-out=FILE the whole session is recorded as a Chrome
 * trace-event JSON (open in Perfetto / chrome://tracing).
 *
 * A missing, non-numeric or out-of-range argument is a command error:
 * the shell prints an `error:` line naming the command and the bad
 * text, skips the command, and exits 1 at the end of the session.
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "platform/metrics.h"
#include "platform/strings.h"
#include "platform/tracing.h"
#include "sim/android_system.h"
#include "sim/dumpsys.h"

namespace rchdroid::tools {
namespace {

/** Argument bounds: wider than any real panel, bench app or session. */
constexpr std::int64_t kMaxBenchmarkViews = 4096;
constexpr std::int64_t kMaxScreenPx = 16384;
constexpr std::int64_t kMaxWaitMs = 86'400'000; // one virtual day

/**
 * Parse a command argument as an integer in [min, max]; on a missing or
 * bad value print an `error:` line starting with `what` and return
 * nullopt.
 */
std::optional<std::int64_t>
integerArg(const std::string &text, const char *what, std::int64_t min,
           std::int64_t max)
{
    const Result<std::int64_t> parsed = parseInteger(text, min, max, what);
    if (!parsed) {
        std::printf("error: %s\n", parsed.status().message().c_str());
        return std::nullopt;
    }
    return parsed.value();
}

/** The shell's mutable state. */
struct ShellState
{
    RuntimeChangeMode mode = RuntimeChangeMode::RchDroid;
    std::unique_ptr<sim::AndroidSystem> device;
    std::optional<apps::AppSpec> spec;
    bool installed = false;
};

apps::AppSpec *
requireApp(ShellState &state)
{
    if (!state.installed) {
        std::printf("error: no app installed (use `install ...`)\n");
        return nullptr;
    }
    return &*state.spec;
}

std::optional<apps::AppSpec>
findInCorpus(const std::vector<apps::AppSpec> &corpus,
             const std::string &selector)
{
    char *end = nullptr;
    const long index = std::strtol(selector.c_str(), &end, 10);
    if (end && *end == '\0') {
        if (index < 1 || static_cast<std::size_t>(index) > corpus.size())
            return std::nullopt;
        return corpus[static_cast<std::size_t>(index - 1)];
    }
    for (const auto &spec : corpus) {
        if (spec.name == selector)
            return spec;
    }
    return std::nullopt;
}

bool
handleInstall(ShellState &state, std::istringstream &args)
{
    std::string kind, selector;
    args >> kind >> selector;
    std::optional<apps::AppSpec> spec;
    if (kind == "benchmark") {
        const auto views = integerArg(selector, "install benchmark", 0,
                                      kMaxBenchmarkViews);
        if (!views)
            return false;
        spec = apps::makeBenchmarkApp(static_cast<int>(*views));
    } else if (kind == "tp37") {
        spec = findInCorpus(apps::tp37(), selector);
    } else if (kind == "top100") {
        spec = findInCorpus(apps::top100(), selector);
    } else {
        std::printf("error: unknown corpus '%s'\n", kind.c_str());
        return false;
    }
    if (!spec) {
        std::printf("error: no app '%s' in %s\n", selector.c_str(),
                    kind.c_str());
        return false;
    }
    sim::SystemOptions options;
    options.mode = state.mode;
    state.device = std::make_unique<sim::AndroidSystem>(options);
    state.device->install(*spec);
    state.spec = std::move(spec);
    state.installed = true;
    std::printf("installed %s on %s\n", state.spec->name.c_str(),
                runtimeChangeModeName(state.mode));
    return true;
}

/** @return false on a command error (the shell keeps going). */
bool
execute(ShellState &state, const std::string &line)
{
    std::istringstream args(line);
    std::string command;
    args >> command;
    if (command.empty() || command[0] == '#')
        return true;

    if (command == "mode") {
        std::string which;
        args >> which;
        if (which == "rchdroid") {
            state.mode = RuntimeChangeMode::RchDroid;
        } else if (which == "android10") {
            state.mode = RuntimeChangeMode::Restart;
        } else {
            std::printf("error: mode rchdroid|android10\n");
            return false;
        }
        std::printf("mode = %s\n", runtimeChangeModeName(state.mode));
        return true;
    }
    if (command == "install")
        return handleInstall(state, args);

    auto *spec = requireApp(state);
    if (!spec)
        return false;
    auto &device = *state.device;

    if (command == "launch") {
        // A crashed process stays dead, and a start of the activity
        // already on top is suppressed: neither resumes anything.
        ActivityThread &thread = device.threadFor(*spec);
        if (thread.crashed() || thread.foregroundActivity()) {
            std::printf("error: launch: %s %s\n", spec->name.c_str(),
                        thread.crashed() ? "has crashed"
                                         : "is already running");
            return false;
        }
        device.launch(*spec);
        std::printf("launched %s\n", spec->component().c_str());
    } else if (command == "apply-state") {
        device.applyUserState(*spec);
        std::printf("canonical user state applied\n");
    } else if (command == "verify-state") {
        const auto result = device.verifyCriticalState(*spec);
        std::printf("critical state: %s\n", result.toString().c_str());
    } else if (command == "click") {
        device.clickUpdateButton(*spec);
        std::printf("button clicked\n");
    } else if (command == "rotate") {
        device.rotate();
        device.waitHandlingComplete();
        std::printf("rotated; handling %.1f ms\n", device.lastHandlingMs());
    } else if (command == "wm") {
        std::string sub, w, h;
        args >> sub >> w >> h;
        if (sub != "size") {
            std::printf("error: wm size <w> <h> | wm size reset\n");
            return false;
        }
        if (w == "reset") {
            device.wmSizeReset();
        } else {
            const auto width = integerArg(w, "wm size width", 1, kMaxScreenPx);
            if (!width)
                return false;
            const auto height =
                integerArg(h, "wm size height", 1, kMaxScreenPx);
            if (!height)
                return false;
            device.wmSize(static_cast<int>(*width),
                          static_cast<int>(*height));
        }
        device.waitHandlingComplete();
        std::printf("resized; handling %.1f ms\n", device.lastHandlingMs());
    } else if (command == "locale") {
        std::string tag;
        args >> tag;
        if (tag.empty()) {
            std::printf("error: locale: missing <tag>\n");
            return false;
        }
        device.setLocale(tag);
        device.waitHandlingComplete();
        std::printf("locale %s; handling %.1f ms\n", tag.c_str(),
                    device.lastHandlingMs());
    } else if (command == "wait") {
        std::string text;
        args >> text;
        const auto ms = integerArg(text, "wait", 0, kMaxWaitMs);
        if (!ms)
            return false;
        device.runFor(milliseconds(*ms));
        std::printf("now %s\n",
                    formatSimTime(device.scheduler().now()).c_str());
    } else if (command == "handling") {
        std::printf("last handling: %.1f ms\n", device.lastHandlingMs());
    } else if (command == "heap") {
        std::printf("app heap: %.2f MB\n",
                    static_cast<double>(device.appHeapBytes(*spec)) /
                        (1024.0 * 1024.0));
    } else if (command == "stats") {
        const auto &starter = device.atms().starterStats();
        std::printf("starter: normal=%llu sunny=%llu flips=%llu\n",
                    static_cast<unsigned long long>(starter.normal_starts),
                    static_cast<unsigned long long>(starter.sunny_creates),
                    static_cast<unsigned long long>(starter.coin_flips));
        if (const auto *handler = device.installed(*spec).handler.get()) {
            const auto &s = handler->stats();
            std::printf("rchdroid: changes=%llu inits=%llu flips=%llu "
                        "migrated=%llu gc=%llu\n",
                        static_cast<unsigned long long>(s.runtime_changes),
                        static_cast<unsigned long long>(s.init_launches),
                        static_cast<unsigned long long>(s.flips),
                        static_cast<unsigned long long>(s.views_migrated),
                        static_cast<unsigned long long>(s.gc_collections));
        }
        if (device.threadFor(*spec).crashed()) {
            std::printf("app CRASHED: %s\n",
                        device.threadFor(*spec).crashInfo()->reason.c_str());
        }
    } else if (command == "dumpsys") {
        std::fputs(sim::dumpsys(device).c_str(), stdout);
    } else if (command == "metrics-json") {
        std::string path;
        args >> path;
        std::ofstream out(path);
        if (!out) {
            std::printf("error: cannot write %s\n", path.c_str());
            return false;
        }
        out << sim::metricsJson(device);
        std::printf("metrics written to %s\n", path.c_str());
    } else if (command == "trace-csv") {
        std::string path;
        args >> path;
        if (!device.trace().writeCsv(path)) {
            std::printf("error: cannot write %s\n", path.c_str());
            return false;
        }
        std::printf("trace written to %s\n", path.c_str());
    } else if (command == "quit") {
        return true;
    } else {
        std::printf("error: unknown command '%s'\n", command.c_str());
        return false;
    }
    return true;
}

int
runShell(std::istream &in)
{
    ShellState state;
    std::string line;
    int errors = 0;
    while (std::getline(in, line)) {
        if (line == "quit")
            break;
        if (!execute(state, line))
            ++errors;
    }
    return errors == 0 ? 0 : 1;
}

} // namespace
} // namespace rchdroid::tools

int
main(int argc, char **argv)
{
    rchdroid::analysis::CheckMode check(argc, argv);

    // Strip --trace-out=FILE before the script-path argument is read.
    std::string trace_path;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace-out=", 0) == 0) {
            trace_path = arg.substr(std::string("--trace-out=").size());
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;

    rchdroid::metrics::MetricsRegistry registry;
    rchdroid::metrics::ScopedMetricsRegistry registry_guard(&registry);
    std::unique_ptr<rchdroid::trace::Tracer> tracer;
    std::optional<rchdroid::trace::ScopedTracer> tracer_guard;
    if (!trace_path.empty()) {
        tracer = std::make_unique<rchdroid::trace::Tracer>();
        tracer_guard.emplace(tracer.get());
    }

    int status;
    if (argc > 1) {
        std::ifstream file(argv[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open script %s\n", argv[1]);
            return 2;
        }
        status = rchdroid::tools::runShell(file);
    } else {
        status = rchdroid::tools::runShell(std::cin);
    }

    if (tracer) {
        if (tracer->writeChromeJson(trace_path)) {
            std::printf("trace written to %s (%zu events)\n",
                        trace_path.c_str(), tracer->eventCount());
        } else {
            std::fprintf(stderr, "failed to write trace to %s\n",
                         trace_path.c_str());
            if (status == 0)
                status = 1;
        }
    }
    const int check_status = check.finish();
    return status != 0 ? status : check_status;
}
