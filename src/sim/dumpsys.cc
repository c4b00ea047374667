#include "sim/dumpsys.h"

#include <map>
#include <sstream>

#include "platform/strings.h"
#include "platform/tracing.h"
#include "profiling/critical_path.h"

namespace rchdroid::sim {

namespace {

const char *
recordStateName(RecordState state)
{
    switch (state) {
      case RecordState::Launching: return "Launching";
      case RecordState::Resumed: return "Resumed";
      case RecordState::Stopped: return "Stopped";
      case RecordState::Destroyed: return "Destroyed";
    }
    return "Unknown";
}

/** Sample the point-in-time gauges from the live system. */
void
sampleGauges(AndroidSystem &system, metrics::MetricsRegistry *registry)
{
    if (!registry)
        return;
    std::size_t activities = 0;
    std::size_t heap = 0;
    std::size_t pending = system.atms().looper().queuedMessages();
    for (const auto &[process, app] : system.installedApps()) {
        (void)process;
        activities += app->thread->liveActivityCount();
        heap += app->thread->totalHeapBytes();
        pending += app->thread->uiLooper().queuedMessages();
    }
    registry->set(metrics::Gauge::kLiveActivities,
                  static_cast<double>(activities));
    registry->set(metrics::Gauge::kHeapBytes, static_cast<double>(heap));
    registry->set(metrics::Gauge::kPendingMessages,
                  static_cast<double>(pending));
}

/**
 * Critical paths for this system's completed episodes, keyed by episode
 * index, when a tracer is live. The tracer may span several sequential
 * systems (quickstart runs two), so the match walks both sequences
 * backwards — this system's episodes are the trailing paths — and pairs
 * them by exact (begin, end) timestamps.
 */
std::map<std::size_t, profiling::CriticalPath>
matchedCriticalPaths(AndroidSystem &system)
{
    std::map<std::size_t, profiling::CriticalPath> matched;
    trace::Tracer *tracer = trace::Tracer::current();
    if (!tracer)
        return matched;
    std::vector<profiling::CriticalPath> paths =
        profiling::extractCriticalPaths(profiling::fromTracer(*tracer));
    const std::vector<HandlingEpisode> &episodes =
        system.trace().handlingEpisodes();
    std::size_t p = paths.size();
    for (std::size_t i = episodes.size(); i-- > 0 && p > 0;) {
        const HandlingEpisode &episode = episodes[i];
        if (!episode.end || episode.aborted)
            continue;
        const profiling::CriticalPath &candidate = paths[p - 1];
        if (candidate.begin != episode.start ||
            candidate.end != *episode.end)
            break;
        matched.emplace(i, candidate);
        --p;
    }
    return matched;
}

} // namespace

std::string
dumpsys(AndroidSystem &system, metrics::MetricsRegistry *registry)
{
    sampleGauges(system, registry);

    std::ostringstream os;
    Atms &atms = system.atms();
    os << "== dumpsys ==\n";
    os << "mode: " << runtimeChangeModeName(atms.mode())
       << "  sim time: " << formatDouble(toMillisF(system.scheduler().now()), 3)
       << " ms  config: " << atms.currentConfiguration().toString() << '\n';

    os << "\nACTIVITY MANAGER (tasks bottom -> top, records bottom -> top):\n";
    const ActivityStack &stack = atms.stack();
    if (stack.taskCount() == 0)
        os << "  (no tasks)\n";
    for (const auto &task : stack.tasks()) {
        os << "  Task #" << task->id() << " [" << task->process()
           << "] depth=" << task->depth() << '\n';
        for (ActivityToken token : task->tokens()) {
            const ActivityRecord *record = atms.recordFor(token);
            if (!record) {
                os << "    #" << token << " <record missing>\n";
                continue;
            }
            os << "    #" << token << ' ' << record->component()
               << " state=" << recordStateName(record->state());
            if (record->isShadow()) {
                os << " SHADOW age="
                   << formatDouble(toMillisF(system.scheduler().now() -
                                             record->shadowSince()),
                                   1)
                   << "ms";
            }
            os << '\n';
        }
    }
    const StarterStats &starter = atms.starterStats();
    os << "  starter: normal_starts=" << starter.normal_starts
       << " sunny_creates=" << starter.sunny_creates
       << " coin_flips=" << starter.coin_flips
       << " suppressed_same_top=" << starter.suppressed_same_top << '\n';
    os << "  atms looper: queued=" << atms.looper().queuedMessages()
       << " dispatched=" << atms.looper().dispatchedMessages() << " busy="
       << formatDouble(toMillisF(atms.looper().totalBusyTime()), 3) << "ms\n";

    os << "\nPROCESSES:\n";
    if (system.installedApps().empty())
        os << "  (no apps installed)\n";
    for (const auto &[process, app] : system.installedApps()) {
        ActivityThread &thread = *app->thread;
        os << "  " << process << ": activities="
           << thread.liveActivityCount() << " heap="
           << formatDouble(static_cast<double>(thread.totalHeapBytes()) /
                               (1024.0 * 1024.0),
                           2)
           << "MB crashed=" << (thread.crashed() ? "yes" : "no") << '\n';
        Looper &ui = thread.uiLooper();
        os << "    ui looper: queued=" << ui.queuedMessages()
           << " dispatched=" << ui.dispatchedMessages() << " busy="
           << formatDouble(toMillisF(ui.totalBusyTime()), 3) << "ms\n";
        if (app->handler) {
            const RchStats &rch = app->handler->stats();
            os << "    rch: runtime_changes=" << rch.runtime_changes
               << " init_launches=" << rch.init_launches
               << " flips=" << rch.flips
               << " views_mapped=" << rch.views_mapped
               << " views_unmatched=" << rch.views_unmatched
               << " views_migrated=" << rch.views_migrated
               << " gc_keeps=" << rch.gc_keeps
               << " gc_collections=" << rch.gc_collections << '\n';
        }
    }

    const std::vector<HandlingEpisode> &episodes =
        system.trace().handlingEpisodes();
    os << "\nHANDLING EPISODES: " << episodes.size() << " (last completed: ";
    const double last = system.trace().lastHandlingMs();
    if (last < 0)
        os << "none";
    else
        os << formatDouble(last, 3) << " ms";
    os << ")\n";
    const std::map<std::size_t, profiling::CriticalPath> paths =
        matchedCriticalPaths(system);
    if (!episodes.empty())
        os << "  id  trigger_ms  total_ms  dominant\n";
    for (std::size_t i = 0; i < episodes.size(); ++i) {
        const HandlingEpisode &episode = episodes[i];
        os << "  #" << i << "  "
           << formatDouble(toMillisF(episode.start), 3) << "  ";
        if (!episode.end)
            os << "(pending)  -";
        else if (episode.aborted)
            os << "(aborted)  -";
        else {
            os << formatDouble(episode.durationMs(), 3) << "  ";
            const auto it = paths.find(i);
            const profiling::Segment *dom =
                it != paths.end() ? it->second.dominant() : nullptr;
            os << (dom ? dom->label : "-");
        }
        os << '\n';
    }

    if (!paths.empty()) {
        std::vector<profiling::CriticalPath> matched;
        matched.reserve(paths.size());
        for (const auto &[index, path] : paths) {
            (void)index;
            matched.push_back(path);
        }
        const profiling::ProfileSummary summary =
            profiling::summarize(matched);
        os << "\nPROFILE (critical-path segment means, " << summary.episodes
           << " episode(s), mean total "
           << formatDouble(summary.mean_total_ms, 3) << " ms):\n";
        for (const auto &[label, stat] : summary.segments) {
            os << "  " << formatDouble(stat.mean_ms, 3) << " ms  "
               << formatDouble(100.0 * stat.share, 1) << "%  "
               << profiling::segmentKindName(stat.kind) << "  " << label
               << '\n';
        }
    }

    if (registry) {
        os << "\nMETRICS:\n" << registry->toText();
    } else {
        os << "\nMETRICS: (no registry installed)\n";
    }
    return os.str();
}

std::string
metricsJson(AndroidSystem &system, metrics::MetricsRegistry *registry)
{
    sampleGauges(system, registry);
    if (!registry)
        return "{}\n";
    std::string json = registry->toJson();
    const std::map<std::size_t, profiling::CriticalPath> paths =
        matchedCriticalPaths(system);
    if (!paths.empty()) {
        std::vector<profiling::CriticalPath> matched;
        matched.reserve(paths.size());
        for (const auto &[index, path] : paths) {
            (void)index;
            matched.push_back(path);
        }
        // Splice a "profile" member before the document's closing brace.
        const std::size_t pos = json.rfind("\n}");
        if (pos != std::string::npos) {
            json.insert(pos,
                        ",\n  \"profile\": " +
                            profiling::summaryJson(
                                profiling::summarize(matched), 2));
        }
    }
    return json;
}

} // namespace rchdroid::sim
