#include "profiling/critical_path.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "platform/strings.h"
#include "platform/tracing.h"

namespace rchdroid::profiling {

namespace {

/** Backstop against malformed flow graphs (cycles via bad input). */
constexpr int kMaxHops = 100000;

/** One reconstructed B/E span with its nesting links. */
struct SpanNode
{
    std::uint32_t lane = 0;
    std::string name;
    SimTime begin = 0;
    SimTime end = 0;
    int parent = -1;
    /** Direct children, in chronological (emission) order. */
    std::vector<int> children;
    /** Event index of the incoming (bind_enclosing) flow edge, or -1. */
    int consumer_flow = -1;
};

/** One completed or aborted episode found in the stream. */
struct EpisodeRecord
{
    SimTime begin = 0;
    SimTime end = 0;
    /** Span enclosing the asyncEnd event (the closing dispatch). */
    int end_span = -1;
    bool aborted = false;
};

SegmentKind
classifySpanName(const std::string &name)
{
    if (name.find("gc") != std::string::npos ||
        name.find("Gc") != std::string::npos)
        return SegmentKind::kGc;
    if (name == "rch.flipSync" || name == "rch.buildMapping" ||
        name == "rch.shadowDemotion" ||
        name.find("migrat") != std::string::npos)
        return SegmentKind::kMigration;
    if (name == "rch.initLaunch" ||
        name.find("performLaunch") != std::string::npos ||
        name.find("LaunchActivity") != std::string::npos ||
        name.find("RelaunchActivity") != std::string::npos)
        return SegmentKind::kLaunch;
    return SegmentKind::kDispatch;
}

const std::string &
laneName(const std::vector<std::string> &lanes, std::uint32_t lane)
{
    static const std::string unknown = "?";
    return lane < lanes.size() ? lanes[lane] : unknown;
}

/**
 * Append the chronological segments covering [from, to] of span `idx`,
 * recursing into child spans so nested work (GC inside a launch, a
 * buildMapping inside initLaunch) is attributed at its deepest name.
 * The output exactly tiles [from, to].
 */
void
collectSpanSegments(const std::vector<SpanNode> &spans, int idx,
                    const std::vector<std::string> &lanes, SimTime from,
                    SimTime to, std::vector<Segment> &out)
{
    const SpanNode &s = spans[idx];
    const SegmentKind kind = classifySpanName(s.name);
    const std::string label = s.name + "@" + laneName(lanes, s.lane);
    SimTime pos = from;
    for (int child : s.children) {
        const SpanNode &c = spans[static_cast<std::size_t>(child)];
        const SimTime cb = std::max(c.begin, pos);
        const SimTime ce = std::min(c.end, to);
        if (ce <= pos)
            continue;
        if (cb >= to)
            break;
        if (cb > pos)
            out.push_back(Segment{kind, label, pos, cb});
        collectSpanSegments(spans, child, lanes, cb, ce, out);
        pos = ce;
        if (pos >= to)
            break;
    }
    if (pos < to)
        out.push_back(Segment{kind, label, pos, to});
}

std::string
pad(const std::string &text, std::size_t width)
{
    return text.size() >= width
               ? text
               : std::string(width - text.size(), ' ') + text;
}

} // namespace

const char *
segmentKindName(SegmentKind kind)
{
    switch (kind) {
      case SegmentKind::kDispatch: return "dispatch";
      case SegmentKind::kQueueWait: return "queue-wait";
      case SegmentKind::kGc: return "gc";
      case SegmentKind::kMigration: return "migration";
      case SegmentKind::kLaunch: return "launch";
      case SegmentKind::kIdle: return "idle";
    }
    return "unknown";
}

double
CriticalPath::segmentSumMs() const
{
    SimDuration sum = 0;
    for (const Segment &segment : segments)
        sum += segment.end - segment.begin;
    return toMillisF(sum);
}

const Segment *
CriticalPath::dominant() const
{
    const Segment *best = nullptr;
    for (const Segment &segment : segments) {
        if (!best || segment.end - segment.begin > best->end - best->begin)
            best = &segment;
    }
    return best;
}

ProfileInput
fromTracer(const trace::Tracer &tracer)
{
    ProfileInput input;
    input.lanes.reserve(tracer.lanes().size());
    for (const trace::Tracer::Lane &lane : tracer.lanes())
        input.lanes.push_back(lane.name);
    input.events.reserve(tracer.events().size());
    for (const trace::TraceEvent &event : tracer.events()) {
        ProfileEvent converted;
        converted.phase = static_cast<char>(event.phase);
        converted.lane = event.lane;
        converted.ts = event.ts;
        converted.id = event.async_id;
        converted.bind_enclosing = event.bind_enclosing;
        converted.name = event.name;
        converted.cat = event.cat ? event.cat : "";
        converted.arg = event.arg;
        input.events.push_back(std::move(converted));
    }
    return input;
}

std::vector<CriticalPath>
extractCriticalPaths(const ProfileInput &input)
{
    const std::vector<ProfileEvent> &events = input.events;

    // Pass 1: rebuild the span forest, per-event enclosing spans, flow
    // chains (per-id ordered event indices) and episode endpoints.
    std::vector<SpanNode> spans;
    std::vector<int> enclosing(events.size(), -1);
    std::map<std::uint64_t, std::vector<std::size_t>> flows;
    std::map<std::pair<std::string, std::uint64_t>, std::pair<SimTime, bool>>
        open_episodes;
    std::vector<EpisodeRecord> episodes;
    std::vector<std::vector<int>> stacks;
    SimTime last_ts = 0;

    auto stackFor = [&stacks](std::uint32_t lane) -> std::vector<int> & {
        if (lane >= stacks.size())
            stacks.resize(lane + 1);
        return stacks[lane];
    };

    for (std::size_t i = 0; i < events.size(); ++i) {
        const ProfileEvent &event = events[i];
        last_ts = std::max(last_ts, event.ts);
        std::vector<int> &stack = stackFor(event.lane);
        switch (event.phase) {
          case 'B': {
            SpanNode node;
            node.lane = event.lane;
            node.name = event.name;
            node.begin = event.ts;
            node.end = event.ts;
            node.parent = stack.empty() ? -1 : stack.back();
            const int idx = static_cast<int>(spans.size());
            if (node.parent >= 0)
                spans[static_cast<std::size_t>(node.parent)]
                    .children.push_back(idx);
            spans.push_back(std::move(node));
            stack.push_back(idx);
            enclosing[i] = idx;
            break;
          }
          case 'E': {
            if (!stack.empty()) {
                spans[static_cast<std::size_t>(stack.back())].end = event.ts;
                enclosing[i] = stack.back();
                stack.pop_back();
            }
            break;
          }
          case 's':
          case 't':
          case 'f': {
            const int span = stack.empty() ? -1 : stack.back();
            enclosing[i] = span;
            flows[event.id].push_back(i);
            if (event.bind_enclosing && span >= 0 &&
                spans[static_cast<std::size_t>(span)].consumer_flow < 0)
                spans[static_cast<std::size_t>(span)].consumer_flow =
                    static_cast<int>(i);
            break;
          }
          case 'b': {
            if (event.cat == "episode")
                open_episodes[{event.cat, event.id}] = {event.ts, true};
            break;
          }
          case 'e': {
            auto it = open_episodes.find({event.cat, event.id});
            if (it != open_episodes.end() && it->second.second) {
                EpisodeRecord record;
                record.begin = it->second.first;
                record.end = event.ts;
                record.end_span = stack.empty() ? -1 : stack.back();
                record.aborted = event.arg == "aborted";
                episodes.push_back(record);
                open_episodes.erase(it);
            }
            break;
          }
          default:
            enclosing[i] = stack.empty() ? -1 : stack.back();
            break;
        }
    }
    // Spans still open at the trace cut (e.g. the tracer read mid-run)
    // extend to the last timestamp so clipping stays well-defined.
    for (const std::vector<int> &stack : stacks) {
        for (int idx : stack)
            spans[static_cast<std::size_t>(idx)].end = last_ts;
    }

    // Pass 2: walk each completed episode's chain backwards from the
    // closing dispatch, alternating span segments and queue waits.
    std::vector<CriticalPath> paths;
    for (const EpisodeRecord &episode : episodes) {
        if (episode.aborted)
            continue;
        CriticalPath path;
        path.episode = paths.size();
        path.begin = episode.begin;
        path.end = episode.end;
        std::vector<Segment> reversed;
        int span = episode.end_span;
        SimTime cursor = path.end;
        int hops = 0;
        while (span >= 0 && cursor > path.begin && hops++ < kMaxHops) {
            const SpanNode &s = spans[static_cast<std::size_t>(span)];
            const SimTime seg_begin = std::max(s.begin, path.begin);
            if (seg_begin < cursor) {
                std::vector<Segment> chrono;
                collectSpanSegments(spans, span, input.lanes, seg_begin,
                                    cursor, chrono);
                reversed.insert(reversed.end(), chrono.rbegin(),
                                chrono.rend());
                cursor = seg_begin;
            }
            if (s.begin <= path.begin)
                break;
            if (s.consumer_flow < 0) {
                // No incoming edge on this span: a nested span (the
                // producer sat inside rch.initLaunch, say). The chain
                // continues through whatever caused the *parent*, whose
                // remaining time the next iteration attributes.
                span = s.parent;
                continue;
            }
            const ProfileEvent &edge =
                events[static_cast<std::size_t>(s.consumer_flow)];
            const std::vector<std::size_t> &chain = flows[edge.id];
            auto pos = std::lower_bound(
                chain.begin(), chain.end(),
                static_cast<std::size_t>(s.consumer_flow));
            if (pos == chain.begin())
                break;
            const std::size_t producer_index = *std::prev(pos);
            // Clamp the hand-off: the producer's cost-aware send ts can
            // sit *after* this dispatch's begin (see file comment).
            const SimTime handoff = std::max(
                path.begin, std::min(events[producer_index].ts, s.begin));
            if (handoff < cursor) {
                reversed.push_back(
                    Segment{SegmentKind::kQueueWait,
                            "queue-wait@" + laneName(input.lanes, s.lane),
                            handoff, cursor});
                cursor = handoff;
            }
            span = enclosing[producer_index];
        }
        if (cursor > path.begin)
            reversed.push_back(Segment{SegmentKind::kIdle, "idle@trigger",
                                       path.begin, cursor});
        path.segments.assign(reversed.rbegin(), reversed.rend());
        paths.push_back(std::move(path));
    }
    return paths;
}

ProfileSummary
summarize(const std::vector<CriticalPath> &paths)
{
    ProfileSummary summary;
    summary.episodes = paths.size();
    if (paths.empty())
        return summary;
    double total = 0;
    std::map<std::string, std::pair<SegmentKind, double>> sums;
    std::map<std::string, std::uint64_t> appearances;
    for (const CriticalPath &path : paths) {
        total += path.totalMs();
        std::map<std::string, double> per_path;
        for (const Segment &segment : path.segments) {
            per_path[segment.label] += segment.ms();
            sums[segment.label].first = segment.kind;
        }
        for (const auto &[label, ms] : per_path) {
            sums[label].second += ms;
            appearances[label] += 1;
        }
    }
    const double n = static_cast<double>(paths.size());
    summary.mean_total_ms = total / n;
    for (const auto &[label, entry] : sums) {
        SegmentStat stat;
        stat.kind = entry.first;
        stat.mean_ms = entry.second / n;
        stat.share = summary.mean_total_ms > 0
                         ? stat.mean_ms / summary.mean_total_ms
                         : 0;
        stat.episodes = appearances[label];
        summary.segments[label] = stat;
    }
    return summary;
}

std::string
renderText(const std::vector<CriticalPath> &paths, std::size_t top_k)
{
    std::string out;
    const ProfileSummary summary = summarize(paths);
    out += "causal profile: " + std::to_string(summary.episodes) +
           " completed episode(s), mean total " +
           formatDouble(summary.mean_total_ms, 3) + " ms\n";
    if (paths.empty())
        return out;

    // Episodes ranked by total latency, longest first.
    std::vector<const CriticalPath *> ranked;
    ranked.reserve(paths.size());
    for (const CriticalPath &path : paths)
        ranked.push_back(&path);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const CriticalPath *a, const CriticalPath *b) {
                         return a->end - a->begin > b->end - b->begin;
                     });
    if (ranked.size() > top_k)
        ranked.resize(top_k);

    for (const CriticalPath *path : ranked) {
        const Segment *dom = path->dominant();
        out += "\nepisode " + std::to_string(path->episode) + ": total " +
               formatDouble(path->totalMs(), 3) + " ms (t0 = " +
               formatDouble(toMillisF(path->begin), 3) + " ms)";
        if (dom && path->totalMs() > 0) {
            out += ", dominant " + dom->label + " (" +
                   formatDouble(100.0 * dom->ms() / path->totalMs(), 1) +
                   "%)";
        }
        out += "\n";
        for (const Segment &segment : path->segments) {
            const double pct = path->totalMs() > 0
                                   ? 100.0 * segment.ms() / path->totalMs()
                                   : 0;
            out += "  " + pad(formatDouble(segment.ms(), 3), 10) + " ms  " +
                   pad(formatDouble(pct, 1), 5) + "%  " +
                   pad(segmentKindName(segment.kind), 10) + "  " +
                   segment.label + "\n";
        }
    }

    out += "\nsegment means across episodes:\n";
    for (const auto &[label, stat] : summary.segments) {
        out += "  " + pad(formatDouble(stat.mean_ms, 3), 10) + " ms  " +
               pad(formatDouble(100.0 * stat.share, 1), 5) + "%  " +
               pad(segmentKindName(stat.kind), 10) + "  " + label + "\n";
    }
    return out;
}

std::string
renderJson(const std::vector<CriticalPath> &paths)
{
    std::string out = "{\n";
    out += "  \"schema\": \"rchdroid_profile/1\",\n";
    out += "  \"summary\": " + summaryJson(summarize(paths), 2) + ",\n";
    out += "  \"episodes\": [";
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const CriticalPath &path = paths[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\n      \"episode\": " + std::to_string(path.episode) + ",";
        out += "\n      \"begin_ms\": " +
               formatDouble(toMillisF(path.begin), 6) + ",";
        out += "\n      \"total_ms\": " + formatDouble(path.totalMs(), 6) +
               ",";
        const Segment *dom = path.dominant();
        out += "\n      \"dominant\": \"" +
               jsonEscape(dom ? dom->label : "") + "\",";
        out += "\n      \"segments\": [";
        for (std::size_t j = 0; j < path.segments.size(); ++j) {
            const Segment &segment = path.segments[j];
            out += j ? ",\n        {" : "\n        {";
            out += "\"kind\": \"" + std::string(segmentKindName(segment.kind)) +
                   "\", \"label\": \"" + jsonEscape(segment.label) +
                   "\", \"begin_ms\": " +
                   formatDouble(toMillisF(segment.begin), 6) +
                   ", \"ms\": " + formatDouble(segment.ms(), 6) + "}";
        }
        out += path.segments.empty() ? "]" : "\n      ]";
        out += "\n    }";
    }
    out += paths.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

std::string
summaryJson(const ProfileSummary &summary, int base_indent)
{
    const std::string in0(static_cast<std::size_t>(base_indent), ' ');
    const std::string in1 = in0 + "  ";
    const std::string in2 = in1 + "  ";
    std::string out = "{\n";
    out += in1 + "\"episodes\": " + std::to_string(summary.episodes) + ",\n";
    out += in1 + "\"mean_total_ms\": " +
           formatDouble(summary.mean_total_ms, 6) + ",\n";
    out += in1 + "\"segments\": {";
    bool first = true;
    for (const auto &[label, stat] : summary.segments) {
        out += first ? "\n" : ",\n";
        first = false;
        out += in2 + "\"" + jsonEscape(label) + "\": {\"kind\": \"" +
               segmentKindName(stat.kind) + "\", \"mean_ms\": " +
               formatDouble(stat.mean_ms, 6) + ", \"share\": " +
               formatDouble(stat.share, 6) + ", \"episodes\": " +
               std::to_string(stat.episodes) + "}";
    }
    out += summary.segments.empty() ? "}" : "\n" + in1 + "}";
    out += "\n" + in0 + "}";
    return out;
}

} // namespace rchdroid::profiling
