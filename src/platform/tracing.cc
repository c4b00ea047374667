#include "platform/tracing.h"

#include <fstream>
#include <sstream>

#include "platform/strings.h"

namespace rchdroid::trace {

thread_local Tracer *Tracer::current_ = nullptr;

Tracer::Tracer()
{
    // pid 0 / lane 0: harness code running before any system exists.
    process_names_[0] = "harness";
    lanes_.push_back(Lane{0, 0, "main"});
    lane_ids_[{0, "main"}] = 0;
    next_pid_ = 1;
}

std::uint32_t
Tracer::beginProcess(const std::string &label)
{
    current_pid_ = next_pid_++;
    process_names_[current_pid_] = label;
    // A default lane so instants/asyncs emitted outside any Looper
    // dispatch still land inside the new process.
    current_lane_ = laneId("main");
    return current_pid_;
}

std::uint32_t
Tracer::laneId(const std::string &name)
{
    const auto key = std::make_pair(current_pid_, name);
    const auto it = lane_ids_.find(key);
    if (it != lane_ids_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(lanes_.size());
    std::uint32_t tid = 0;
    for (const Lane &lane : lanes_) {
        if (lane.pid == current_pid_)
            ++tid;
    }
    lanes_.push_back(Lane{current_pid_, tid, name});
    lane_ids_.emplace(key, id);
    return id;
}

void
Tracer::beginOnAt(std::uint32_t lane, SimTime ts, const std::string &name,
                  const char *cat, std::string arg)
{
    events_.push_back(
        TraceEvent{Phase::kBegin, lane, ts, 0, name, std::move(arg), cat});
}

void
Tracer::endOnAt(std::uint32_t lane, SimTime ts)
{
    events_.push_back(TraceEvent{Phase::kEnd, lane, ts, 0, {}, {}, "sim"});
}

void
Tracer::instantAt(SimTime ts, const std::string &name, std::string arg)
{
    events_.push_back(TraceEvent{Phase::kInstant, current_lane_, ts, 0, name,
                                 std::move(arg), "sim"});
}

void
Tracer::asyncBegin(const char *cat, std::uint64_t id, const std::string &name,
                   SimTime ts, std::string arg)
{
    events_.push_back(TraceEvent{Phase::kAsyncBegin, current_lane_, ts, id,
                                 name, std::move(arg), cat});
}

void
Tracer::asyncEnd(const char *cat, std::uint64_t id, SimTime ts,
                 std::string arg)
{
    events_.push_back(
        TraceEvent{Phase::kAsyncEnd, current_lane_, ts, id, {}, std::move(arg),
                   cat});
}

void
Tracer::flowAt(Phase phase, std::uint32_t lane, SimTime ts, std::uint64_t id,
               const std::string &name, bool bind_enclosing, const char *cat)
{
    events_.push_back(
        TraceEvent{phase, lane, ts, id, name, {}, cat, bind_enclosing});
}

namespace {

/** Nanoseconds -> the microsecond "ts" field Chrome expects. */
std::string
tsMicros(SimTime ns)
{
    return formatDouble(static_cast<double>(ns) / 1000.0, 3);
}

} // namespace

std::string
Tracer::toChromeJson() const
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&]() -> std::ostringstream & {
        os << (first ? "\n" : ",\n");
        first = false;
        return os;
    };
    // Metadata: name every process and lane so Perfetto's track labels
    // read "system_server.atms", not "tid 3".
    for (const auto &[pid, label] : process_names_) {
        sep() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
              << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(label)
              << "\"}}";
    }
    for (const Lane &lane : lanes_) {
        sep() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << lane.pid
              << ",\"tid\":" << lane.tid << ",\"args\":{\"name\":\""
              << jsonEscape(lane.name) << "\"}}";
    }
    for (const TraceEvent &event : events_) {
        const Lane &lane = lanes_[event.lane];
        sep() << "{\"ph\":\"" << static_cast<char>(event.phase)
              << "\",\"pid\":" << lane.pid << ",\"tid\":" << lane.tid
              << ",\"ts\":" << tsMicros(event.ts);
        if (event.phase != Phase::kEnd || !event.name.empty())
            os << ",\"name\":\"" << jsonEscape(event.name) << "\"";
        os << ",\"cat\":\"" << event.cat << "\"";
        if (event.phase == Phase::kAsyncBegin ||
            event.phase == Phase::kAsyncEnd ||
            event.phase == Phase::kFlowStart ||
            event.phase == Phase::kFlowStep || event.phase == Phase::kFlowEnd)
            os << ",\"id\":" << event.async_id;
        if (event.bind_enclosing)
            os << ",\"bp\":\"e\""; // bind to the enclosing slice
        if (event.phase == Phase::kInstant)
            os << ",\"s\":\"t\""; // thread-scoped instant
        if (!event.arg.empty())
            os << ",\"args\":{\"detail\":\"" << jsonEscape(event.arg)
               << "\"}";
        os << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toChromeJson();
    // A trace smaller than the stream buffer is written by the flush in
    // close(), so a failed write shows only after it.
    out.close();
    return static_cast<bool>(out);
}

} // namespace rchdroid::trace
