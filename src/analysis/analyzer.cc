#include "analysis/analyzer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace rchdroid::analysis {

Analyzer::Analyzer(AnalyzerOptions options)
    : options_(options),
      races_(sink_, context_),
      lifecycle_(sink_, context_)
{
    sink_.setAbortOnViolation(options_.abort_on_violation);
    sink_.setTimelineSnapshotter([this] { return timelineLines(); });
}

Analyzer::TimelineEntry *
Analyzer::nextTimelineSlot()
{
    if (options_.timeline_capacity == 0)
        return nullptr;
    if (timeline_.size() < options_.timeline_capacity)
        return &timeline_.emplace_back();
    TimelineEntry *slot = &timeline_[timeline_next_];
    timeline_next_ = (timeline_next_ + 1) % timeline_.size();
    return slot;
}

std::vector<std::string>
Analyzer::timelineLines() const
{
    std::vector<std::string> lines;
    lines.reserve(timeline_.size());
    for (std::size_t i = 0; i < timeline_.size(); ++i) {
        const TimelineEntry &entry =
            timeline_[(timeline_next_ + i) % timeline_.size()];
        std::ostringstream os;
        os << formatSimTime(entry.time);
        switch (entry.kind) {
          case TimelineEntry::Kind::Dispatch:
            os << " " << entry.name << " #" << entry.id;
            if (!entry.tag.empty())
                os << " '" << entry.tag << "'";
            break;
          case TimelineEntry::Kind::Barrier:
            os << " barrier '" << entry.tag << "'";
            break;
          case TimelineEntry::Kind::Lifecycle:
            os << " " << entry.name << "#" << entry.id << " "
               << lifecycleStateName(entry.from) << " -> "
               << lifecycleStateName(entry.to);
            break;
        }
        lines.push_back(os.str());
    }
    return lines;
}

std::string
Analyzer::summary() const
{
    std::ostringstream os;
    os << sink_.totalCount() << " violation(s): "
       << sink_.countOf(ViolationKind::DataRace) << " race(s), "
       << sink_.countOf(ViolationKind::LifecycleTransition) +
              sink_.countOf(ViolationKind::LifecycleInvariant)
       << " lifecycle, "
       << sink_.countOf(ViolationKind::DestroyedViewMutation)
       << " destroyed-view; "
       << races_.accessesChecked() << " access(es) and "
       << lifecycle_.transitionsChecked() << " transition(s) checked";
    return os.str();
}

void
Analyzer::onLooperCreated(Looper &looper)
{
    races_.onLooperCreated(looper);
}

void
Analyzer::onLooperDestroyed(Looper &looper)
{
    races_.onLooperDestroyed(looper);
}

void
Analyzer::onMessageSend(Looper &target, std::uint64_t msg_id, SimTime when,
                        const std::string &tag)
{
    (void)when;
    (void)tag;
    races_.onMessageSend(target, msg_id);
}

void
Analyzer::onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                          const std::string &tag)
{
    context_.pushDispatch(looper, msg_id, tag);
    races_.onDispatchBegin(looper, msg_id);
    if (TimelineEntry *entry = nextTimelineSlot()) {
        entry->kind = TimelineEntry::Kind::Dispatch;
        entry->time = looper.now();
        entry->name = looper.name();
        entry->tag = tag;
        entry->id = msg_id;
    }
}

void
Analyzer::onDispatchEnd(Looper &looper, SimTime start, SimTime end)
{
    (void)looper;
    (void)start;
    (void)end;
    context_.popDispatch();
}

void
Analyzer::onSyncBarrier(const void *scope, const char *label)
{
    races_.onSyncBarrier(scope, label);
    if (TimelineEntry *entry = nextTimelineSlot()) {
        entry->kind = TimelineEntry::Kind::Barrier;
        entry->time = context_.now();
        entry->tag = label;
    }
}

void
Analyzer::onSharedAccess(const void *object, const char *kind,
                         const std::string &label, bool is_write)
{
    races_.onSharedAccess(object, kind, label, is_write);
}

void
Analyzer::onObjectGone(const void *object)
{
    races_.onObjectGone(object);
}

void
Analyzer::onLifecycleTransition(const void *activity, const void *scope,
                                const std::string &component,
                                std::uint64_t instance_id, std::uint8_t from,
                                std::uint8_t to)
{
    const auto from_state = static_cast<LifecycleState>(from);
    const auto to_state = static_cast<LifecycleState>(to);
    if (TimelineEntry *entry = nextTimelineSlot()) {
        entry->kind = TimelineEntry::Kind::Lifecycle;
        entry->time = context_.now();
        entry->name = component;
        entry->id = instance_id;
        entry->from = from_state;
        entry->to = to_state;
    }
    lifecycle_.onTransition(activity, scope, component, instance_id,
                            from_state, to_state);
}

void
Analyzer::onActivityGone(const void *activity)
{
    lifecycle_.onActivityGone(activity);
}

void
Analyzer::onDestroyedViewMutation(const void *view, const char *kind,
                                  const std::string &label)
{
    lifecycle_.onDestroyedViewMutation(view, kind, label);
}

void
Analyzer::onAppCodeBegin()
{
    context_.enterAppCode();
}

void
Analyzer::onAppCodeEnd()
{
    context_.exitAppCode();
}

ScopedAnalyzer::ScopedAnalyzer(AnalyzerOptions options) : analyzer_(options)
{
    if (subscribedAnalyzer() == nullptr)
        subscription_.emplace(analyzer_);
}

Analyzer *
subscribedAnalyzer()
{
    for (obs::Subscription *node = obs::head(); node != nullptr;
         node = node->next()) {
        if (auto *analyzer = dynamic_cast<Analyzer *>(&node->observer()))
            return analyzer;
    }
    return nullptr;
}

namespace {

/** -1 unset, 0 forced off, 1 forced on. */
int
envTristate(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return -1;
    return (std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0)
               ? 0
               : 1;
}

} // namespace

bool
analysisEnabledByDefault()
{
    const int forced = envTristate("RCHDROID_ANALYSIS");
    if (forced >= 0)
        return forced == 1;
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

bool
analysisAbortByDefault()
{
    return envTristate("RCHDROID_ANALYSIS_ABORT") == 1;
}

AnalyzerOptions
optionsFromEnv()
{
    AnalyzerOptions options;
    options.abort_on_violation = analysisAbortByDefault();
    return options;
}

CheckMode::CheckMode(int &argc, char **argv)
{
    int out = 1;
    bool found = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            found = true;
            continue;
        }
        argv[out++] = argv[i];
    }
    if (found) {
        argc = out;
        argv[argc] = nullptr;
        AnalyzerOptions options = optionsFromEnv();
        // --check reports at exit rather than aborting mid-run unless
        // the environment explicitly asks for abort.
        guard_.emplace(options);
    }
}

int
CheckMode::finish() const
{
    if (!guard_)
        return 0;
    const Analyzer &analyzer = guard_->analyzer();
    std::printf("analysis: %s\n", analyzer.summary().c_str());
    for (const Violation &violation : analyzer.sink().violations())
        std::printf("%s\n", violation.toString().c_str());
    return analyzer.sink().totalCount() == 0 ? 0 : 1;
}

} // namespace rchdroid::analysis
