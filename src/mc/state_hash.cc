#include "mc/state_hash.h"

#include <string_view>
#include <variant>

namespace rchdroid::mc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
mixByte(std::uint64_t &h, std::uint8_t byte)
{
    h ^= byte;
    h *= kFnvPrime;
}

void
mixU64(std::uint64_t &h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        mixByte(h, static_cast<std::uint8_t>(value >> (i * 8)));
}

void
mixI64(std::uint64_t &h, std::int64_t value)
{
    mixU64(h, static_cast<std::uint64_t>(value));
}

void
mixString(std::uint64_t &h, std::string_view s)
{
    mixU64(h, s.size());
    for (char c : s)
        mixByte(h, static_cast<std::uint8_t>(c));
}

void
mixBundle(std::uint64_t &h, const Bundle &bundle)
{
    // std::map iteration: keys in sorted order — canonical.
    mixU64(h, bundle.size());
    for (const auto &[key, value] : bundle.entries()) {
        mixString(h, key);
        mixU64(h, value.index());
        std::visit(
            [&h](const auto &held) {
                using T = std::decay_t<decltype(held)>;
                if constexpr (std::is_same_v<T, std::int64_t>) {
                    mixI64(h, held);
                } else if constexpr (std::is_same_v<T, double>) {
                    std::uint64_t bits;
                    static_assert(sizeof(bits) == sizeof(held));
                    __builtin_memcpy(&bits, &held, sizeof(bits));
                    mixU64(h, bits);
                } else if constexpr (std::is_same_v<T, bool>) {
                    mixByte(h, held ? 1 : 0);
                } else if constexpr (std::is_same_v<T, std::string>) {
                    mixString(h, held);
                } else if constexpr (std::is_same_v<
                                         T, std::vector<std::int64_t>>) {
                    mixU64(h, held.size());
                    for (std::int64_t v : held)
                        mixI64(h, v);
                } else if constexpr (std::is_same_v<
                                         T, std::vector<std::string>>) {
                    mixU64(h, held.size());
                    for (const std::string &v : held)
                        mixString(h, v);
                } else if constexpr (std::is_same_v<
                                         T, std::shared_ptr<Bundle>>) {
                    if (held)
                        mixBundle(h, *held);
                    else
                        mixByte(h, 0);
                }
            },
            value);
    }
}

void
mixQueue(std::uint64_t &h, const Looper &looper)
{
    mixString(h, looper.name());
    mixU64(h, looper.queuedMessages());
    looper.queue().forEachInOrder([&h](SimTime, std::uint64_t,
                                       const Message &msg) {
        // (when, cost, tag) in delivery order; the arrival ticket and
        // analysis_id are per-execution counters and stay out.
        mixI64(h, msg.when);
        mixI64(h, msg.cost);
        mixString(h, msg.tag);
    });
}

void
mixActivity(std::uint64_t &h, Activity &activity)
{
    mixString(h, activity.component());
    mixU64(h, activity.token());
    mixByte(h, static_cast<std::uint8_t>(activity.lifecycleState()));
    mixI64(h, activity.shadowEnteredAt());
    // Full widget state: text values, progress, list positions — the
    // essence whose loss the oracles detect. Harness-context save:
    // chargeCpu is a no-op outside a dispatch and shared-access hooks
    // ignore accesses with no current looper.
    if (!activity.isDestroyed())
        mixBundle(h, activity.saveInstanceStateNow(/*full=*/true));
    mixByte(h, activity.hasShadowSnapshot() ? 1 : 0);
    if (activity.hasShadowSnapshot())
        mixBundle(h, activity.shadowSnapshot());
    mixU64(h, static_cast<std::uint64_t>(activity.showingDialogCount()));
}

} // namespace

std::uint64_t
stateFingerprint(sim::AndroidSystem &system)
{
    std::uint64_t h = kFnvOffset;

    mixI64(h, system.scheduler().now());
    mixString(h, system.currentConfiguration().toString());

    // Server side: the task stack and every record's Fig. 4 state.
    Atms &atms = system.atms();
    mixU64(h, atms.stack().taskCount());
    for (const auto &task : atms.stack().tasks()) {
        mixString(h, task->process());
        mixU64(h, task->depth());
        for (ActivityToken token : task->tokens()) {
            mixU64(h, token);
            const ActivityRecord *record = atms.recordFor(token);
            if (!record) {
                mixByte(h, 0xff);
                continue;
            }
            mixString(h, record->component());
            mixByte(h, static_cast<std::uint8_t>(record->state()));
            mixByte(h, record->isShadow() ? 1 : 0);
            mixI64(h, record->shadowSince());
        }
    }
    mixQueue(h, atms.looper());

    // Client side: every process, its activities, async tasks, queues.
    mixU64(h, system.installedApps().size());
    for (const auto &[process, app] : system.installedApps()) {
        mixString(h, process);
        mixByte(h, app->thread->crashed() ? 1 : 0);
        mixU64(h, app->thread->liveActivityCount());
        for (const auto &[token, activity] : app->thread->activities()) {
            mixU64(h, token);
            mixActivity(h, *activity);
        }
        mixU64(h, app->thread->inFlightAsyncTasks());
        for (const auto &task : app->thread->inFlightAsyncList()) {
            mixString(h, task->name());
            mixByte(h, static_cast<std::uint8_t>(task->state()));
            mixString(h, task->owner() ? task->owner()->component() : "");
            mixU64(h, task->owner() ? task->owner()->token() : 0);
        }
        mixQueue(h, app->thread->uiLooper());
        mixQueue(h, app->thread->workerLooper());
        if (app->handler) {
            const RchStats &stats = app->handler->stats();
            mixU64(h, stats.gc_collections);
            mixU64(h, stats.flips);
            mixU64(h, stats.init_launches);
            mixU64(h, static_cast<std::uint64_t>(
                          app->handler->gcPolicy().shadowFrequency(
                              system.scheduler().now())));
        }
    }

    // The raw scheduler pending set: binder legs in flight, timers,
    // looper wakeups — (when, label) in delivery order.
    for (const RunnableEvent &event : system.scheduler().pendingInOrder()) {
        mixI64(h, event.when);
        mixString(h, event.label.name ? event.label.name : "?");
    }

    return h;
}

} // namespace rchdroid::mc
