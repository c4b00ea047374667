/**
 * @file
 * Canonical state fingerprint for visited-state pruning.
 *
 * Two explored prefixes that reach the same fingerprint with the same
 * remaining exploration budget have identical futures (the simulator is
 * deterministic given the schedule), so the second can be pruned and
 * credited with the first subtree's schedule count.
 *
 * What the hash covers (the paper's observable state):
 *  - current device Configuration;
 *  - the ATMS task stack: per task, per record — component, server
 *    RecordState, shadow flag + shadowSince (Fig. 4 server view);
 *  - per app process: crash flag, every live Activity — component,
 *    client LifecycleState (Fig. 4), shadow-entry time, the full
 *    instance-state Bundle (widget values — the essence the paper's
 *    data-loss oracles care about) and the retained shadow snapshot;
 *  - in-flight AsyncTasks (name, state, owner component/token);
 *  - RCH handler counters that gate future behaviour (gc_collections,
 *    flips, init_launches) and the GC policy's live frequency;
 *  - every pending message queue in delivery order ((when, cost, tag) —
 *    the os/dispatch_order.h contract makes the order canonical);
 *  - the scheduler's pending set (when + label) and the current time.
 *
 * Deliberately excluded:
 *  - Activity::instanceId() — allocated from a process-global counter,
 *    so it differs between two executions that are otherwise in
 *    identical states;
 *  - arrival tickets, event ids and analysis ids — per-execution
 *    counters;
 *  - object addresses — never meaningful across executions;
 *  - monotone telemetry counters with no behavioural feedback.
 */
#ifndef RCHDROID_MC_STATE_HASH_H
#define RCHDROID_MC_STATE_HASH_H

#include <cstdint>

#include "sim/android_system.h"

namespace rchdroid::mc {

/** FNV-1a 64 over the canonical state serialisation described above. */
std::uint64_t stateFingerprint(sim::AndroidSystem &system);

} // namespace rchdroid::mc

#endif // RCHDROID_MC_STATE_HASH_H
