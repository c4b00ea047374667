/**
 * @file
 * RchConfig / RchStats: tuning knobs and counters of the RCHDroid client
 * machinery.
 *
 * Defaults follow the paper: THRESH_T = 50 s (chosen by the Fig. 11
 * sweep as the latency/memory sweet spot), THRESH_F = 4 entries per
 * minute ("if a user changes the configuration four times per minute, it
 * is frequent"), measured over the trailing k = 60 s window.
 */
#ifndef RCHDROID_RCH_RCH_CONFIG_H
#define RCHDROID_RCH_RCH_CONFIG_H

#include <cstdint>

#include "platform/time.h"

namespace rchdroid {

/** How the essence mapping between the two view trees is built. */
enum class MappingStrategy : std::uint8_t {
    /** Paper default: hash table of view ids, O(n) build (§3.3). */
    HashTable,
    /**
     * Ablation: per-view linear search of the sunny tree, O(n²). The
     * Fig. 10 bench shows why the paper bounds init cost with the hash
     * table.
     */
    LinearScan,
};

/** Tuning knobs of the client-side RCHDroid machinery. */
struct RchConfig
{
    /** GC: minimum shadow age before collection (paper: 50 s). */
    SimDuration thresh_t = seconds(50);
    /** GC: shadow-entry frequency at/above which we keep (paper: 4). */
    int thresh_f = 4;
    /** GC: trailing window for the frequency count (paper: "k seconds",
     *  one minute at THRESH_F = 4/min). */
    SimDuration frequency_window = seconds(60);
    /** How often doGcForShadowIfNeeded runs on the UI looper. */
    SimDuration gc_interval = seconds(5);
    /** Essence-mapping construction strategy. */
    MappingStrategy mapping_strategy = MappingStrategy::HashTable;
};

/** Counters of everything the handler did (benches read these). */
struct RchStats
{
    std::uint64_t runtime_changes = 0;
    /** Sunny launches that created a fresh instance (RCHDroid-init). */
    std::uint64_t init_launches = 0;
    /** Sunny launches satisfied by a coin flip. */
    std::uint64_t flips = 0;
    /** Views wired into essence mappings. */
    std::uint64_t views_mapped = 0;
    /** Views whose id had no sunny counterpart. */
    std::uint64_t views_unmatched = 0;
    /** Individual view migrations performed by the lazy migrator. */
    std::uint64_t views_migrated = 0;
    /** Shadow instances reclaimed by the GC. */
    std::uint64_t gc_collections = 0;
    /** GC checks that decided to keep the shadow. */
    std::uint64_t gc_keeps = 0;
};

} // namespace rchdroid

#endif // RCHDROID_RCH_RCH_CONFIG_H
