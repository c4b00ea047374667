/**
 * @file
 * Telemetry: the timestamped framework events the experiment harness
 * records.
 *
 * The paper's headline metric — "the time between the configuration
 * change arriving at the ATMS and the corresponding activity resumed" —
 * is computed by the sim layer from events emitted here by the ATMS and
 * the ActivityThread. Emitters hand each event to the observer chain
 * (os/observer.h), tagged with the scheduler it came from.
 *
 * The kinds form a closed set: TelemetryKind is an enum, and
 * telemetryKindName() maps each to its dotted name ("atms.configChange",
 * "app.resumed", ...). No string converts to a kind, so a misspelt kind
 * does not compile.
 */
#ifndef RCHDROID_PLATFORM_TELEMETRY_H
#define RCHDROID_PLATFORM_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "platform/time.h"

namespace rchdroid {

/** Every kind the framework emits; kNone is the default. */
enum class TelemetryKind : std::uint8_t {
    kNone,
    kAtmsConfigChange,
    kAtmsActivityResumed,
    kAtmsRelaunch,
    kAtmsShadowHandling,
    kAtmsBack,
    kAtmsActivityDestroyed,
    kAtmsShadowReclaimed,
    kAtmsProcessCrashed,
    kAtmsCoinFlip,
    kAtmsSunnyCreate,
    kAppResumed,
    kAppCrash,
    kAppAsyncStarted,
    kAppAsyncFinished,
    kAppWindowLeaked,
    kActivityResumed,
    kActivityDestroyed,
    kActivityEnterShadow,
    kActivityFlipToSunny,
    /** A finding of the system's own analyzer, one per ViolationKind. */
    kAnalysisDataRace,
    kAnalysisLifecycleTransition,
    kAnalysisLifecycleInvariant,
    kAnalysisDestroyedViewMutation,
};

inline constexpr std::size_t kTelemetryKindCount =
    static_cast<std::size_t>(TelemetryKind::kAnalysisDestroyedViewMutation) +
    1;

/** The kinds by their short names: kinds::kAtmsConfigChange, ... */
namespace kinds {
using enum TelemetryKind;
} // namespace kinds

/** Dotted name of a kind, e.g. "atms.configChange" ("" for kNone). */
const std::string &telemetryKindName(TelemetryKind kind);

/** gtest/iostream support: prints the dotted name. */
std::ostream &operator<<(std::ostream &os, TelemetryKind kind);

/** One timestamped occurrence. */
struct TelemetryEvent
{
    SimTime time = 0;
    TelemetryKind kind = TelemetryKind::kNone;
    /** Free-form detail, e.g. the component name or exception kind. */
    std::string detail;
    /** Optional numeric payload (bytes, counts). */
    double value = 0.0;

    /** Dotted name of the kind. */
    const std::string &kindName() const { return telemetryKindName(kind); }
};

} // namespace rchdroid

#endif // RCHDROID_PLATFORM_TELEMETRY_H
