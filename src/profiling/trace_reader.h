/**
 * @file
 * Loader turning a Chrome trace-event JSON file (as written by
 * trace::Tracer::writeChromeJson) back into the analyzer's ProfileInput
 * — the offline half of the profiler, used by tools/rchdroid_profile.
 *
 * The parser is a small hand-rolled recursive-descent JSON reader (the
 * repo takes no third-party dependencies); it accepts general JSON
 * nested up to 64 levels deep, but only the fields the tracer emits are
 * interpreted. Timestamps come back as microseconds with three decimals
 * and are converted to the simulator's integer nanoseconds exactly. A
 * pid, tid, id or timestamp (in ns) beyond 2^53 in magnitude, or a
 * negative id, is an error rather than a silently wrapped integer.
 */
#ifndef RCHDROID_PROFILING_TRACE_READER_H
#define RCHDROID_PROFILING_TRACE_READER_H

#include <string>

#include "profiling/critical_path.h"

namespace rchdroid::profiling {

/** Result of loading a trace: input is valid iff error is empty. */
struct ReadResult
{
    ProfileInput input;
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Parse a trace JSON document held in memory. */
ReadResult parseChromeTrace(const std::string &json);

/** Read and parse a trace JSON file. */
ReadResult readChromeTraceFile(const std::string &path);

} // namespace rchdroid::profiling

#endif // RCHDROID_PROFILING_TRACE_READER_H
