/**
 * @file
 * Worker counts for the host-parallel layers: the benches'
 * ParallelRunner and the model checker's branch pool. A count is a
 * positive integer; `RCHDROID_JOBS` sets the default.
 */
#ifndef RCHDROID_PLATFORM_JOBS_H
#define RCHDROID_PLATFORM_JOBS_H

#include <string>

namespace rchdroid {

/**
 * A job count given as `what` (a flag or environment variable): a
 * positive integer, or the parse error on stderr and exit 2.
 */
int parseJobCount(const std::string &text, const std::string &what);

/**
 * Worker count used when none is requested explicitly: the
 * RCHDROID_JOBS environment variable if set (a malformed value exits
 * 2), else the hardware concurrency (at least 1).
 */
int defaultJobs();

} // namespace rchdroid

#endif // RCHDROID_PLATFORM_JOBS_H
