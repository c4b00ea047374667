#include "platform/jobs.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "platform/strings.h"

namespace rchdroid {

int
parseJobCount(const std::string &text, const std::string &what)
{
    const Result<std::int64_t> parsed = parseInteger(text, 1, INT_MAX, what);
    if (!parsed) {
        std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
        std::exit(2);
    }
    return static_cast<int>(parsed.value());
}

int
defaultJobs()
{
    if (const char *env = std::getenv("RCHDROID_JOBS"))
        return parseJobCount(env, "RCHDROID_JOBS");
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace rchdroid
