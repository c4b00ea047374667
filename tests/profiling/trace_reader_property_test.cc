/**
 * @file
 * Seeded mutation property test of the trace reader over real tracer
 * JSON: the quickstart and shell-demo traces that
 * tests/tools/observability_golden pins. Every mutated document must
 * come back from parseChromeTrace as a trace or as an error, and on a
 * trace the critical-path extraction and its renderers must not throw
 * or crash (the ASan+UBSan leg runs this too).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "platform/rng.h"
#include "profiling/critical_path.h"
#include "profiling/trace_reader.h"

namespace rchdroid::profiling {
namespace {

std::string
readSeed(const std::string &name)
{
    std::ifstream in(std::string(RCHDROID_TRACE_SEEDS) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Offset of the next `needle` at or after a random offset, or npos. */
std::size_t
findFrom(const std::string &text, const std::string &needle, Rng &rng)
{
    const auto start = static_cast<std::size_t>(
        rng.nextInt(0, static_cast<std::int64_t>(text.size()) - 1));
    const std::size_t at = text.find(needle, start);
    return at != std::string::npos ? at : text.find(needle);
}

/** One seeded corruption of a valid trace document. */
std::string
mutate(std::string text, Rng &rng)
{
    const auto anywhere = [&] {
        return static_cast<std::size_t>(
            rng.nextInt(0, static_cast<std::int64_t>(text.size()) - 1));
    };
    switch (rng.nextInt(0, 4)) {
      case 0: // truncate
        text.resize(anywhere());
        break;
      case 1: // flip bytes
        for (std::int64_t n = rng.nextInt(1, 8); n > 0; --n)
            text[anywhere()] ^= static_cast<char>(rng.nextInt(1, 255));
        break;
      case 2: { // splice a huge or negative number over a field's value
        static const char *const kNumbers[] = {
            "1e308", "-1e308", "1e999", "-1e999", "9223372036854775807",
            "-9223372036854775808", "18446744073709551616", "-1", "-0.5",
            "4294967296", "1e-400", "-"};
        static const char *const kFields[] = {"\"ts\":", "\"pid\":",
                                              "\"tid\":", "\"id\":"};
        const std::string field = kFields[rng.nextInt(0, 3)];
        const std::size_t at = findFrom(text, field, rng);
        if (at == std::string::npos)
            break;
        const std::size_t begin = at + field.size();
        const std::size_t end =
            text.find_first_not_of("0123456789.-+eE", begin);
        text.replace(begin, end - begin, kNumbers[rng.nextInt(0, 11)]);
        break;
      }
      case 3: { // a bad escape inside a string value
        static const char *const kEscapes[] = {
            "\\x", "\\u12", "\\uZZZZ", "\\", "\\u0000", "\\ud800", "\\u007f"};
        const std::size_t at = findFrom(text, "\":\"", rng);
        if (at != std::string::npos)
            text.insert(at + 3, kEscapes[rng.nextInt(0, 6)]);
        break;
      }
      case 4: { // nest inside an event, up to four times past the limit
        const std::size_t at = findFrom(text, "\"args\":{", rng);
        if (at == std::string::npos)
            break;
        const auto levels = static_cast<std::size_t>(rng.nextInt(1, 256));
        text.insert(at + 8, "\"deep\":" + std::string(levels, '[') + "0" +
                                std::string(levels, ']') + ",");
        break;
      }
    }
    return text;
}

TEST(TraceReaderProperty, MutatedTracesParseOrFailCleanly)
{
    Rng rng(0x5452414345ull);
    int parsed = 0, rejected = 0;
    for (const char *seed : {"quickstart.trace.json", "shell.trace.json"}) {
        const std::string valid = readSeed(seed);
        const ReadResult original = parseChromeTrace(valid);
        ASSERT_TRUE(original.ok()) << seed << ": " << original.error;
        ASSERT_FALSE(extractCriticalPaths(original.input).empty()) << seed;
        for (int round = 0; round < 1000; ++round) {
            std::string text = valid;
            for (std::int64_t n = rng.nextInt(1, 3); n > 0; --n)
                text = mutate(std::move(text), rng);
            try {
                const ReadResult result = parseChromeTrace(text);
                if (!result.ok()) {
                    ++rejected;
                    continue;
                }
                ++parsed;
                const std::vector<CriticalPath> paths =
                    extractCriticalPaths(result.input);
                // The report is JSON the reader itself accepts.
                const ReadResult report = parseChromeTrace(renderJson(paths));
                EXPECT_EQ(report.error, "missing traceEvents array")
                    << seed << " round " << round;
                (void)renderText(paths, 3);
            } catch (const std::exception &e) {
                ADD_FAILURE() << seed << " round " << round << " threw "
                              << e.what();
            }
        }
    }
    // Both outcomes occur: the mutations are neither all fatal nor inert.
    EXPECT_GT(parsed, 100);
    EXPECT_GT(rejected, 100);
}

} // namespace
} // namespace rchdroid::profiling
