#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"

namespace e2ebench {

namespace {

double
durationNs(const Span &span)
{
    return static_cast<double>(span.end_ns - span.start_ns);
}

/** Per-span child coverage: the part of each span its children took. */
std::vector<double>
childNs(const std::vector<Span> &spans)
{
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &span : spans) {
        if (span.parent >= 0)
            child[static_cast<std::size_t>(span.parent)] += durationNs(span);
    }
    return child;
}

} // namespace

double
spanMeanUs(const std::vector<Span> &spans, const char *name)
{
    double total_ns = 0.0;
    std::size_t count = 0;
    for (const Span &span : spans) {
        if (std::strcmp(span.name, name) == 0) {
            total_ns += durationNs(span);
            ++count;
        }
    }
    return count ? total_ns / 1e3 / static_cast<double>(count) : 0.0;
}

std::vector<double>
spanSelfUs(const std::vector<Span> &spans, const char *name)
{
    const std::vector<double> child = childNs(spans);
    std::vector<double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, name) == 0)
            out.push_back((durationNs(spans[i]) - child[i]) / 1e3);
    }
    return out;
}

bool
writeChromeTrace(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"op\": %u, \"parent\": %d}}%s\n",
                     span.name,
                     static_cast<double>(span.start_ns - origin) / 1e3,
                     durationNs(span) / 1e3, span.op, span.parent,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

void
printSelfTimes(const std::vector<Span> &spans)
{
    const std::vector<double> child = childNs(spans);
    struct Row
    {
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double self_ns = 0.0;
    };
    std::map<std::string, Row> rows;
    double root_ns = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Row &row = rows[spans[i].name];
        ++row.count;
        row.total_ns += durationNs(spans[i]);
        row.self_ns += durationNs(spans[i]) - child[i];
        if (spans[i].parent < 0)
            root_ns += durationNs(spans[i]);
    }
    std::printf("%-22s %9s %12s %12s %7s\n", "span", "count", "total_ms",
                "self_ms", "self%");
    for (const auto &[name, row] : rows) {
        std::printf("%-22s %9llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    row.total_ns / 1e6, row.self_ns / 1e6,
                    root_ns > 0.0 ? 100.0 * row.self_ns / root_ns : 0.0);
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[rank == 0 ? 0 : std::min(rank, values.size()) - 1];
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double value : values)
        sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

} // namespace e2ebench
