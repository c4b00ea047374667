/**
 * @file
 * Shared pieces of the end-to-end benchmark: host clock, the in-memory
 * span recorder of the traced run, the determinism digest, the seeded
 * input generator, and the interface every workload implements.
 *
 * Two clocks appear in this benchmark and must never be mixed:
 *  - host time (std::chrono::steady_clock), the benchmark's performance
 *    measurements — everything reported in the metrics;
 *  - virtual time (the simulator's SimTime), the paper's outputs —
 *    hashed into the digest and checked, never reported as speed.
 */
#ifndef RCHDROID_E2EBENCH_BENCH_H
#define RCHDROID_E2EBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace e2ebench {

/** Host nanoseconds since an arbitrary origin. */
inline std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * One recorded span. `parent` indexes the enclosing span in the same
 * recorder (-1 for a root); `op` is shared by every span of one app
 * script or one model-checking scenario.
 */
struct Span
{
    const char *name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t op = 0;
};

/**
 * In-memory span recorder. Disabled in the untraced run, where begin()
 * and end() reduce to a branch; nothing is written until the run ends.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int
    begin(const char *name, std::uint32_t op)
    {
        if (!enabled_)
            return -1;
        Span span;
        span.name = name;
        span.parent = open_.empty() ? -1 : open_.back();
        span.op = op;
        span.start_ns = hostNs();
        spans_.push_back(span);
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void
    end(int index)
    {
        if (index < 0)
            return;
        spans_[static_cast<std::size_t>(index)].end_ns = hostNs();
        open_.pop_back();
    }

    const std::vector<Span> &all() const { return spans_; }

    /** Drop every recorded span (none may be open). */
    void clear() { spans_.clear(); }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begins on construction, ends on destruction. */
class SpanScope
{
  public:
    SpanScope(Spans &spans, const char *name, std::uint32_t op)
        : spans_(spans), index_(spans.begin(name, op))
    {
    }
    ~SpanScope() { spans_.end(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Spans &spans_;
    int index_;
};

/** FNV-1a 64 over the virtual-time outputs of one job. */
class Digest
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ = (hash_ ^ ((value >> (8 * i)) & 0xffu)) * kPrime;
        }
    }
    void
    add(const std::string &text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        for (unsigned char c : text)
            hash_ = (hash_ ^ c) * kPrime;
    }
    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    std::uint64_t value() const { return hash_; }

  private:
    static constexpr std::uint64_t kPrime = 1099511628211ULL;
    std::uint64_t hash_ = 1469598103934665603ULL;
};

/**
 * The benchmark's own input generator (splitmix64), so the generated
 * scripts depend only on the seed and never on the program's Rng.
 */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /** Uniform integer in [lo, hi]. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(next() % span);
    }

  private:
    std::uint64_t state_;
};

/** One named value with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one repetition of a workload's fixed job produced. */
struct JobResult
{
    /** Digest of the virtual-time outputs (must repeat exactly). */
    std::uint64_t digest = 0;
    /** Operations attempted / failed (the error_rate rules). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Descriptions of the first few failures. */
    std::vector<std::string> failures;
    /** Host µs of every timed episode, in execution order. */
    std::vector<double> episode_us;
    /** Per-layer values of this repetition (counters and ratios). */
    std::vector<Metric> layer;
    /** Host ns spent in traced-only probes (excluded from wall time). */
    std::uint64_t probe_ns = 0;

    void
    fail(std::string what)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(std::move(what));
    }
};

/** Size knobs; the defaults are the full benchmark (the timed runs). */
struct Scale
{
    /** Corpus apps per job (sim) — 0 means all. */
    int apps = 0;
    /** Corpus scenarios sampled per job (mc). */
    int scenarios = 48;
    /**
     * Expect every app and scenario to be clean, so the known-dirty ones
     * must turn into failures (the benchmark's own self-test).
     */
    bool plant_wrong_expectation = false;

    bool
    isDefault() const
    {
        return apps == 0 && scenarios == 48 && !plant_wrong_expectation;
    }
};

/** A workload: seeded inputs built in setup(), then a fixed job. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input of the job (timed as setup_s; repeatable). */
    virtual void setup() = 0;
    /** Run the fixed job once. `spans` records only in a traced run. */
    virtual JobResult runJob(Spans &spans) = 0;
    /** Per-layer metrics of a traced run: counters, spans, probes. */
    virtual std::vector<Metric> perLayer(const JobResult &last,
                                         Spans &spans) = 0;
    /** Digest the default seed at the default scale must reproduce. */
    virtual std::uint64_t pinnedDigest() const = 0;
};

std::unique_ptr<Workload> makeSimWorkload(bool rchdroid, std::uint64_t seed,
                                          const Scale &scale);
std::unique_ptr<Workload> makeMcWorkload(std::uint64_t seed,
                                         const Scale &scale);

/** @name Span aggregation (report.cc)
 * @{
 */
/** Mean duration (µs, children included) of the spans called `name`. */
double spanMeanUs(const std::vector<Span> &spans, const char *name);
/** Self time (µs) of every span called `name`, in recording order. */
std::vector<double> spanSelfUs(const std::vector<Span> &spans,
                               const char *name);
/** Write the spans as Chrome trace-event JSON (Perfetto-loadable). */
bool writeChromeTrace(const std::vector<Span> &spans,
                      const std::string &path);
/** One-line-per-name self-time table on stdout. */
void printSelfTimes(const std::vector<Span> &spans);
/** @} */

/** Value at quantile q (0..1) of an unsorted sample, by nearest rank. */
double quantile(std::vector<double> values, double q);
/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

} // namespace e2ebench

#endif // RCHDROID_E2EBENCH_BENCH_H
