/**
 * @file
 * Statistics accumulators used by the experiment harness.
 *
 * The paper reports "the mean of at least five runs" with "standard
 * deviation ... less than 5% of the mean"; these helpers compute exactly
 * those aggregates plus the percentiles the trace benches plot.
 */
#ifndef RCHDROID_PLATFORM_STATS_H
#define RCHDROID_PLATFORM_STATS_H

#include <cstddef>
#include <vector>

namespace rchdroid {

/**
 * Online accumulator of count / mean / variance / min / max.
 *
 * Uses Welford's algorithm so long traces stay numerically stable.
 */
class RunningStat
{
  public:
    /** Fold one sample into the aggregate. */
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Sample standard deviation (n-1 denominator). */
    double stddev() const;
    /** Population variance helper used by stddev(). */
    double variance() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Stddev as a fraction of the mean (the paper's <5% criterion). */
    double coefficientOfVariation() const;

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A stored sample set supporting percentiles.
 */
class SampleSet
{
  public:
    void add(double x) { samples_.push_back(x); }
    std::size_t count() const { return samples_.size(); }
    double mean() const;
    double stddev() const;
    /** Linear-interpolated percentile; p in [0, 100]. */
    double percentile(double p) const;
    double min() const;
    double max() const;
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

} // namespace rchdroid

#endif // RCHDROID_PLATFORM_STATS_H
