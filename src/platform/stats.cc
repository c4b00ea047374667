#include "platform/stats.h"

#include <algorithm>
#include <cmath>

#include "platform/logging.h"

namespace rchdroid {

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::coefficientOfVariation() const
{
    if (count_ == 0 || mean_ == 0.0)
        return 0.0;
    return stddev() / std::abs(mean_);
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
SampleSet::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double
SampleSet::percentile(double p) const
{
    RCH_ASSERT(p >= 0.0 && p <= 100.0, "percentile p=", p);
    if (samples_.empty())
        return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
SampleSet::min() const
{
    if (samples_.empty())
        return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
SampleSet::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

} // namespace rchdroid
