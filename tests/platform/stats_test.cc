/**
 * @file
 * RunningStat and SampleSet: aggregation correctness.
 */
#include <gtest/gtest.h>

#include "platform/stats.h"

namespace rchdroid {
namespace {

TEST(RunningStat, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
}

TEST(RunningStat, KnownSequence)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    // Sample variance of this classic sequence is 32/7.
    EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStat, CoefficientOfVariation)
{
    RunningStat stat;
    // The paper's replication criterion: stddev below 5% of the mean.
    for (double x : {100.0, 101.0, 99.0, 100.5, 99.5})
        stat.add(x);
    EXPECT_LT(stat.coefficientOfVariation(), 0.05);
}

TEST(SampleSet, PercentileInterpolates)
{
    SampleSet set;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        set.add(x);
    EXPECT_DOUBLE_EQ(set.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(set.percentile(100), 40.0);
    EXPECT_DOUBLE_EQ(set.percentile(50), 25.0);
    EXPECT_NEAR(set.percentile(25), 17.5, 1e-12);
}

TEST(SampleSet, SingleSample)
{
    SampleSet set;
    set.add(42.0);
    EXPECT_DOUBLE_EQ(set.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(set.percentile(99), 42.0);
    EXPECT_DOUBLE_EQ(set.mean(), 42.0);
    EXPECT_DOUBLE_EQ(set.stddev(), 0.0);
}

TEST(SampleSet, MinMaxMean)
{
    SampleSet set;
    for (double x : {5.0, -1.0, 3.0})
        set.add(x);
    EXPECT_DOUBLE_EQ(set.min(), -1.0);
    EXPECT_DOUBLE_EQ(set.max(), 5.0);
    EXPECT_NEAR(set.mean(), 7.0 / 3.0, 1e-12);
}

} // namespace
} // namespace rchdroid
