/** @file Unit tests for stats primitives and the deterministic RNG. */

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "sim/stats.hpp"

using namespace retcon;

TEST(AvgMax, EmptyIsZero)
{
    AvgMax a;
    EXPECT_DOUBLE_EQ(a.avg(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(AvgMax, TracksAverageAndMax)
{
    AvgMax a;
    a.sample(2);
    a.sample(4);
    a.sample(12);
    EXPECT_DOUBLE_EQ(a.avg(), 6.0);
    EXPECT_DOUBLE_EQ(a.max(), 12.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(AvgMax, MaxCorrectForAllNegativeSamples)
{
    AvgMax a;
    a.sample(-7);
    a.sample(-3);
    a.sample(-12);
    EXPECT_DOUBLE_EQ(a.max(), -3.0);
    EXPECT_DOUBLE_EQ(a.avg(), -22.0 / 3.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(3);
    h.sample(99);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, Percentile)
{
    Histogram h(16);
    for (std::uint64_t v = 0; v < 10; ++v)
        h.sample(v);
    EXPECT_LE(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(Histogram, NegativeSamplesLandInUnderflow)
{
    Histogram h(4);
    h.sample(-1);
    h.sample(-100);
    h.sample(2);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.total(), 3u);
    // Negatives sit below every bucket for percentile purposes.
    EXPECT_EQ(h.percentile(1.0), 2u);
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    s.add("commits");
    s.add("commits", 2);
    EXPECT_DOUBLE_EQ(s.get("commits"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("absent"), 0.0);
}

TEST(Xoshiro, DeterministicForSameSeed)
{
    Xoshiro a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge)
{
    Xoshiro a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Xoshiro, BelowStaysInRange)
{
    Xoshiro r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Xoshiro, RangeInclusive)
{
    Xoshiro r(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        hit_lo |= v == 3;
        hit_hi |= v == 5;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Xoshiro, PerThreadStreamsIndependent)
{
    Xoshiro a = Xoshiro::forThread(1, 0);
    Xoshiro b = Xoshiro::forThread(1, 1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Xoshiro, UniformInUnitInterval)
{
    Xoshiro r(11);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Xoshiro, ChanceExtremes)
{
    Xoshiro r(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0, 100));
        EXPECT_TRUE(r.chance(100, 100));
    }
}
