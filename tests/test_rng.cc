/**
 * @file
 * Tests for the deterministic RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace hwdp;
using namespace hwdp::sim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 100000; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ChanceEdges)
{
    Rng r(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-1.0));
        EXPECT_TRUE(r.chance(2.0));
    }
}

TEST(Rng, BetweenIsInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = r.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BetweenInvertedPanics)
{
    Rng r(5);
    EXPECT_THROW(r.between(5, 3), PanicError);
}

TEST(Rng, RangeZeroPanics)
{
    Rng r(5);
    EXPECT_THROW(r.range(0), PanicError);
}

TEST(Rng, ExponentialMean)
{
    Rng r(17);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng r(19);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = r.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ForkedStreamsAreIndependentish)
{
    Rng a(42);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

class RngRangeBound : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngRangeBound, StaysBelowBound)
{
    Rng r(GetParam());
    std::uint64_t bound = GetParam();
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(r.range(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngRangeBound,
                         ::testing::Values(1, 2, 3, 7, 100, 1 << 20,
                                           (1ULL << 40) + 17));

TEST(Rng, BulkMatchesSequentialNext)
{
    for (std::uint64_t seed : {0ull, 1ull, 0x9e3779b97f4a7c15ull, ~0ull}) {
        for (std::size_t n : {std::size_t(0), std::size_t(1),
                              std::size_t(3), std::size_t(8),
                              std::size_t(17), std::size_t(1000)}) {
            // Groups of one draw: first and last are that draw.
            Rng a(seed), b(seed);
            std::vector<std::uint64_t> out(n + 1, 0xcc);
            a.bulk<1>(n, [&](std::size_t i, std::uint64_t z,
                             std::uint64_t last) {
                out[i] = z == last ? z : 0;
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], b.next())
                    << "seed " << seed << " i " << i;
            ASSERT_EQ(out[n], 0xccu);
            // The final state too: the next draws agree.
            ASSERT_EQ(a.next(), b.next());
            ASSERT_EQ(a.uniform(), b.uniform());

            // Groups of two consecutive draws.
            Rng c(seed), d(seed);
            std::vector<std::uint64_t> pairs(2 * n + 1, 0xcc);
            c.bulk<2>(n, [&](std::size_t i, std::uint64_t first,
                             std::uint64_t last) {
                pairs[2 * i] = first;
                pairs[2 * i + 1] = last;
            });
            for (std::size_t i = 0; i < 2 * n; ++i)
                ASSERT_EQ(pairs[i], d.next())
                    << "seed " << seed << " i " << i;
            ASSERT_EQ(pairs[2 * n], 0xccu);
            ASSERT_EQ(c.next(), d.next());
        }
    }
}

namespace {

/** uniform() < p as chance() computes it, for raw draw z. */
bool
chanceByDouble(std::uint64_t z, double p)
{
    return static_cast<double>(z >> 11) * 0x1.0p-53 < p;
}

} // namespace

TEST(Rng, ChanceThresholdIsExact)
{
    const double ps[] = {0.0,
                         0x1.0p-60,
                         0.03,
                         0.5,
                         0.96,
                         1.0 - 0x1.0p-53,
                         1.0,
                         0.1875, // p * 2^53 is an integer
                         0.3};
    Rng zs(2024);
    for (double p : ps) {
        std::uint64_t t = Rng::chanceThreshold(p);
        std::vector<std::uint64_t> probes = {0, 1, 2047, 2048, ~0ull,
                                             ~0ull << 11, 1ull << 63};
        if (t > 0 && t < (1ull << 53)) {
            // z >> 11 exactly at the threshold and one below it, at
            // both ends of the 11 discarded bits.
            for (std::uint64_t k : {t - 1, t, t + 1}) {
                probes.push_back(k << 11);
                probes.push_back(k << 11 | 2047);
            }
        }
        for (int i = 0; i < 20000; ++i)
            probes.push_back(zs.next());
        for (std::uint64_t z : probes)
            ASSERT_EQ(Rng::chanceOf(z, t), chanceByDouble(z, p))
                << "p " << p << " z " << z;

        // The mapping reproduces chance()'s stream, draw count
        // included.
        Rng a(7), b(7);
        for (int i = 0; i < 2000; ++i) {
            bool mapped = Rng::chanceDraws(p) ? Rng::chanceOf(a.next(), t)
                                              : p >= 1.0;
            ASSERT_EQ(mapped, b.chance(p)) << "p " << p << " i " << i;
        }
        ASSERT_EQ(a.next(), b.next()) << "p " << p;
    }
    // The threshold sits exactly at the boundary: an exact multiple of
    // 2^-53 maps to itself, anything else rounds up.
    EXPECT_EQ(Rng::chanceThreshold(0.1875), 3ull << 49);
    EXPECT_EQ(Rng::chanceThreshold(0x1.0p-60), 1u);
    EXPECT_EQ(Rng::chanceThreshold(1.0 - 0x1.0p-53), (1ull << 53) - 1);
    EXPECT_EQ(Rng::chanceThreshold(-1.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(2.0), 1ull << 53);
}

namespace {

/** High word of a 64x64 product from 32-bit limbs (no __int128). */
std::uint64_t
mulHiByLimbs(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t a_lo = a & 0xffffffff, a_hi = a >> 32;
    std::uint64_t b_lo = b & 0xffffffff, b_hi = b >> 32;
    std::uint64_t lo_lo = a_lo * b_lo, hi_lo = a_hi * b_lo;
    std::uint64_t lo_hi = a_lo * b_hi, hi_hi = a_hi * b_hi;
    std::uint64_t cross = (lo_lo >> 32) + (hi_lo & 0xffffffff) + lo_hi;
    return hi_hi + (hi_lo >> 32) + (cross >> 32);
}

} // namespace

TEST(Rng, RangeOfIsTheWideProduct)
{
    const std::uint64_t bounds[] = {1,
                                    8,
                                    24576,
                                    (1ull << 32) - 1,
                                    1ull << 32,
                                    (1ull << 32) + 1,
                                    1ull << 63,
                                    ~0ull};
    Rng zs(99);
    for (std::uint64_t bound : bounds) {
        std::vector<std::uint64_t> probes = {0, 1, (1ull << 32) - 1,
                                             1ull << 32, 1ull << 63,
                                             ~0ull - 1, ~0ull};
        for (int i = 0; i < 20000; ++i)
            probes.push_back(zs.next());
        for (std::uint64_t z : probes) {
            std::uint64_t r = Rng::rangeOf(z, bound);
            ASSERT_EQ(r, static_cast<std::uint64_t>(
                             static_cast<unsigned __int128>(z) * bound >>
                             64))
                << "bound " << bound << " z " << z;
            ASSERT_EQ(r, mulHiByLimbs(z, bound))
                << "bound " << bound << " z " << z;
            ASSERT_LT(r, bound);
        }
        // range() is rangeOf() of the next draw.
        Rng a(bound), b(bound);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(Rng::rangeOf(a.next(), bound), b.range(bound));
    }
}
