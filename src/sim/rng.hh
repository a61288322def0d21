/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * SplitMix64 is used as the core generator: it is tiny, passes BigCrush
 * when used as a mixer, and — unlike std::mt19937 — its sequences are
 * reproducible across standard-library implementations, which keeps
 * experiment output stable.
 */

#ifndef HWDP_SIM_RNG_HH
#define HWDP_SIM_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hwdp::sim {

class Serializer;

/** SplitMix64 generator with convenience distributions. */
class Rng
{
  public:
    /** SplitMix64's state increment (the golden-ratio constant). */
    static constexpr std::uint64_t goldenGamma = 0x9e3779b97f4a7c15ULL;

    explicit Rng(std::uint64_t seed = goldenGamma) : state(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t next() { return mix(state += goldenGamma); }

    // The uniform distributions are defined inline: workloads draw
    // several per operation, and the compute bursts map bulk draws
    // through the same integer forms (rangeOf, chanceOf) below.

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    range(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            rangePanic();
        return rangeOf(next(), bound);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform() { return unitOf(next()); }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    // Bulk draws. SplitMix64 is counter-based: draw k (k = 1, 2, ...)
    // returns mix(state + k * goldenGamma), so a run of draws has no
    // loop-carried dependency and can be generated as one vector loop.
    // The mappings below turn raw draws into the values range(),
    // uniform() and chance() would have produced from them, exactly.

    /**
     * Pass the next n * D raw draws (D = 1 or 2) to f in groups of D:
     * f(i, first, last) gets draws i * D + 1 and i * D + D of the run,
     * one draw twice when D == 1. Then advance the state past them:
     * the same values and final state as n * D next() calls. The loop
     * is `omp simd` (the build passes -fopenmp-simd; GCC's -O2 cost
     * model leaves it scalar otherwise), so f runs in vector lanes and
     * must not depend on earlier iterations; the mappings below are
     * lane-safe.
     */
    template <unsigned D, class F>
    void
    bulk(std::size_t n, F &&f)
    {
        static_assert(D == 1 || D == 2, "groups of one or two draws");
        std::uint64_t x = state;
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
            x += D * goldenGamma;
            const std::uint64_t last = mix(x);
            f(i, D == 1 ? last : mix(x - goldenGamma), last);
        }
        state = x;
    }

    /**
     * Fill @p out with @p n Bernoulli draws, 1 with probability @p p:
     * the exact decision sequence and final generator state of n
     * sequential chance(p) calls, through the bulk draw and the
     * integer form of chance().
     */
    void
    fill(double p, std::uint8_t *out, std::size_t n)
    {
        if (!chanceDraws(p)) {
            // chance() consumes no state for the degenerate
            // probabilities.
            const std::uint8_t v = p >= 1.0;
            for (std::size_t i = 0; i < n; ++i)
                out[i] = v;
            return;
        }
        const std::uint64_t t = chanceThreshold(p);
        bulk<1>(n,
                [out, t](std::size_t i, std::uint64_t z, std::uint64_t) {
                    out[i] = chanceOf(z, t);
                });
    }

    /** SplitMix64's output function of an incremented state. */
    static std::uint64_t
    mix(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /**
     * range(bound) of raw draw @p z: multiply-shift (Lemire), with
     * bias below 2^-64 * bound, negligible for simulation purposes.
     * The high word of the 64x64 product is assembled from 32-bit
     * limbs, exactly for every z and bound: no step overflows, and
     * unlike a 128-bit multiply it vectorises (bulk() lanes map their
     * draws with it). Unlike range(), a zero bound is not caught.
     */
    static std::uint64_t
    rangeOf(std::uint64_t z, std::uint64_t bound)
    {
        const std::uint64_t z_lo = static_cast<std::uint32_t>(z);
        const std::uint64_t z_hi = z >> 32;
        const std::uint64_t b_lo = static_cast<std::uint32_t>(bound);
        const std::uint64_t b_hi = bound >> 32;
        const std::uint64_t lo_hi = z_lo * b_hi;
        const std::uint64_t hi_lo = z_hi * b_lo;
        // Below 3 * 2^32: the carry out of the low word.
        const std::uint64_t mid = (z_lo * b_lo >> 32) +
                                  static_cast<std::uint32_t>(lo_hi) +
                                  static_cast<std::uint32_t>(hi_lo);
        return z_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32);
    }

    /** uniform() of raw draw @p z: the top 53 bits, scaled. */
    static double
    unitOf(std::uint64_t z)
    {
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    }

    /** Whether chance(p) consumes a draw (not for p <= 0 or p >= 1). */
    static bool chanceDraws(double p) { return !(p <= 0.0) && !(p >= 1.0); }

    /**
     * Integer threshold t with chanceOf(z, t) == (unitOf(z) < p) for
     * every raw draw z. unitOf(z) is (z >> 11) * 2^-53 with both
     * factors exact, so unitOf(z) < p is (z >> 11) < p * 2^53, where
     * p * 2^53 is exact too (a power-of-two scale); for the integer
     * z >> 11 that is (z >> 11) < ceil(p * 2^53). p <= 0 and NaN give
     * 0 (never), p >= 1 gives 2^53 (always).
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t(1) << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** chance() of raw draw @p z, given chanceThreshold(p). */
    static bool
    chanceOf(std::uint64_t z, std::uint64_t threshold)
    {
        return (z >> 11) < threshold;
    }

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Normal value via Box-Muller (mean, stddev). */
    double normal(double mean, double stddev);

    /** Derive an independent stream (for per-component RNGs). */
    Rng fork();

    /** Checkpoint the stream position and the Box-Muller spare. */
    void serialize(Serializer &s);

  private:
    std::uint64_t state;
    bool haveSpare = false;
    double spare = 0.0;

    /** Out-of-line, off range()'s inline fast path. */
    [[noreturn]] void rangePanic() const;
};

} // namespace hwdp::sim

#endif // HWDP_SIM_RNG_HH
