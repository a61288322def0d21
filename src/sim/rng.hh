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

    // The uniform distributions are defined inline: workload compute
    // bursts draw two of them per simulated data reference, so the
    // call overhead is measurable on the whole-simulation profile.

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

    /** Store the next @p n raw draws in @p out (bulk next()). */
    void
    fillRaw(std::uint64_t *out, std::size_t n)
    {
        bulk(n, [out](std::size_t i, std::uint64_t z) { out[i] = z; });
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
        bulk(n, [out, t](std::size_t i, std::uint64_t z) {
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
     * Unlike range(), a zero bound is not caught.
     */
    static std::uint64_t
    rangeOf(std::uint64_t z, std::uint64_t bound)
    {
        return static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(z) * bound >> 64);
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

    /**
     * Pass the next @p n raw draws to f(i, z), i = 0..n-1, then
     * advance the state past them: the same values and final state as
     * n next() calls. The loop is `omp simd` (the build passes
     * -fopenmp-simd; GCC's -O2 cost model leaves it scalar otherwise),
     * so f must not depend on earlier iterations.
     */
    template <class F>
    void
    bulk(std::size_t n, F &&f)
    {
        std::uint64_t x = state;
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i) {
            x += goldenGamma;
            f(i, mix(x));
        }
        state = x;
    }

    /** Out-of-line so the inline fast path stays branch + mul. */
    [[noreturn]] void rangePanic() const;
};

} // namespace hwdp::sim

#endif // HWDP_SIM_RNG_HH
