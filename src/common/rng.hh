/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic decision in the system (probabilistic cache insertion,
 * random replacement, workload synthesis) draws from seeded Rng instances
 * so that a given configuration reproduces bit-identical results.
 */

#ifndef ABNDP_COMMON_RNG_HH
#define ABNDP_COMMON_RNG_HH

#include <cstdint>

namespace abndp
{

/** SplitMix64 finalizer; also used as a general 64-bit mixing hash. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** generator. Small, fast, and high quality; seeded via
 * SplitMix64 per Blackman/Vigna's recommendation.
 */
class Rng
{
  public:
    /** Default seed shared by all ABNDP components unless overridden. */
    static constexpr std::uint64_t defaultSeed = 0xab9dbf5eed2023ULL;

    explicit Rng(std::uint64_t seed = defaultSeed) { reseed(seed); }

    /** Re-initialize the full state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9e3779b97f4a7c15ULL;
            word = mix64(x);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation (biased by at
        // most 2^-64, fine for simulation purposes).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /**
     * Uniform double in [0, 1): exactly (next() >> 11) * 2^-53.
     * makeRmatGraph compares raw draws against thresholds derived
     * from this form, so keep it.
     */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Standard normal via Box-Muller (one value per call). */
    double gaussian();

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace abndp

#endif // ABNDP_COMMON_RNG_HH
