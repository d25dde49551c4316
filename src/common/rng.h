/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * A small splitmix64/xoshiro256** combination so simulations are exactly
 * reproducible across hosts and standard-library versions (std::mt19937
 * would also do, but its distributions are not portable).
 */

#ifndef PIMCACHE_COMMON_RNG_H_
#define PIMCACHE_COMMON_RNG_H_

#include <cstdint>

#include "common/hash.h"
#include "common/xassert.h"

namespace pim {

/** Portable deterministic PRNG (xoshiro256** seeded via splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto& word : state_) {
            word = mix64(x);
            x += 0x9e3779b97f4a7c15ULL;
        }
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        PIM_ASSERT(bound > 0);
        // Debiased via rejection sampling.
        const std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        PIM_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw with probability @p num / @p den. */
    bool
    chance(std::uint64_t num, std::uint64_t den)
    {
        return below(den) < num;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace pim

#endif // PIMCACHE_COMMON_RNG_H_
