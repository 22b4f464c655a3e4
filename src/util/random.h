/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The whole simulator must be reproducible from a single seed: the trace
 * generator, the randomized policies, and the failure-injection tests all
 * draw from Rng instances derived deterministically from named streams, so
 * results never depend on std::random_device or on evaluation order across
 * translation units.
 */

#ifndef NPS_UTIL_RANDOM_H
#define NPS_UTIL_RANDOM_H

#include <cstdint>
#include <string_view>

namespace nps {
namespace util {

/**
 * A small, fast, deterministic PRNG (xoshiro256** with SplitMix64 seeding).
 *
 * Not cryptographic; statistically solid for simulation workloads.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. The same seed always yields the same
     * stream on every platform. */
    explicit Rng(uint64_t seed);

    /**
     * Construct a named substream: hashes @p stream_name into the seed so
     * that, e.g., the "trace" stream and the "policy" stream of the same
     * experiment never share state.
     */
    Rng(uint64_t seed, std::string_view stream_name);

    /** @return the next raw 64-bit value. */
    uint64_t next();

    /** @return a double uniformly distributed in [0, 1). */
    double uniform();

    /** @return a double uniformly distributed in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return an integer uniformly distributed in [0, n). @pre n > 0 */
    uint64_t below(uint64_t n);

    /** @return a standard normal deviate (Box-Muller, no caching). */
    double gaussian();

    /** @return a normal deviate with the given mean and stddev. */
    double gaussian(double mean, double stddev);

    /** @return true with probability @p p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** Copy the raw 256-bit generator state out (checkpointing). */
    void
    getState(uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = state_[i];
    }

    /** Overwrite the raw generator state (checkpoint restore). */
    void
    setState(const uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = in[i];
    }

    /** Fisher-Yates shuffle of [first, last). */
    template <typename It>
    void
    shuffle(It first, It last)
    {
        auto n = static_cast<uint64_t>(last - first);
        for (uint64_t i = n; i > 1; --i) {
            uint64_t j = below(i);
            using std::swap;
            swap(first[i - 1], first[j]);
        }
    }

  private:
    uint64_t state_[4];
};

/** 64-bit FNV-1a hash, used to derive named substream seeds. */
uint64_t hashString(std::string_view s);

/** SplitMix64's Weyl increment (2^64 divided by the golden ratio). */
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/**
 * SplitMix64 output for state @p x: advance by kSplitMixGamma, then
 * finalize. Decorrelates nearby inputs; also seeds Rng and keys the
 * counter-mode streams below.
 */
inline uint64_t
mix64(uint64_t x)
{
    x += kSplitMixGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Counter-mode stream key for one (@p kind, @p a, @p b) query under
 * @p seed: a pure function of its arguments, so a fault or netem verdict
 * seeded from it is identical on every thread, process and repeat.
 */
inline uint64_t
counterKey(uint64_t seed, uint64_t kind, uint64_t a, uint64_t b)
{
    return mix64(mix64(mix64(seed ^ (kind << 56)) ^ a) ^ b);
}

} // namespace util
} // namespace nps

#endif // NPS_UTIL_RANDOM_H
