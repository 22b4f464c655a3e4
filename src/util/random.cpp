#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace nps {
namespace util {

namespace {

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

uint64_t
hashString(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

Rng::Rng(uint64_t seed)
{
    // SplitMix64 expands the one seed into the xoshiro state.
    for (auto &word : state_) {
        word = mix64(seed);
        seed += kSplitMixGamma;
    }
}

Rng::Rng(uint64_t seed, std::string_view stream_name)
    : Rng(seed ^ hashString(stream_name))
{
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    if (n == 0)
        panic("Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (0 - n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::gaussian()
{
    // Box-Muller; draw until u1 is nonzero so log() is finite.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace util
} // namespace nps
