/**
 * @file
 * Tests for the deterministic PRNG: reproducibility, ranges, statistical
 * sanity, and the named-substream derivation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/random.h"

namespace {

using nps::util::Rng;
using nps::util::hashString;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(42);
    Rng b(43);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, NamedStreamsAreIndependent)
{
    Rng a(7, "trace");
    Rng b(7, "policy");
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, NamedStreamIsDeterministic)
{
    Rng a(7, "trace");
    Rng b(7, "trace");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanAndVariance)
{
    Rng rng(2);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        sum += u;
        sum_sq += u * u;
    }
    double mean = sum / n;
    double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.5, 0.01);
    EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-5.0, 5.0);
        EXPECT_GE(u, -5.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(4);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(5);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(10)];
    for (int c : counts) {
        EXPECT_GT(c, n / 10 * 0.9);
        EXPECT_LT(c, n / 10 * 1.1);
    }
}

TEST(Rng, BelowOne)
{
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(7);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    double mean = sum / n;
    double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(8);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-0.5));
        EXPECT_TRUE(rng.bernoulli(1.5));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(10);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<int> orig = v;
    rng.shuffle(v.begin(), v.end());
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyShuffles)
{
    Rng rng(12);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = i;
    std::vector<int> orig = v;
    rng.shuffle(v.begin(), v.end());
    EXPECT_NE(v, orig);
}

TEST(HashString, DistinctInputsDistinctHashes)
{
    std::set<uint64_t> hashes;
    hashes.insert(hashString("a"));
    hashes.insert(hashString("b"));
    hashes.insert(hashString("ab"));
    hashes.insert(hashString("ba"));
    hashes.insert(hashString(""));
    EXPECT_EQ(hashes.size(), 5u);
}

TEST(HashString, Deterministic)
{
    EXPECT_EQ(hashString("trace"), hashString("trace"));
}

} // namespace

namespace {

// SplitMix64 and the counter-mode keys built on it feed every fault and
// netem verdict and seed every Rng; their values are part of the
// reproducibility contract, so they are pinned bit for bit.
TEST(Mix64, MatchesSplitMix64Reference)
{
    // The first SplitMix64 output for state 0.
    EXPECT_EQ(nps::util::mix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(nps::util::mix64(12345), 0x22118258a9d111a0ull);
}

TEST(Mix64, RngStateIsTheSplitMixExpansionOfTheSeed)
{
    uint64_t state[4];
    Rng(0).getState(state);
    EXPECT_EQ(state[0], 0xe220a8397b1dcdafull);
    EXPECT_EQ(state[1], 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(state[2], 0x06c45d188009454full);
    EXPECT_EQ(state[3], 0xf88bb8a8724c81ecull);
}

TEST(CounterKey, IsPinned)
{
    using nps::util::counterKey;
    EXPECT_EQ(counterKey(1, 0, 9, 10), 0xccfba3c98cd7a21aull);
    EXPECT_EQ(counterKey(42, 1, 7 * 4 + 2, 500), 0xe84ffa6844fcf021ull);
    EXPECT_EQ(counterKey(7, 3, 0xffffffffull, (1ull << 40) + 3),
              0xf1411e2e6052e483ull);
}

} // namespace
