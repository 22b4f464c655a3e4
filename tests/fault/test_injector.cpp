/**
 * @file
 * FaultInjector: the runtime query surface. Every query must be a pure
 * function of (schedule, seed, target, tick) — that purity is what makes
 * the chaos layer safe to call from sharded worker threads — so the
 * suite leans on repeat-query determinism as much as on the matching
 * semantics themselves.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault.h"
#include "fault/injector.h"

namespace {

using namespace nps;
using fault::DegradeStats;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultSchedule;
using fault::Level;
using fault::Link;

FaultInjector
makeInjector(const std::string &script, uint64_t seed = 1)
{
    return FaultInjector(FaultSchedule::parse(script), seed);
}

TEST(FaultInjector, OutageMatchesLevelIdAndWindow)
{
    FaultInjector inj = makeInjector("outage em 1 100 200\n");
    EXPECT_FALSE(inj.down(Level::EM, 1, 99));
    EXPECT_TRUE(inj.down(Level::EM, 1, 100));
    EXPECT_TRUE(inj.down(Level::EM, 1, 199));
    EXPECT_FALSE(inj.down(Level::EM, 1, 200));
    // Wrong id or wrong level never matches.
    EXPECT_FALSE(inj.down(Level::EM, 0, 150));
    EXPECT_FALSE(inj.down(Level::SM, 1, 150));
    EXPECT_FALSE(inj.down(Level::GM, 0, 150));
}

TEST(FaultInjector, WildcardIdMatchesEveryInstance)
{
    FaultInjector inj = makeInjector("outage sm * 10 20\n");
    for (long id : {0l, 1l, 5l, 42l})
        EXPECT_TRUE(inj.down(Level::SM, id, 15)) << "id " << id;
    EXPECT_FALSE(inj.down(Level::EC, 0, 15));
}

TEST(FaultInjector, DropProbabilityOneDropsEverySend)
{
    FaultInjector inj = makeInjector("drop em-sm 2 0 100\n");
    for (size_t tick = 0; tick < 100; tick += 5) {
        EXPECT_TRUE(inj.budgetDropped(Link::EmToSm, 2, tick));
        EXPECT_FALSE(inj.budgetDropped(Link::EmToSm, 3, tick));
        EXPECT_FALSE(inj.budgetDropped(Link::GmToSm, 2, tick));
    }
    EXPECT_FALSE(inj.budgetDropped(Link::EmToSm, 2, 100));
}

TEST(FaultInjector, DropProbabilityZeroDropsNothing)
{
    FaultInjector inj = makeInjector("drop gm-em * 0 1000 0.0\n");
    for (size_t tick = 0; tick < 1000; tick += 10)
        EXPECT_FALSE(inj.budgetDropped(Link::GmToEm, 0, tick));
}

TEST(FaultInjector, FractionalDropIsDeterministicAndRoughlyCalibrated)
{
    FaultInjector inj = makeInjector("drop gm-sm * 0 10000 0.3\n", 7);
    size_t dropped = 0;
    for (size_t tick = 0; tick < 10000; ++tick) {
        bool a = inj.budgetDropped(Link::GmToSm, 1, tick);
        bool b = inj.budgetDropped(Link::GmToSm, 1, tick);
        EXPECT_EQ(a, b) << "coin flip not reproducible at tick " << tick;
        if (a)
            ++dropped;
    }
    // 10000 Bernoulli(0.3) draws: expect ~3000, allow a wide margin.
    EXPECT_GT(dropped, 2500u);
    EXPECT_LT(dropped, 3500u);
}

TEST(FaultInjector, DropCoinsDifferAcrossTargetsAndSeeds)
{
    FaultInjector a = makeInjector("drop gm-sm * 0 2000 0.5\n", 1);
    FaultInjector b = makeInjector("drop gm-sm * 0 2000 0.5\n", 2);
    size_t diff_target = 0, diff_seed = 0;
    for (size_t tick = 0; tick < 2000; ++tick) {
        if (a.budgetDropped(Link::GmToSm, 0, tick) !=
            a.budgetDropped(Link::GmToSm, 1, tick))
            ++diff_target;
        if (a.budgetDropped(Link::GmToSm, 0, tick) !=
            b.budgetDropped(Link::GmToSm, 0, tick))
            ++diff_seed;
    }
    // Distinct targets and distinct seeds must see distinct coin streams.
    EXPECT_GT(diff_target, 500u);
    EXPECT_GT(diff_seed, 500u);
}

TEST(FaultInjector, StaleMatchesLinkAndChild)
{
    FaultInjector inj = makeInjector("stale gm-em 0 50 60\n");
    EXPECT_TRUE(inj.budgetStale(Link::GmToEm, 0, 55));
    EXPECT_FALSE(inj.budgetStale(Link::GmToEm, 1, 55));
    EXPECT_FALSE(inj.budgetStale(Link::EmToSm, 0, 55));
    EXPECT_FALSE(inj.budgetStale(Link::GmToEm, 0, 60));
}

TEST(FaultInjector, StuckAndFrozenMatchServerId)
{
    FaultInjector inj = makeInjector("stuck 3 10 20\nfreeze 4 10 20\n");
    EXPECT_TRUE(inj.pstateStuck(3, 15));
    EXPECT_FALSE(inj.pstateStuck(4, 15));
    EXPECT_TRUE(inj.utilFrozen(4, 15));
    EXPECT_FALSE(inj.utilFrozen(3, 15));
}

TEST(FaultInjector, UtilNoiseIsZeroOutsideAndDeterministicInside)
{
    FaultInjector inj = makeInjector("noise 2 100 200 0.1\n", 3);
    EXPECT_EQ(inj.utilNoise(2, 99), 0.0);
    EXPECT_EQ(inj.utilNoise(2, 200), 0.0);
    EXPECT_EQ(inj.utilNoise(1, 150), 0.0);

    double sum = 0.0, sumsq = 0.0;
    size_t n = 0, nonzero = 0;
    for (size_t tick = 100; tick < 200; ++tick) {
        double d1 = inj.utilNoise(2, tick);
        double d2 = inj.utilNoise(2, tick);
        EXPECT_EQ(d1, d2) << "noise not reproducible at tick " << tick;
        sum += d1;
        sumsq += d1 * d1;
        ++n;
        if (d1 != 0.0)
            ++nonzero;
    }
    EXPECT_GT(nonzero, 90u);
    // Sample mean near 0 and sample sigma near 0.1, loose 100-draw bounds.
    EXPECT_LT(std::abs(sum / n), 0.05);
    double sigma = std::sqrt(sumsq / n - (sum / n) * (sum / n));
    EXPECT_GT(sigma, 0.05);
    EXPECT_LT(sigma, 0.2);
}

TEST(FaultInjector, ActiveCountTracksOverlap)
{
    FaultInjector inj = makeInjector(
        "outage sm 0 10 30\nstuck 1 20 40\nfreeze 2 25 26\n");
    EXPECT_EQ(inj.schedule().activeCount(5), 0u);
    EXPECT_EQ(inj.schedule().activeCount(15), 1u);
    EXPECT_EQ(inj.schedule().activeCount(25), 3u);
    EXPECT_EQ(inj.schedule().activeCount(35), 1u);
    EXPECT_EQ(inj.schedule().activeCount(40), 0u);
}

TEST(FaultInjector, EmptyScheduleAnswersNoToEverything)
{
    FaultInjector inj(FaultSchedule(), 1);
    for (size_t tick : {0u, 1u, 100u}) {
        EXPECT_FALSE(inj.down(Level::GM, 0, tick));
        EXPECT_FALSE(inj.budgetDropped(Link::EmToSm, 0, tick));
        EXPECT_FALSE(inj.budgetStale(Link::GmToEm, 0, tick));
        EXPECT_FALSE(inj.pstateStuck(0, tick));
        EXPECT_FALSE(inj.utilFrozen(0, tick));
        EXPECT_EQ(inj.utilNoise(0, tick), 0.0);
        EXPECT_EQ(inj.schedule().activeCount(tick), 0u);
    }
}

TEST(DegradeStatsTest, AccumulatesAndReportsNone)
{
    DegradeStats a;
    EXPECT_TRUE(a.none());
    a.outage_ticks = 3;
    a.dropped_budgets = 2;
    EXPECT_FALSE(a.none());

    DegradeStats b;
    b.outage_ticks = 1;
    b.restarts = 4;
    b += a;
    EXPECT_EQ(b.outage_ticks, 4u);
    EXPECT_EQ(b.restarts, 4u);
    EXPECT_EQ(b.dropped_budgets, 2u);
}

} // namespace
