/**
 * @file
 * Netem chaos campaigns over the full coordinator (the network analogue
 * of tests/fault/test_chaos.cpp): invariants that must hold for whole
 * runs under scripted wire faults —
 *
 *   (a) a partition outliving the budget lease drives the documented
 *       ladder (lease expiry → fallback cap) and, once healed, the run
 *       recovers: past heal + one lease the degraded run violates its
 *       caps no more than a fault-free run;
 *   (b) under the same netem campaign, the coordinated stack leaks no
 *       more violations than the uncoordinated one (the paper's
 *       Figure 6 claim, extended to network degradation);
 *   (c) a netem run is bit-identical across engine thread counts —
 *       every verdict is keyed by (seed, link, seq) and every late
 *       delivery lands at the tick barrier, never mid-tick;
 *   (d) an attached-but-empty netem layer is bit-transparent.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bus/transport.h"
#include "common/fixtures.h"
#include "core/coordinator.h"
#include "core/scenarios.h"
#include "fault/netem/netem.h"
#include "fault/netem/transport.h"
#include "model/machine.h"

namespace {

using namespace nps;

constexpr size_t kTicks = 900;
// gm-em dark for 200 ticks (beyond the 150-tick lease), plus a latency
// storm with loss pressure on the em-sm fan-out. All clear by tick 400.
const char *kCampaign =
    "partition gm-em 150 350\n"
    "delay em-sm 100 400 1 3\n";
constexpr size_t kHealed = 350;
constexpr size_t kLease = 150;
constexpr size_t kRecovered = kHealed + kLease + 50;

struct NetemRun
{
    std::vector<double> power;
    std::vector<double> perf;
    sim::MetricsSummary summary;
    fault::DegradeStats degrade;
};

NetemRun
runScenario(core::Scenario scenario, const std::string &script,
            unsigned threads, size_t deadline = 0)
{
    core::CoordinationConfig cfg = core::scenarioConfig(scenario);
    cfg.threads = threads;
    sim::Topology topo{6, 1, 4};
    core::Coordinator coord(cfg, topo, model::bladeA(),
                            nps_test::flatTraces(6, 0.8, kTicks + 8),
                            /*keep_series=*/true);
    bus::InProcTransport inproc;
    fault::netem::NetemTransport netem(
        fault::netem::NetemModel(fault::netem::NetemSchedule::parse(script),
                                 /*seed=*/7, deadline),
        &inproc);
    coord.attachTransport(&netem, bus::localOwner());
    fault::netem::NetemGate gate(netem);
    coord.engine().setTickSource(&gate);
    coord.run(kTicks);
    coord.engine().setTickSource(nullptr);
    return {coord.metrics().powerSeries(), coord.metrics().perfSeries(),
            coord.summary(), coord.degradeStats()};
}

/** Fraction of ticks in [from, to) whose group power exceeds @p cap. */
double
violationRate(const std::vector<double> &power, size_t from, size_t to,
              double cap)
{
    size_t hits = 0, n = 0;
    for (size_t t = from; t < to && t < power.size(); ++t) {
        ++n;
        if (power[t] > cap + 1e-9)
            ++hits;
    }
    return n == 0 ? 0.0 : static_cast<double>(hits) / n;
}

double
groupCap()
{
    sim::Topology topo{6, 1, 4};
    core::Coordinator coord(core::coordinatedConfig(), topo,
                            model::bladeA(),
                            nps_test::flatTraces(6, 0.8, 8));
    return coord.cluster().capGrp();
}

class NetemCampaignTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(NetemCampaignTest, PartitionDrivesLeaseLadderThenRecovers)
{
    unsigned threads = GetParam();
    NetemRun faulted =
        runScenario(core::Scenario::Coordinated, kCampaign, threads);
    NetemRun clean = runScenario(core::Scenario::Coordinated, "", threads);

    // The partition outlives the lease: the ladder must fire end to end.
    EXPECT_GT(faulted.degrade.netem_partition_drops, 0u)
        << "threads=" << threads;
    EXPECT_GT(faulted.degrade.lease_expiries, 0u) << "threads=" << threads;
    EXPECT_GT(faulted.degrade.lease_fallback_steps, 0u)
        << "threads=" << threads;
    // And the latency storm exercised the virtual wire.
    EXPECT_GT(faulted.degrade.netem_delayed, 0u) << "threads=" << threads;
    EXPECT_GT(faulted.degrade.netem_late_deliveries, 0u)
        << "threads=" << threads;

    // Property (a): past heal + one lease, enforcement is back.
    double cap = groupCap();
    double after_faulted =
        violationRate(faulted.power, kRecovered, kTicks, cap);
    double after_clean =
        violationRate(clean.power, kRecovered, kTicks, cap);
    EXPECT_LE(after_faulted, after_clean + 1e-9) << "threads=" << threads;
}

TEST_P(NetemCampaignTest, CoordinatedLeaksFewerViolationsThanUncoordinated)
{
    unsigned threads = GetParam();
    NetemRun coord =
        runScenario(core::Scenario::Coordinated, kCampaign, threads);
    NetemRun uncoord =
        runScenario(core::Scenario::Uncoordinated, kCampaign, threads);

    // Property (b): same wire chaos, same demand — coordination with
    // leases must not leak more violations than the solo stack.
    EXPECT_LE(coord.summary.sm_violation,
              uncoord.summary.sm_violation + 1e-9)
        << "threads=" << threads;
    EXPECT_LE(coord.summary.gm_violation,
              uncoord.summary.gm_violation + 1e-9)
        << "threads=" << threads;
}

TEST_P(NetemCampaignTest, DeadlineExpiryFeedsTheDropLadder)
{
    unsigned threads = GetParam();
    // Jittered delay 1..5 against a 2-tick grant deadline: draws above
    // the deadline degrade to drops at the sender.
    NetemRun run = runScenario(core::Scenario::Coordinated,
                               "delay em-sm 100 500 1 4", threads,
                               /*deadline=*/2);
    EXPECT_GT(run.degrade.netem_expired, 0u) << "threads=" << threads;
    EXPECT_GT(run.degrade.netem_delayed, 0u) << "threads=" << threads;
    EXPECT_EQ(run.degrade.netem_expired + run.degrade.netem_partition_drops,
              run.degrade.dropped_budgets)
        << "threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(Threads, NetemCampaignTest,
                         ::testing::Values(1u, 4u));

TEST(NetemCampaignDeterminism, StormRunIsBitIdenticalAcrossThreads)
{
    // Property (c): serial and sharded engines agree per tick while the
    // wire misbehaves — netem randomness is keyed by (seed, link, seq),
    // and delayed grants land only at the barrier.
    NetemRun serial = runScenario(core::Scenario::Coordinated, kCampaign, 1);
    EXPECT_FALSE(serial.degrade.none());
    for (unsigned threads : {2u, 4u}) {
        NetemRun parallel =
            runScenario(core::Scenario::Coordinated, kCampaign, threads);
        ASSERT_EQ(serial.power.size(), parallel.power.size());
        for (size_t t = 0; t < serial.power.size(); ++t) {
            ASSERT_EQ(serial.power[t], parallel.power[t])
                << "power diverged at tick " << t << " threads=" << threads;
            ASSERT_EQ(serial.perf[t], parallel.perf[t])
                << "perf diverged at tick " << t << " threads=" << threads;
        }
        EXPECT_EQ(serial.summary.energy, parallel.summary.energy);
        EXPECT_EQ(serial.degrade.netem_delayed,
                  parallel.degrade.netem_delayed);
        EXPECT_EQ(serial.degrade.netem_late_deliveries,
                  parallel.degrade.netem_late_deliveries);
        EXPECT_EQ(serial.degrade.netem_partition_drops,
                  parallel.degrade.netem_partition_drops);
        EXPECT_EQ(serial.degrade.netem_reorder_drops,
                  parallel.degrade.netem_reorder_drops);
        EXPECT_EQ(serial.degrade.lease_expiries,
                  parallel.degrade.lease_expiries);
        EXPECT_EQ(serial.degrade.dropped_budgets,
                  parallel.degrade.dropped_budgets);
    }
}

TEST(NetemCampaignDeterminism, EmptyNetemLayerIsBitTransparent)
{
    // Property (d): wiring the decorator with no schedule must not move
    // a single bit relative to the plain in-process run.
    NetemRun netem = runScenario(core::Scenario::Coordinated, "", 1);

    core::CoordinationConfig cfg =
        core::scenarioConfig(core::Scenario::Coordinated);
    cfg.threads = 1;
    sim::Topology topo{6, 1, 4};
    core::Coordinator plain(cfg, topo, model::bladeA(),
                            nps_test::flatTraces(6, 0.8, kTicks + 8),
                            /*keep_series=*/true);
    plain.run(kTicks);

    ASSERT_EQ(netem.power.size(), plain.metrics().powerSeries().size());
    for (size_t t = 0; t < netem.power.size(); ++t)
        ASSERT_EQ(netem.power[t], plain.metrics().powerSeries()[t])
            << "tick " << t;
    EXPECT_EQ(netem.summary.energy, plain.summary().energy);
    EXPECT_TRUE(netem.degrade.none());
}

} // namespace
