/**
 * @file
 * Graceful degradation under scripted faults, exercised through the full
 * Coordinator stack: budget leases expiring into conservative local
 * caps, the SM's direct-P-state fallback while its EC is down, cold
 * restarts after outages, and the per-level degradation counters that
 * surface it all — plus the bit-transparency guarantee that an idle
 * fault layer changes nothing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.h"
#include "core/coordinator.h"
#include "core/scenarios.h"
#include "model/machine.h"

namespace {

using namespace nps;

constexpr size_t kTicks = 800;

/** A coordinated config over the small 6-server cluster, high demand so
 * the caps actually bind, with per-tick series retained. */
core::CoordinationConfig
faultTestConfig()
{
    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.threads = 1;
    return cfg;
}

std::unique_ptr<core::Coordinator>
runCluster(const core::CoordinationConfig &cfg, double util = 0.7,
           size_t ticks = kTicks)
{
    sim::Topology topo{6, 1, 4};
    auto coord = std::make_unique<core::Coordinator>(
        cfg, topo, model::bladeA(),
        nps_test::flatTraces(6, util, ticks + 8), /*keep_series=*/true);
    coord->run(ticks);
    return coord;
}

TEST(FaultTransparency, DisabledFaultsLeaveZeroCounters)
{
    auto coord = runCluster(faultTestConfig());
    EXPECT_EQ(coord->faultInjector(), nullptr);
    EXPECT_TRUE(coord->degradeStats().none());
    EXPECT_TRUE(coord->summary().degrade.none());
}

TEST(FaultTransparency, IdleFaultLayerIsBitTransparent)
{
    // Reference: fault layer fully disabled.
    auto plain = runCluster(faultTestConfig());

    // Faults enabled, injector built — but every event lies beyond the
    // run horizon, so no query ever fires and the leases are always
    // refreshed in time. The series must be bit-identical, not merely
    // close.
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script = "outage em 0 100000 100100\n";
    auto armed = runCluster(cfg);
    ASSERT_NE(armed->faultInjector(), nullptr);
    EXPECT_TRUE(armed->degradeStats().none());

    const auto &p = plain->metrics().powerSeries();
    const auto &a = armed->metrics().powerSeries();
    ASSERT_EQ(p.size(), a.size());
    for (size_t t = 0; t < p.size(); ++t)
        ASSERT_EQ(p[t], a[t]) << "power diverged at tick " << t;
    EXPECT_EQ(plain->summary().energy, armed->summary().energy);
    EXPECT_EQ(plain->summary().sm_violation, armed->summary().sm_violation);
}

TEST(FaultTransparency, IdleCampaignLeavesParentlessControllersAlone)
{
    // Leases follow grant links: a controller no coordinated parent
    // feeds holds none, so an idle campaign (its only event lies past
    // the horizon) must not make it "lapse". Covers the deployments
    // where some EM or SM has no parent: uncoordinated (no GM→EM link),
    // no GM (EMs and standalone SMs unfed), and neither GM nor EM
    // (every SM unfed) — with a fallback cap that would bite if any
    // lease lapsed.
    core::CoordinationConfig uncoord = core::uncoordinatedConfig();
    uncoord.threads = 1;
    core::CoordinationConfig no_gm = faultTestConfig();
    no_gm.enable_gm = false;
    core::CoordinationConfig no_gm_em = no_gm;
    no_gm_em.enable_em = false;
    const std::pair<const char *, core::CoordinationConfig> cases[] = {
        {"uncoordinated", uncoord},
        {"enable_gm = false", no_gm},
        {"enable_gm = enable_em = false", no_gm_em},
    };
    for (const auto &[name, base] : cases) {
        for (double fallback : {1.0, 0.9}) {
            SCOPED_TRACE(std::string(name) + ", lease_fallback " +
                         std::to_string(fallback));
            core::CoordinationConfig plain = base;
            plain.sm.lease_fallback = fallback;
            plain.em.lease_fallback = fallback;
            core::CoordinationConfig idle = plain;
            idle.faults.enabled = true;
            idle.faults.script = "stuck 0 5000 5001\n";

            sim::MetricsSummary p = runCluster(plain)->summary();
            auto armed = runCluster(idle);
            ASSERT_NE(armed->faultInjector(), nullptr);
            sim::MetricsSummary a = armed->summary();
            EXPECT_TRUE(a.degrade.none());
            EXPECT_EQ(p.ticks, a.ticks);
            EXPECT_EQ(p.energy, a.energy);
            EXPECT_EQ(p.mean_power, a.mean_power);
            EXPECT_EQ(p.peak_power, a.peak_power);
            EXPECT_EQ(p.sm_violation, a.sm_violation);
            EXPECT_EQ(p.em_violation, a.em_violation);
            EXPECT_EQ(p.gm_violation, a.gm_violation);
            EXPECT_EQ(p.perf_loss, a.perf_loss);
        }
    }
}

TEST(FaultDegradation, EmOutageExpiresBladeLeases)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    // EM 0 down for 300 ticks: far longer than the default lease of
    // 3 * max(T_em, T_gm) = 150 ticks, so every blade SM must see its
    // lease lapse and degrade to the conservative local cap.
    cfg.faults.script = "outage em 0 100 400\n";
    cfg.sm.lease_fallback = 0.9;
    auto coord = runCluster(cfg);

    const auto &em = *coord->ems()[0];
    EXPECT_GT(em.degradeStats().outage_ticks, 250u);
    EXPECT_GT(em.degradeStats().outage_steps, 8u);
    EXPECT_EQ(em.degradeStats().restarts, 1u);

    // Blade SMs (servers 0..3) ride out the silence on the fallback cap.
    for (size_t sid = 0; sid < 4; ++sid) {
        const auto &sm = *coord->sms()[sid];
        EXPECT_EQ(sm.degradeStats().lease_expiries, 1u) << "sm " << sid;
        EXPECT_GT(sm.degradeStats().lease_fallback_steps, 10u)
            << "sm " << sid;
    }
    // Standalone servers (4, 5) are fed by the GM and never lapse.
    for (size_t sid = 4; sid < 6; ++sid) {
        EXPECT_EQ(coord->sms()[sid]->degradeStats().lease_expiries, 0u)
            << "sm " << sid;
    }

    // The aggregate summary surfaces the same counters.
    fault::DegradeStats total = coord->summary().degrade;
    EXPECT_EQ(total.restarts, 1u);
    EXPECT_GE(total.lease_expiries, 4u);
}

TEST(FaultDegradation, ExpiredLeaseEnforcesFallbackCap)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    // The outage outlives the run: the blade rides the fallback cap to
    // the end, so the post-run state still shows the degraded regime.
    cfg.faults.script = "outage em 0 100 2000\n";
    cfg.sm.lease_fallback = 0.8;
    auto coord = runCluster(cfg, 0.9);

    // While degraded, the enforced cap is the conservative fraction of
    // CAP_LOC, not the (stale) dynamic grant.
    const auto &sm = *coord->sms()[0];
    EXPECT_GT(sm.degradeStats().lease_fallback_steps, 0u);
    double fallback_cap = 0.8 * sm.staticCap();
    EXPECT_DOUBLE_EQ(sm.currentCap(kTicks - 1), fallback_cap);
    EXPECT_NE(sm.currentCap(kTicks - 1), sm.effectiveCap());
    // Power under the degraded cap converged to it (within the usual
    // P-state quantization slack).
    EXPECT_LE(coord->cluster().servers()[0].lastPower(),
              fallback_cap + 6.0);
}

TEST(FaultDegradation, EcOutageFallsBackToDirectCapping)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script = "outage ec 0 100 600\n";
    auto coord = runCluster(cfg, 0.9);

    const auto &ec = *coord->ecs()[0];
    EXPECT_GT(ec.degradeStats().outage_ticks, 400u);
    EXPECT_EQ(ec.degradeStats().restarts, 1u);

    // The SM noticed the dead EC and capped P-states directly.
    const auto &sm = *coord->sms()[0];
    EXPECT_GT(sm.degradeStats().ec_fallback_steps, 10u);

    // Untouched servers never fell back.
    EXPECT_EQ(coord->sms()[1]->degradeStats().ec_fallback_steps, 0u);
    EXPECT_EQ(coord->ecs()[1]->degradeStats().outage_ticks, 0u);
}

TEST(FaultDegradation, DroppedAndStaleBudgetsAreCounted)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script =
        "drop em-sm 0 100 400\n"
        "stale gm-em 0 100 400\n";
    auto coord = runCluster(cfg);

    // EM 0 drops every send to blade 0 in the window: one per T_em step.
    EXPECT_GT(coord->ems()[0]->degradeStats().dropped_budgets, 8u);
    // The GM's sends to EM 0 are delivered stale: one per T_gm step.
    EXPECT_GT(coord->gm()->degradeStats().stale_budgets, 3u);
    EXPECT_EQ(coord->gm()->degradeStats().dropped_budgets, 0u);
}

TEST(FaultDegradation, DropsBeyondLeaseDegradeTheBlade)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    // Every EM->SM send to blade 2 lost for 400 ticks: indistinguishable,
    // from the SM's seat, from a dead parent — the lease must lapse.
    cfg.faults.script = "drop em-sm 2 100 500\n";
    auto coord = runCluster(cfg);
    EXPECT_EQ(coord->sms()[2]->degradeStats().lease_expiries, 1u);
    EXPECT_GT(coord->sms()[2]->degradeStats().lease_fallback_steps, 0u);
    EXPECT_EQ(coord->sms()[3]->degradeStats().lease_expiries, 0u);
}

TEST(FaultDegradation, StuckActuatorIsCounted)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script = "stuck 1 50 300\n";
    // Square-wave demand so the EC keeps trying to move the P-state.
    sim::Topology topo{6, 1, 4};
    std::vector<trace::UtilizationTrace> traces;
    for (size_t i = 0; i < 6; ++i) {
        traces.push_back(nps_test::squareTrace(
            "sq" + std::to_string(i), 0.2, 0.9, 40, kTicks + 8));
    }
    core::Coordinator coord(cfg, topo, model::bladeA(), traces);
    coord.run(kTicks);
    EXPECT_GT(coord.ecs()[1]->degradeStats().stuck_actuations, 0u);
    EXPECT_EQ(coord.ecs()[0]->degradeStats().stuck_actuations, 0u);
}

TEST(FaultDegradation, NoisyAndFrozenTelemetryAreCounted)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script =
        "noise 0 100 300 0.2\n"
        "freeze 1 100 300\n";
    auto coord = runCluster(cfg);
    EXPECT_GT(coord->ecs()[0]->degradeStats().noisy_reads, 100u);
    EXPECT_GT(coord->ecs()[1]->degradeStats().noisy_reads, 100u);
    EXPECT_EQ(coord->ecs()[2]->degradeStats().noisy_reads, 0u);
}

TEST(FaultDegradation, GmAndVmcOutagesRestartOnce)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script =
        "outage gm 0 100 300\n"
        "outage vmc 0 100 300\n";
    auto coord = runCluster(cfg);
    EXPECT_GT(coord->gm()->degradeStats().outage_ticks, 150u);
    EXPECT_EQ(coord->gm()->degradeStats().restarts, 1u);
    EXPECT_GT(coord->vmc()->degradeStats().outage_ticks, 150u);
    EXPECT_EQ(coord->vmc()->degradeStats().restarts, 1u);
    // While the GM was silent past the EM lease, the EM degraded too.
    EXPECT_GE(coord->ems()[0]->degradeStats().lease_expiries, 1u);
}

TEST(FaultDegradation, RecoveryRefreshesLeases)
{
    core::CoordinationConfig cfg = faultTestConfig();
    cfg.faults.enabled = true;
    cfg.faults.script = "outage em 0 100 400\n";
    cfg.sm.lease_fallback = 0.9;
    auto coord = runCluster(cfg);
    // Well after the restart the blade SM is back on a live grant: its
    // enforced cap is the effective (dynamic) cap again, not the
    // fallback.
    const auto &sm = *coord->sms()[0];
    EXPECT_DOUBLE_EQ(sm.currentCap(kTicks), sm.effectiveCap());
    EXPECT_NE(sm.currentCap(kTicks), 0.9 * sm.staticCap());
}

} // namespace
