/**
 * @file
 * The degradation-equivalence property (docs/STREAMING.md): a telemetry
 * stream that goes silent for k ticks degrades — and recovers — exactly
 * like the PR-2 fault campaign that drops the same server's budget link
 * for the same window. Not approximately: the two runs must agree on
 * every DegradeStats counter, every recorded power/util/P-state sample,
 * and the recorder's `faults` column byte for byte, whether the lease
 * survives the window (short k) or expires into the conservative local
 * cap (long k), for blade servers (EM→SM link) and standalone servers
 * (GM→SM link) alike.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.h"
#include "core/coordinator.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "sim/recorder.h"
#include "stream/feed.h"
#include "stream/source.h"

namespace {

using namespace nps;

constexpr size_t kTicks = 800;

/** In-process source replaying @p traces with one stream dark during
 * [from, from + k). */
class SilencingSource : public stream::TelemetrySource
{
  public:
    SilencingSource(const std::vector<trace::UtilizationTrace> &traces,
                    size_t dark_vm, size_t from, size_t k)
        : traces_(traces), dark_vm_(dark_vm), from_(from), to_(from + k)
    {
    }

    size_t streams() const override { return traces_.size(); }

    bool pull(size_t tick, stream::TickBatch &batch) override
    {
        batch.reset(traces_.size(), tick);
        for (size_t i = 0; i < traces_.size(); ++i) {
            if (i == dark_vm_ && tick >= from_ && tick < to_)
                continue;
            batch.present[i] = 1;
            batch.demand[i] = traces_[i].at(tick);
            ++batch.samples;
        }
        return true;
    }

  private:
    const std::vector<trace::UtilizationTrace> &traces_;
    size_t dark_vm_;
    size_t from_;
    size_t to_;
};

/** One finished run: everything the equivalence property compares. */
struct RunResult
{
    std::string recorder_csv;
    fault::DegradeStats degrade;
    std::vector<double> power;
};

core::CoordinationConfig
baseConfig()
{
    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.threads = 1;
    return cfg;
}

/** The fault-campaign run: traces drive demand, the injector drops the
 * @p link link to server @p server over [from, from + k). */
RunResult
runFaultCampaign(const char *link, size_t server, size_t from, size_t k,
                 double util)
{
    core::CoordinationConfig cfg = baseConfig();
    cfg.faults.enabled = true;
    char script[96];
    std::snprintf(script, sizeof script, "drop %s %zu %zu %zu 1\n", link,
                  server, from, from + k);
    cfg.faults.script = script;

    sim::Topology topo{6, 1, 4};
    core::Coordinator coord(cfg, topo, model::bladeA(),
                            nps_test::flatTraces(6, util, kTicks + 8),
                            /*keep_series=*/true);
    auto recorder = std::make_shared<sim::Recorder>(
        coord.cluster(), sim::Recorder::Options{});
    recorder->setFaultInjector(coord.faultInjector());
    coord.engine().addActor(recorder);
    coord.run(kTicks);

    RunResult r;
    std::ostringstream csv;
    recorder->writeCsv(csv);
    r.recorder_csv = csv.str();
    r.degrade = coord.degradeStats();
    r.power = coord.metrics().powerSeries();
    return r;
}

/** The online run: same cluster, demand arrives through a ClusterFeed
 * whose stream for server @p server's VM is silent over the same
 * window. No fault injector exists at all. */
RunResult
runSilentStream(size_t server, size_t from, size_t k, double util)
{
    core::CoordinationConfig cfg = baseConfig();
    // Online run: silence ages the same budget leases a dropping link
    // would, so a long enough gap expires them.
    cfg.stream.enabled = true;

    sim::Topology topo{6, 1, 4};
    core::Coordinator coord(cfg, topo, model::bladeA(),
                            nps_test::flatTraces(6, util, kTicks + 8),
                            /*keep_series=*/true);
    // One VM per server in this fixture, placed in id order: the VM on
    // server s is VM s.
    EXPECT_EQ(coord.cluster().serverOf(static_cast<sim::VmId>(server)),
              static_cast<sim::ServerId>(server));

    std::vector<trace::UtilizationTrace> traces =
        nps_test::flatTraces(6, util, kTicks + 8);
    SilencingSource source(traces, server, from, k);
    stream::StreamConfig scfg;
    // Hold-last over the silence: with constant traces the held demand
    // equals the live demand bit for bit, so the ONLY difference
    // between the two runs is the degradation path itself.
    scfg.hold_last = true;
    scfg.hold_ticks = 0;
    stream::ClusterFeed feed(coord.cluster(), source, scfg);
    coord.engine().setTickSource(&feed);
    coord.attachStreamHealth(&feed);

    auto recorder = std::make_shared<sim::Recorder>(
        coord.cluster(), sim::Recorder::Options{});
    recorder->setStreamHealth(&feed);
    coord.engine().addActor(recorder);
    coord.run(kTicks);

    EXPECT_EQ(feed.stats().missing_samples, k);
    EXPECT_EQ(feed.stats().held_samples, k);

    RunResult r;
    std::ostringstream csv;
    recorder->writeCsv(csv);
    r.recorder_csv = csv.str();
    r.degrade = coord.degradeStats();
    r.power = coord.metrics().powerSeries();
    return r;
}

void
expectSameDegrade(const fault::DegradeStats &a,
                  const fault::DegradeStats &b)
{
    EXPECT_EQ(a.outage_ticks, b.outage_ticks);
    EXPECT_EQ(a.outage_steps, b.outage_steps);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.lease_expiries, b.lease_expiries);
    EXPECT_EQ(a.lease_fallback_steps, b.lease_fallback_steps);
    EXPECT_EQ(a.ec_fallback_steps, b.ec_fallback_steps);
    EXPECT_EQ(a.dropped_budgets, b.dropped_budgets);
    EXPECT_EQ(a.stale_budgets, b.stale_budgets);
    EXPECT_EQ(a.stuck_actuations, b.stuck_actuations);
    EXPECT_EQ(a.noisy_reads, b.noisy_reads);
}

void
checkEquivalence(const char *link, size_t server, size_t from, size_t k,
                 double util = 0.7)
{
    RunResult fault_run = runFaultCampaign(link, server, from, k, util);
    RunResult stream_run = runSilentStream(server, from, k, util);

    // The campaign must actually have bitten, or the property is
    // vacuous.
    ASSERT_GT(fault_run.degrade.dropped_budgets, 0u);

    expectSameDegrade(fault_run.degrade, stream_run.degrade);
    ASSERT_EQ(fault_run.power.size(), stream_run.power.size());
    for (size_t t = 0; t < fault_run.power.size(); ++t)
        ASSERT_EQ(fault_run.power[t], stream_run.power[t])
            << "power diverged at tick " << t;
    // Byte-identical CSV, `faults` column included: the recorder cannot
    // tell a silent stream from a drop campaign.
    EXPECT_EQ(fault_run.recorder_csv, stream_run.recorder_csv);
    EXPECT_NE(fault_run.recorder_csv.find("faults"), std::string::npos);
}

TEST(SilenceEquivalence, ShortOutageBladeServerLeaseSurvives)
{
    // 24 silent ticks — well inside the lease, so grants are dropped
    // but no lease expires; both runs must agree on exactly that.
    checkEquivalence("em-sm", 2, 100, 24);
}

TEST(SilenceEquivalence, LongOutageBladeServerLeaseExpires)
{
    // 300 silent ticks — the lease lapses into the conservative local
    // cap, then recovers when samples return at tick 400.
    RunResult fault_run = runFaultCampaign("em-sm", 2, 100, 300, 0.7);
    ASSERT_GT(fault_run.degrade.lease_expiries, 0u);
    checkEquivalence("em-sm", 2, 100, 300);
}

TEST(SilenceEquivalence, StandaloneServerGmLink)
{
    // Servers 4 and 5 hang directly off the GM: silence must ride the
    // GM→SM link instead, and still match the drop campaign.
    checkEquivalence("gm-sm", 4, 150, 200);
}

TEST(SilenceEquivalence, BackToBackWindows)
{
    // Degrade, recover, degrade again: the second window must behave
    // identically in both worlds too (miss streaks and leases reset).
    core::CoordinationConfig cfg = baseConfig();
    cfg.faults.enabled = true;
    cfg.faults.script = "drop em-sm 1 100 160 1\ndrop em-sm 1 400 520 1\n";

    sim::Topology topo{6, 1, 4};
    core::Coordinator fault_coord(
        cfg, topo, model::bladeA(),
        nps_test::flatTraces(6, 0.7, kTicks + 8), true);
    fault_coord.run(kTicks);

    core::CoordinationConfig scfg_run = baseConfig();
    scfg_run.stream.enabled = true;
    core::Coordinator stream_coord(
        scfg_run, topo, model::bladeA(),
        nps_test::flatTraces(6, 0.7, kTicks + 8), true);
    std::vector<trace::UtilizationTrace> traces =
        nps_test::flatTraces(6, 0.7, kTicks + 8);

    // Two dark windows via a composed source: dark during [100,160) and
    // [400,520).
    class TwoWindowSource : public stream::TelemetrySource
    {
      public:
        explicit TwoWindowSource(
            const std::vector<trace::UtilizationTrace> &traces)
            : traces_(traces)
        {
        }
        size_t streams() const override { return traces_.size(); }
        bool pull(size_t tick, stream::TickBatch &batch) override
        {
            batch.reset(traces_.size(), tick);
            for (size_t i = 0; i < traces_.size(); ++i) {
                bool dark = i == 1 && ((tick >= 100 && tick < 160) ||
                                       (tick >= 400 && tick < 520));
                if (dark)
                    continue;
                batch.present[i] = 1;
                batch.demand[i] = traces_[i].at(tick);
                ++batch.samples;
            }
            return true;
        }

      private:
        const std::vector<trace::UtilizationTrace> &traces_;
    } source(traces);

    stream::StreamConfig scfg;
    scfg.hold_ticks = 0;
    stream::ClusterFeed feed(stream_coord.cluster(), source, scfg);
    stream_coord.engine().setTickSource(&feed);
    stream_coord.attachStreamHealth(&feed);
    stream_coord.run(kTicks);

    ASSERT_GT(fault_coord.degradeStats().dropped_budgets, 0u);
    expectSameDegrade(fault_coord.degradeStats(),
                      stream_coord.degradeStats());
    const auto &p = fault_coord.metrics().powerSeries();
    const auto &q = stream_coord.metrics().powerSeries();
    ASSERT_EQ(p.size(), q.size());
    for (size_t t = 0; t < p.size(); ++t)
        ASSERT_EQ(p[t], q[t]) << "power diverged at tick " << t;
}

} // namespace
