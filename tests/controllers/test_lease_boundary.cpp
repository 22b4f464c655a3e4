/**
 * @file
 * Lease-expiry boundary tests for every level that leases its parent's
 * budget (SM, EM, GM): a grant stamped at tick t with lease L is
 * trusted through tick t + L exactly — still valid AT the boundary,
 * lapsed first at t + L + 1. Off-by-one drift here would either revoke
 * grants a tick early (spurious fallback steps, extra conservative
 * capping) or honor a silent parent a tick too long.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/fixtures.h"
#include "controllers/enclosure_manager.h"
#include "controllers/group_manager.h"
#include "controllers/server_manager.h"

namespace {

using namespace nps;
using controllers::EfficiencyController;
using controllers::EnclosureManager;
using controllers::GroupManager;
using controllers::ServerManager;

constexpr unsigned kLease = 50;
constexpr size_t kGrantTick = 100;

class LeaseBoundaryTest : public ::testing::Test
{
  protected:
    /**
     * The wiring that hands out leases: a coordinated GM builds a grant
     * link to the enclosure's EM (and to the standalone SMs), and the EM
     * builds one to each blade SM. Only a controller a parent links to
     * holds a lease, so each SM and EM under test gets a parent.
     */
    LeaseBoundaryTest() : cluster_(nps_test::smallCluster(0.3))
    {
        for (auto &srv : cluster_.servers()) {
            ecs_.push_back(std::make_unique<EfficiencyController>(
                srv, EfficiencyController::Params{}));
            sms_.push_back(std::make_unique<ServerManager>(
                srv, ecs_.back().get(), cluster_.capLoc(srv.id()),
                smParams()));
        }
        EnclosureManager::Params p;
        p.lease_ticks = kLease;
        p.lease_fallback = 0.5;
        std::vector<ServerManager *> blades;
        for (sim::ServerId s : cluster_.enclosure(0).members())
            blades.push_back(sms_[s].get());
        em_ = std::make_unique<EnclosureManager>(
            cluster_, 0, std::move(blades), cluster_.capEnc(0), p);

        std::vector<ServerManager *> standalone, all;
        for (auto &sm : sms_)
            all.push_back(sm.get());
        for (sim::ServerId s : cluster_.standaloneServers())
            standalone.push_back(sms_[s].get());
        gm_ = std::make_unique<GroupManager>(
            cluster_, std::vector<EnclosureManager *>{em_.get()},
            std::move(standalone), std::move(all), cluster_.capGrp(),
            GroupManager::Params{});
    }

    static ServerManager::Params
    smParams()
    {
        ServerManager::Params p;
        p.lease_ticks = kLease;
        p.lease_fallback = 0.5;
        return p;
    }

    sim::Cluster cluster_;
    std::vector<std::unique_ptr<EfficiencyController>> ecs_;
    std::vector<std::unique_ptr<ServerManager>> sms_;
    std::unique_ptr<EnclosureManager> em_;
    std::unique_ptr<GroupManager> gm_;
};

TEST_F(LeaseBoundaryTest, ParentLinksHandOutTheLeases)
{
    EXPECT_TRUE(em_->hasParent());
    for (auto &sm : sms_)
        EXPECT_TRUE(sm->hasParent()) << sm->name();
}

TEST_F(LeaseBoundaryTest, SmValidAtBoundaryLapsedOnePast)
{
    ServerManager &sm = *sms_[0];
    double static_cap = sm.staticCap();
    double grant = static_cap * 0.8;
    sm.setBudget(grant, kGrantTick);

    // Trusted through kGrantTick + kLease inclusive...
    EXPECT_DOUBLE_EQ(sm.currentCap(kGrantTick + kLease), grant);
    // ...and conservative exactly one tick later.
    EXPECT_DOUBLE_EQ(sm.currentCap(kGrantTick + kLease + 1),
                     0.5 * static_cap);
}

TEST_F(LeaseBoundaryTest, SmExpiryCountersFlipExactlyAtBoundary)
{
    ServerManager &sm = *sms_[0];
    sm.setBudget(sm.staticCap() * 0.8, kGrantTick);

    sm.step(kGrantTick + kLease);
    EXPECT_EQ(sm.degradeStats().lease_expiries, 0ul);
    EXPECT_EQ(sm.degradeStats().lease_fallback_steps, 0ul);

    sm.step(kGrantTick + kLease + 1);
    EXPECT_EQ(sm.degradeStats().lease_expiries, 1ul);
    EXPECT_EQ(sm.degradeStats().lease_fallback_steps, 1ul);

    // A fresh grant recovers the lease; the next lapse is a *new*
    // expiry event, again one past its own boundary.
    size_t regrant = kGrantTick + kLease + 2;
    sm.setBudget(sm.staticCap() * 0.8, regrant);
    sm.step(regrant + kLease);
    EXPECT_EQ(sm.degradeStats().lease_expiries, 1ul);
    sm.step(regrant + kLease + 1);
    EXPECT_EQ(sm.degradeStats().lease_expiries, 2ul);
}

TEST_F(LeaseBoundaryTest, EmValidAtBoundaryLapsedOnePast)
{
    EnclosureManager &em = *em_;
    double static_cap = em.staticCap();
    double grant = static_cap * 0.8;
    em.setBudget(grant, kGrantTick);

    EXPECT_DOUBLE_EQ(em.currentCap(kGrantTick + kLease), grant);
    EXPECT_DOUBLE_EQ(em.currentCap(kGrantTick + kLease + 1),
                     0.5 * static_cap);
}

TEST_F(LeaseBoundaryTest, EmExpiryCounterFlipsExactlyAtBoundary)
{
    EnclosureManager &em = *em_;
    em.setBudget(em.staticCap() * 0.8, kGrantTick);
    for (size_t t = 0; t < 30; ++t) {
        cluster_.evaluateTick(t);
        em.observe(t);
    }

    em.step(kGrantTick + kLease);
    EXPECT_EQ(em.degradeStats().lease_expiries, 0ul);
    em.step(kGrantTick + kLease + 1);
    EXPECT_EQ(em.degradeStats().lease_expiries, 1ul);
}

TEST_F(LeaseBoundaryTest, NestedGmValidAtBoundaryLapsedOnePast)
{
    // A child GM under a parent: the only GM configuration that leases
    // anything (a root has no parent to go silent on it).
    GroupManager::Params p;
    p.lease_ticks = kLease;
    p.lease_fallback = 0.5;

    std::vector<ServerManager *> all;
    for (auto &sm : sms_)
        all.push_back(sm.get());

    GroupManager::Children leaf_children;
    leaf_children.standalone = all;
    leaf_children.all_servers = all;
    GroupManager leaf(cluster_, 1, "GM/leaf", leaf_children, 200.0, p);

    GroupManager::Children root_children;
    root_children.groups = {&leaf};
    root_children.all_servers = all;
    GroupManager root(cluster_, 0, "GM/root", root_children, 200.0, p);

    double grant = 150.0;
    leaf.setBudget(grant, kGrantTick);
    EXPECT_DOUBLE_EQ(leaf.currentCap(kGrantTick + kLease), grant);
    EXPECT_DOUBLE_EQ(leaf.currentCap(kGrantTick + kLease + 1),
                     0.5 * 200.0);

    // The root has no parent: its "lease" never lapses, however stale.
    root.setBudget(grant, kGrantTick);
    EXPECT_DOUBLE_EQ(root.currentCap(kGrantTick + 10 * kLease), grant);
}

TEST_F(LeaseBoundaryTest, ZeroLeaseNeverLapses)
{
    // lease_ticks = 0 disables leasing outright: grants are trusted
    // forever, even from a parent that links to the SM.
    ServerManager::Params p;
    ServerManager sm(cluster_.servers()[1], ecs_[1].get(),
                     cluster_.capLoc(1), p);
    EnclosureManager parent(cluster_, 0, {&sm}, cluster_.capEnc(0),
                            EnclosureManager::Params{});
    ASSERT_TRUE(sm.hasParent());
    double grant = sm.staticCap() * 0.8;
    sm.setBudget(grant, kGrantTick);
    EXPECT_DOUBLE_EQ(sm.currentCap(kGrantTick + 1000000), grant);
}

TEST_F(LeaseBoundaryTest, ParentlessControllersHoldNoLease)
{
    // No parent builds a grant link to these, so nobody can go silent
    // on them: however long the lease, their grant never lapses.
    ServerManager sm(cluster_.servers()[1], ecs_[1].get(),
                     cluster_.capLoc(1), smParams());
    EXPECT_FALSE(sm.hasParent());
    double grant = sm.staticCap() * 0.8;
    sm.setBudget(grant, kGrantTick);
    EXPECT_DOUBLE_EQ(sm.currentCap(kGrantTick + 10 * kLease), grant);
    sm.step(kGrantTick + 10 * kLease);
    EXPECT_TRUE(sm.degradeStats().none());

    EnclosureManager::Params p;
    p.lease_ticks = kLease;
    p.lease_fallback = 0.5;
    EnclosureManager em(cluster_, 0, {sms_[0].get()}, cluster_.capEnc(0),
                        p);
    EXPECT_FALSE(em.hasParent());
    em.setBudget(em.staticCap() * 0.8, kGrantTick);
    EXPECT_DOUBLE_EQ(em.currentCap(kGrantTick + 10 * kLease),
                     em.staticCap() * 0.8);
}

} // namespace
