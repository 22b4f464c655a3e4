#include "core/config.h"

#include <algorithm>

#include "util/logging.h"

namespace nps {
namespace core {

CoordinationConfig
CoordinationConfig::resolved() const
{
    CoordinationConfig out = *this;

    if (out.coordinated) {
        out.sm.mode = controllers::ServerManager::Mode::Coordinated;
        out.gm.mode = controllers::GroupManager::Mode::Coordinated;
    } else {
        out.sm.mode = controllers::ServerManager::Mode::DirectPState;
        out.gm.mode = controllers::GroupManager::Mode::Uncoordinated;
        out.vmc.use_real_util = false;
        out.vmc.use_budget_constraints = false;
        out.vmc.use_violation_feedback = false;
        // A power-naive consolidator maximizes utilization; leaving
        // statistical headroom for the cappers is a coordination feature
        // (Section 3.1), so the solo product packs means to the hilt.
        out.vmc.capacity_target = 0.95;
        out.vmc.spread_sigma = 0.0;
    }
    if (!out.enable_ec) {
        // Nothing to nest on: the capper falls back to direct actuation.
        out.sm.mode = controllers::ServerManager::Mode::DirectPState;
    }
    if (!out.enable_sm && !out.enable_em && !out.enable_gm) {
        // No capping levels to provide feedback.
        out.vmc.use_violation_feedback = false;
    }

    out.vmc.alpha_v = out.alpha_v;
    out.vmc.alpha_m = out.alpha_m;
    // The VMC packs to the EC's utilization target so consolidated
    // servers land at the efficient operating point.
    out.vmc.util_limit = out.ec.r_ref;

    // Default budget leases to three parent epochs: generous enough that
    // a healthy parent (or one missing a couple of sends) never trips
    // them, tight enough that a silent parent degrades its children
    // within the same order of magnitude as its control interval. Only
    // a controller whose coordinated parent builds a grant link to it
    // holds a lease (docs/FAULTS.md), and a refreshed lease is
    // bit-transparent, so fault-free runs are unaffected.
    unsigned parent = std::max(out.em.period, out.gm.period);
    if (out.sm.lease_ticks == 0)
        out.sm.lease_ticks = 3 * parent;
    if (out.em.lease_ticks == 0)
        out.em.lease_ticks = 3 * out.gm.period;
    if (out.gm.lease_ticks == 0)
        out.gm.lease_ticks = 3 * out.gm.period;

    if (out.alpha_v < 0.0 || out.alpha_m < 0.0)
        util::fatal("CoordinationConfig: negative overheads");
    if (out.cap_limit_frac <= 0.0 || out.cap_limit_frac > 1.0)
        util::fatal("CoordinationConfig: cap_limit_frac out of (0,1]");
    return out;
}

} // namespace core
} // namespace nps
