/**
 * @file
 * Server Manager (SM): per-server thermal power capping.
 *
 * Coordinated design (Section 3.1): nested on the EC, the SM actuates the
 * EC's utilization reference r_ref instead of touching P-states:
 *
 *     r_ref(k) = r_ref(k-1) - beta_loc * (cap_loc - pow(k-1))    (Eq. SM)
 *
 * A power reading above the budget raises r_ref, which makes the EC shrink
 * the container (deeper P-state), which lowers power. Stability holds for
 * 0 < beta < 2 / c_max (Appendix A). A lower bound of 75% on r_ref keeps
 * servers reasonably utilized when under budget.
 *
 * Uncoordinated (commercial-solo) design: steps the P-state directly on a
 * violation — the configuration whose interaction with an independently
 * deployed EC produces the paper's "power struggle".
 *
 * The SM's budget input is the coordination channel of the EM/GM: the
 * effective cap is min(static local budget, latest recommendation). The SM
 * also exposes its budget-violation history (the CIM/DMTF stand-in) for
 * the VMC's consolidation-aggressiveness feedback.
 */

#ifndef NPS_CONTROLLERS_SERVER_MANAGER_H
#define NPS_CONTROLLERS_SERVER_MANAGER_H

#include <optional>
#include <string>

#include "bus/control_link.h"
#include "bus/violation.h"
#include "control/integral.h"
#include "control/loop.h"
#include "controllers/efficiency.h"
#include "fault/injector.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace nps {
namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
class TraceChannel;
class TraceSink;
} // namespace obs

namespace controllers {

/**
 * The violation-history interfaces live in the bus layer (they are the
 * payload of the upstream feedback channel); these aliases keep the
 * controllers' historical spelling.
 */
using ViolationSource = bus::ViolationSource;
using ViolationTracker = bus::ViolationTracker;

/**
 * Physical grant bounds of one server, used by the budget-division
 * levels: a powered-off machine is pinned at its residual off draw,
 * while a live one can usefully receive anything between its deepest
 * idle power and its peak.
 */
struct GrantBounds
{
    double floor = 0.0;  //!< smallest allocation the server can honor
    double max = 0.0;    //!< largest allocation it could ever consume
};

/** Compute the grant bounds of @p server as of @p tick. */
GrantBounds grantBounds(const sim::Server &server, size_t tick);

/**
 * The per-server power capper.
 */
class ServerManager : public sim::Actor,
                      public ctl::ControlLoop,
                      public ViolationTracker
{
  public:
    /** Operating mode. */
    enum class Mode
    {
        /** Actuate the EC's r_ref (the paper's coordinated design). */
        Coordinated,
        /**
         * Actuate P-states directly, as a solo commercial capper does;
         * deployed next to an independent EC this is the power struggle.
         */
        DirectPState,
    };

    /** Tunable parameters (defaults follow Figure 5). */
    struct Params
    {
        double beta = 1.0;        //!< gain, in r_ref per *normalized* watt
        double r_ref_min = 0.75;  //!< lower bound on the EC target
        double r_ref_max = 2.0;   //!< anti-windup upper bound
        unsigned period = 5;      //!< control interval T_sm
        Mode mode = Mode::Coordinated;
        /**
         * Gain multiplier applied when power is *under* the cap, so the
         * throttle releases more slowly than it engages. Damps the limit
         * cycle around the P-state quantization boundary.
         */
        double release_gain_ratio = 0.25;
        /**
         * In DirectPState mode: headroom fraction under the cap below
         * which the capper steps the P-state back up.
         */
        double unthrottle_margin = 0.12;
        /**
         * Budget-lease length in ticks: a dynamic grant received at tick t
         * is trusted through t + lease_ticks; past that the SM assumes its
         * parent is silent (down, or the link is dropping) and degrades to
         * the conservative local cap lease_fallback * CAP_LOC. Only an
         * SM with a parent (hasParent()) holds a lease; 0 disables
         * leasing (grants never expire).
         */
        unsigned lease_ticks = 0;
        /** Fraction of CAP_LOC enforced while the lease is expired. */
        double lease_fallback = 1.0;
    };

    /**
     * @param server     The managed server.
     * @param ec         The nested EC (required in Coordinated mode; may
     *                   be null in DirectPState mode).
     * @param static_cap The server's own local power budget CAP_LOC.
     * @param params     Controller parameters.
     */
    ServerManager(sim::Server &server, EfficiencyController *ec,
                  double static_cap, const Params &params);

    /// @name sim::Actor
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    void observe(size_t tick) override;
    void step(size_t tick) override;
    /** Shardable: touches only its own server and its nested EC. */
    long shardKey() const override
    {
        return static_cast<long>(server_.id());
    }
    /// @}

    /// @name Budget channel (driven by the EM / GM)
    /// @{

    /**
     * Receive a budget recommendation from an upper-level capper.
     * Coordinated mode keeps min(static, recommendation); DirectPState
     * mode adopts the recommendation verbatim (solo products trust their
     * management console), which is exactly how uncoordinated stacks leak
     * above local limits.
     */
    void setBudget(double watts);

    /**
     * Timestamped variant: additionally refreshes the budget lease, so a
     * parent that keeps sending keeps the SM on the dynamic grant, and
     * adopts the grant's cascade trace id as this SM's context. The
     * coordination stack always sends through this overload; the plain one
     * exists for lease-agnostic callers (tests, scripted experiments).
     */
    void setBudget(double watts, size_t tick, uint32_t trace = 0);

    /** Cascade trace id of the last parent grant received (0 = none). */
    uint32_t cascadeStamp() const override { return trace_ctx_; }

    /**
     * Wiring hook: a parent calls this as it builds its grant link to
     * this SM, which from then on holds a lease on those grants
     * (docs/FAULTS.md, "Budget leases"). Wiring time only.
     */
    void attachParent() { has_parent_ = true; }

    /** @return true when a parent grants to this SM over a link. */
    bool hasParent() const { return has_parent_; }

    /** The budget currently being enforced (ignoring lease expiry). */
    double effectiveCap() const;

    /**
     * The budget enforced at @p tick: effectiveCap(), unless the lease
     * has lapsed, in which case the conservative local fallback
     * min(CAP_LOC, lease_fallback * CAP_LOC).
     */
    double currentCap(size_t tick) const;

    /** The server's own static budget CAP_LOC. */
    double staticCap() const { return static_cap_; }

    /// @}

    /// @name Fault injection
    /// @{

    /** Attach the fault oracle (null = fault-free, the default). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Degradation counters accumulated by this SM. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

    /// @}

    /**
     * Mirror this SM's outgoing control traffic (the r_ref reference
     * channel into the nested EC) into @p log; null detaches.
     */
    void attachControlLog(bus::ControlPlaneLog *log);

    /**
     * Route the r_ref reference link through @p transport (null
     * detaches); it is owned by (Sm, server id). Wiring time only,
     * before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /**
     * Register this SM's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Active parameters. */
    const Params &params() const { return params_; }

    /** The managed server. */
    const sim::Server &server() const { return server_; }

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  protected:
    /// @name ctl::ControlLoop hooks (Coordinated mode)
    /// @{
    double measure() override;
    double control(double error, double measurement) override;
    void actuate(double value) override;
    /// @}

  private:
    /** One step of the solo (direct P-state) capper, enforcing @p cap. */
    void stepDirect(size_t tick, double cap);

    /** @return true when the budget lease has lapsed as of @p tick. */
    bool leaseLapsed(size_t tick) const;

    /** Cold restart after an outage: forget integrator and grant state. */
    void restartCold(size_t tick);

    sim::Server &server_;
    EfficiencyController *ec_;
    double static_cap_;
    double dynamic_cap_;
    Params params_;
    std::string name_;
    ctl::IntegralController r_ref_;
    std::optional<bus::ReferenceLink> ref_link_; //!< SM -> EC r_ref channel
    size_t step_tick_ = 0; //!< tick of the step in flight (for actuate)
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    size_t budget_tick_ = 0;    //!< receipt tick of the live grant
    uint32_t trace_ctx_ = 0;    //!< cascade trace id of that grant
    bool has_parent_ = false;    //!< a parent's grant link feeds this SM
    bool lease_expired_ = false; //!< edge detector for lease_expiries
    bool was_down_ = false;      //!< edge detector for restarts
    bool ec_fallback_ = false;   //!< edge detector for EC-down tracing

    obs::Counter *obs_grant_clamps_ = nullptr;
    obs::Counter *obs_lease_expiries_ = nullptr;
    obs::Counter *obs_ec_fallback_steps_ = nullptr;
    obs::Counter *obs_restarts_ = nullptr;
    obs::Gauge *obs_cap_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_SERVER_MANAGER_H
