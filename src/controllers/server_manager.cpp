#include "controllers/server_manager.h"

#include <algorithm>

#include "control/stability.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace nps {
namespace controllers {

GrantBounds
grantBounds(const sim::Server &server, size_t tick)
{
    GrantBounds b;
    if (server.platformPower(tick) == sim::PlatformPower::Off) {
        b.floor = server.spec().offWatts();
        b.max = server.spec().offWatts();
        return b;
    }
    const auto &m = server.model();
    b.floor = m.idlePower(m.pstates().slowestIndex());
    b.max = m.maxPower();
    return b;
}

ServerManager::ServerManager(sim::Server &server, EfficiencyController *ec,
                             double static_cap, const Params &params)
    : ctl::ControlLoop("SM/" + std::to_string(server.id())),
      server_(server),
      ec_(ec),
      static_cap_(static_cap),
      dynamic_cap_(static_cap),
      params_(params),
      name_("SM/" + std::to_string(server.id())),
      r_ref_(params.r_ref_min, params.r_ref_min, params.r_ref_max)
{
    if (static_cap_ <= 0.0)
        util::fatal("SM/%u: non-positive static cap", server.id());
    if (params_.mode == Mode::Coordinated && !ec_)
        util::fatal("SM/%u: coordinated mode requires a nested EC",
                    server.id());
    if (ec_) {
        ref_link_.emplace(
            name_ + "->EC/" + std::to_string(server.id()),
            [this](const bus::ReferenceUpdate &u) {
                ec_->setReference(u.r_ref);
            });
    }
    // Normalized-power stability check: the effective slope of power with
    // respect to r_ref is bounded by maxPowerSlope()/maxPower.
    double c_max = server_.model().maxPowerSlope() /
                   server_.model().maxPower();
    if (!ctl::smGainStable(params_.beta, c_max)) {
        util::warn("SM/%u: beta %f violates the stability bound 2/c_max "
                   "= %f", server.id(), params_.beta,
                   ctl::smBetaBound(c_max));
    }
    setReference(effectiveCap());
}

void
ServerManager::setBudget(double watts)
{
    if (watts <= 0.0)
        util::fatal("SM/%u: non-positive budget recommendation",
                    server_.id());
    dynamic_cap_ = watts;
    setReference(effectiveCap());
}

void
ServerManager::setBudget(double watts, size_t tick, uint32_t trace)
{
    setBudget(watts);
    budget_tick_ = tick;
    trace_ctx_ = trace;
    if (params_.mode == Mode::Coordinated && watts < static_cap_) {
        if (obs_grant_clamps_)
            obs_grant_clamps_->add();
        if (obs_trace_)
            obs_trace_->emit(tick,
                             "clamped budget %.6gW -> %.6gW: grant < "
                             "static",
                             static_cap_, watts);
    }
}

void
ServerManager::attachObs(obs::MetricsRegistry *metrics,
                         obs::TraceSink *trace)
{
    if (metrics) {
        obs_grant_clamps_ = metrics->counter(
            "nps_sm_grant_clamps_total", name_,
            "Dynamic grants below the static cap (grant won the min)");
        obs_lease_expiries_ = metrics->counter(
            "nps_sm_lease_expiries_total", name_,
            "Budget leases that lapsed into the local fallback cap");
        obs_ec_fallback_steps_ = metrics->counter(
            "nps_sm_ec_fallback_steps_total", name_,
            "Steps spent capping P-states directly because the nested "
            "EC was down");
        obs_restarts_ = metrics->counter(
            "nps_sm_restarts_total", name_,
            "Cold restarts after an SM outage");
        obs_cap_ = metrics->gauge(
            "nps_sm_cap_watts", name_,
            "Budget enforced by the SM at its most recent step");
    }
    if (trace)
        obs_trace_ = trace->channel(name_);
}

double
ServerManager::effectiveCap() const
{
    if (params_.mode == Mode::Coordinated)
        return std::min(static_cap_, dynamic_cap_);
    // Solo capper: the management console's setting is the setting.
    return dynamic_cap_;
}

bool
ServerManager::leaseLapsed(size_t tick) const
{
    return has_parent_ && params_.mode == Mode::Coordinated &&
           params_.lease_ticks > 0 &&
           tick > budget_tick_ + params_.lease_ticks;
}

double
ServerManager::currentCap(size_t tick) const
{
    if (leaseLapsed(tick))
        return std::min(static_cap_, params_.lease_fallback * static_cap_);
    return effectiveCap();
}

void
ServerManager::restartCold(size_t tick)
{
    // A restarted SM has no memory of its integrator or of any grant its
    // parent sent while it was down; it re-enters on the static budget
    // with a fresh lease and waits for the next recommendation.
    r_ref_.setValue(params_.r_ref_min);
    ControlLoop::reset();
    dynamic_cap_ = static_cap_;
    budget_tick_ = tick;
    trace_ctx_ = 0;
    lease_expired_ = false;
    setReference(effectiveCap());
}

void
ServerManager::observe(size_t tick)
{
    if (faults_) {
        if (faults_->down(fault::Level::SM,
                          static_cast<long>(server_.id()), tick)) {
            // A down SM records nothing — its CIM interface is dark.
            ++degrade_.outage_ticks;
            was_down_ = true;
            return;
        }
        if (was_down_) {
            was_down_ = false;
            ++degrade_.restarts;
            if (obs_restarts_)
                obs_restarts_->add();
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "cold restart after outage: static "
                                 "budget %.6gW, fresh lease",
                                 static_cap_);
            restartCold(tick);
        }
    }
    // Violation bookkeeping runs at tick granularity and against the
    // *static* budget: dynamic grants re-provision headroom but the
    // physical fuse/fan limit is CAP_LOC, and that is the signal the
    // exposed (CIM-style) interface reports to the VMC.
    if (server_.platformPower(tick) != sim::PlatformPower::Off)
        record(server_.lastPower() > static_cap_ + 1e-9);
}

void
ServerManager::attachControlLog(bus::ControlPlaneLog *log)
{
    if (ref_link_)
        ref_link_->attachLog(log);
}

void
ServerManager::attachTransport(bus::Transport *transport,
                               const bus::OwnerFn &owner)
{
    if (!ref_link_)
        return;
    const int rank =
        owner ? owner(bus::OwnerLevel::Sm, static_cast<long>(server_.id()))
              : 0;
    ref_link_->setTransport(transport, rank);
}

void
ServerManager::step(size_t tick)
{
    step_tick_ = tick;
    if (faults_ && faults_->down(fault::Level::SM,
                                 static_cast<long>(server_.id()), tick)) {
        ++degrade_.outage_steps;
        return;
    }
    if (!server_.isOn(tick))
        return;

    // Lease bookkeeping: degrade to the conservative local cap when the
    // parent has gone silent past the lease, and recover the moment a
    // fresh grant lands.
    bool lapsed = leaseLapsed(tick);
    if (lapsed) {
        if (!lease_expired_) {
            lease_expired_ = true;
            ++degrade_.lease_expiries;
            if (obs_lease_expiries_)
                obs_lease_expiries_->add();
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "lease expired (grant from tick %zu, "
                                 "lease %u) -> fallback cap %.6gW",
                                 budget_tick_, params_.lease_ticks,
                                 currentCap(tick));
        }
        ++degrade_.lease_fallback_steps;
    } else {
        if (lease_expired_ && obs_trace_)
            obs_trace_->emit(tick,
                             "lease recovered: fresh grant, enforcing "
                             "%.6gW",
                             effectiveCap());
        lease_expired_ = false;
    }
    double cap = currentCap(tick);
    if (obs_cap_)
        obs_cap_->set(cap);

    bool ec_down = faults_ && ec_ &&
                   faults_->down(fault::Level::EC,
                                 static_cast<long>(server_.id()), tick);
    if (params_.mode == Mode::DirectPState || ec_down) {
        // With the nested EC down nobody runs the inner loop; the SM
        // degrades to capping P-states directly, like a solo product.
        if (ec_down && params_.mode == Mode::Coordinated) {
            ++degrade_.ec_fallback_steps;
            if (obs_ec_fallback_steps_)
                obs_ec_fallback_steps_->add();
            if (!ec_fallback_ && obs_trace_)
                obs_trace_->emit(tick, "nested EC down -> direct "
                                       "P-state capping");
            ec_fallback_ = true;
        }
        stepDirect(tick, cap);
        return;
    }
    if (ec_fallback_) {
        ec_fallback_ = false;
        if (obs_trace_)
            obs_trace_->emit(tick, "nested EC back -> r_ref actuation "
                                   "resumed");
    }
    setReference(cap);
    ControlLoop::step();
}

double
ServerManager::measure()
{
    return server_.lastPower();
}

double
ServerManager::control(double error, double measurement)
{
    (void)measurement;
    // r_ref(k) = r_ref(k-1) - beta * (cap - pow), with power normalized
    // by the machine's peak so beta is machine-independent. The release
    // direction (power under cap, error > 0) uses a reduced gain.
    double norm_error = error / server_.model().maxPower();
    double beta = params_.beta *
                  (error > 0.0 ? params_.release_gain_ratio : 1.0);
    return r_ref_.update(-beta, norm_error);
}

void
ServerManager::actuate(double value)
{
    ref_link_->send(value, step_tick_);
}

void
ServerManager::stepDirect(size_t tick, double cap)
{
    double pow = server_.lastPower();
    const auto &m = server_.model();
    size_t p = server_.pstate();
    size_t slowest = server_.spec().pstates().slowestIndex();
    size_t q = p;
    if (pow > cap) {
        // Hardware cappers clamp immediately: jump to the fastest state
        // predicted to respect the budget for the current load.
        double demand = server_.lastRealUtil();
        while (q < slowest && m.powerForDemand(q, demand) > cap)
            ++q;
    } else if (pow < cap * (1.0 - params_.unthrottle_margin) && p > 0) {
        // Solo cappers restore performance when comfortably under budget.
        q = p - 1;
    }
    if (q == p)
        return;
    if (faults_ && faults_->pstateStuck(static_cast<long>(server_.id()),
                                        tick)) {
        // The firmware actuator swallowed the write.
        ++degrade_.stuck_actuations;
        return;
    }
    if (obs_trace_)
        obs_trace_->emit(tick, "%s P%zu -> P%zu: pow=%.6gW cap=%.6gW",
                         q > p ? "throttle" : "unthrottle", p, q, pow,
                         cap);
    server_.setPState(q);
}

void
ServerManager::saveState(ckpt::SectionWriter &w) const
{
    w.putDouble(reference());
    w.putDouble(lastMeasurement());
    w.putDouble(lastError());
    w.putU64(steps());
    ViolationTracker::saveState(w);
    w.putDouble(dynamic_cap_);
    w.putDouble(r_ref_.value());
    w.putU64(step_tick_);
    degrade_.saveState(w);
    w.putU64(budget_tick_);
    w.putU32(trace_ctx_);
    w.putBool(lease_expired_);
    w.putBool(was_down_);
    w.putBool(ec_fallback_);
    w.putBool(ref_link_.has_value());
    if (ref_link_)
        ref_link_->saveState(w);
}

void
ServerManager::loadState(ckpt::SectionReader &r)
{
    double ref = r.getDouble();
    double meas = r.getDouble();
    double err = r.getDouble();
    auto steps = static_cast<unsigned long>(r.getU64());
    restoreLoopState(ref, meas, err, steps);
    ViolationTracker::loadState(r);
    dynamic_cap_ = r.getDouble();
    r_ref_.setValue(r.getDouble());
    step_tick_ = static_cast<size_t>(r.getU64());
    degrade_.loadState(r);
    budget_tick_ = static_cast<size_t>(r.getU64());
    trace_ctx_ = r.getU32();
    lease_expired_ = r.getBool();
    was_down_ = r.getBool();
    ec_fallback_ = r.getBool();
    bool has_link = r.getBool();
    if (has_link != ref_link_.has_value())
        util::fatal("SM %s restore: reference-link presence mismatch "
                    "(snapshot %d, rebuilt %d)",
                    name().c_str(), has_link ? 1 : 0,
                    ref_link_ ? 1 : 0);
    if (ref_link_)
        ref_link_->loadState(r);
}

} // namespace controllers
} // namespace nps
