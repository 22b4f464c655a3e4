#include "core/config_io.h"

#include "util/fields.h"
#include "util/logging.h"

namespace nps {
namespace core {

namespace {

using util::IniDocument;
using C = CoordinationConfig;
using Topo = sim::Topology;

// Generic member accessor for a field-table row.
#define M(member) [](auto &c) -> auto & { return c.member; }

template <class E>
std::vector<std::pair<std::string, E>>
namesOf(std::initializer_list<E> values, const char *(*name)(E))
{
    std::vector<std::pair<std::string, E>> out;
    for (E v : values)
        out.emplace_back(name(v), v);
    return out;
}

std::vector<std::pair<std::string, controllers::DivisionPolicy>>
policies()
{
    using P = controllers::DivisionPolicy;
    return namesOf({P::Proportional, P::Equal, P::Priority, P::Fifo,
                    P::Random, P::History},
                   controllers::policyName);
}

/** The fault script is validated on read and stored, one line of
 * '; '-separated clauses, in the parser's canonical form on write
 * (INI values cannot span lines). */
util::Field<C>
faultScript()
{
    return {"faults", "script", util::FieldKind::Text, {},
            [](C &c, const std::string &raw, const std::string &) {
                fault::FaultSchedule::parse(raw);
                c.faults.script = raw;
            },
            [](const C &c) {
                return c.faults.script.empty()
                           ? std::string()
                           : fault::FaultSchedule::parse(c.faults.script)
                                 .toText("; ");
            }};
}

} // namespace

const std::vector<util::Field<C>> &
configFields()
{
    using util::field;
    using controllers::EcObjective;
    using controllers::ForecastMethod;
    static const std::vector<util::Field<C>> table{
        field<C>("deployment", "coordinated", M(coordinated)),
        field<C>("deployment", "enable_ec", M(enable_ec)),
        field<C>("deployment", "enable_sm", M(enable_sm)),
        field<C>("deployment", "enable_em", M(enable_em)),
        field<C>("deployment", "enable_gm", M(enable_gm)),
        field<C>("deployment", "enable_vmc", M(enable_vmc)),
        field<C>("deployment", "enable_cap", M(enable_cap)),
        field<C>("deployment", "enable_mem", M(enable_mem)),
        field<C>("deployment", "alpha_v", M(alpha_v)),
        field<C>("deployment", "alpha_m", M(alpha_m)),
        field<C>("deployment", "cap_limit_frac", M(cap_limit_frac)),
        field<C>("deployment", "threads", M(threads)),
        field<C>("deployment", "log_control_plane", M(log_control_plane)),

        field<C>("ec", "lambda", M(ec.lambda)),
        field<C>("ec", "r_ref", M(ec.r_ref)),
        field<C>("ec", "period", M(ec.period)),
        util::enumField<C>("ec", "objective", M(ec.objective),
                           {{"tracking", EcObjective::UtilizationTracking},
                            {"energy-delay", EcObjective::EnergyDelay}}),
        field<C>("ec", "quantize_up", M(ec.quantize_up)),

        field<C>("sm", "beta", M(sm.beta)),
        field<C>("sm", "r_ref_min", M(sm.r_ref_min)),
        field<C>("sm", "r_ref_max", M(sm.r_ref_max)),
        field<C>("sm", "period", M(sm.period)),
        field<C>("sm", "unthrottle_margin", M(sm.unthrottle_margin)),
        field<C>("sm", "release_gain_ratio", M(sm.release_gain_ratio)),
        field<C>("sm", "lease_ticks", M(sm.lease_ticks)),
        field<C>("sm", "lease_fallback", M(sm.lease_fallback), 0.0,
                 1.0),

        field<C>("em", "period", M(em.period)),
        util::enumField<C>("em", "policy", M(em.policy), policies()),
        field<C>("em", "demand_horizon", M(em.demand_horizon), 1.0),
        field<C>("em", "history_horizon", M(em.history_horizon), 1.0),
        field<C>("em", "seed", M(em.seed)),
        field<C>("em", "lease_ticks", M(em.lease_ticks)),
        field<C>("em", "lease_fallback", M(em.lease_fallback), 0.0,
                 1.0),

        field<C>("gm", "period", M(gm.period)),
        util::enumField<C>("gm", "policy", M(gm.policy), policies()),
        field<C>("gm", "demand_horizon", M(gm.demand_horizon), 1.0),
        field<C>("gm", "history_horizon", M(gm.history_horizon), 1.0),
        field<C>("gm", "seed", M(gm.seed)),
        field<C>("gm", "lease_ticks", M(gm.lease_ticks)),
        field<C>("gm", "lease_fallback", M(gm.lease_fallback), 0.0,
                 1.0),

        field<C>("vmc", "period", M(vmc.period)),
        field<C>("vmc", "allow_power_off", M(vmc.allow_power_off)),
        field<C>("vmc", "capacity_target", M(vmc.capacity_target)),
        field<C>("vmc", "migration_ticks", M(vmc.migration_ticks)),
        field<C>("vmc", "buffer_gain", M(vmc.buffer_gain)),
        field<C>("vmc", "gain_ref_period", M(vmc.gain_ref_period)),
        field<C>("vmc", "buffer_decay", M(vmc.buffer_decay)),
        field<C>("vmc", "buffer_max", M(vmc.buffer_max)),
        field<C>("vmc", "buffer_init", M(vmc.buffer_init)),
        field<C>("vmc", "adoption_margin", M(vmc.adoption_margin)),
        field<C>("vmc", "spread_sigma", M(vmc.spread_sigma)),
        field<C>("vmc", "use_real_util", M(vmc.use_real_util)),
        field<C>("vmc", "use_budget_constraints",
                 M(vmc.use_budget_constraints)),
        field<C>("vmc", "use_violation_feedback",
                 M(vmc.use_violation_feedback)),
        field<C>("vmc", "use_forecast", M(vmc.use_forecast)),
        util::enumField<C>("vmc", "forecast_method", M(vmc.forecast.method),
                           namesOf({ForecastMethod::LastValue,
                                    ForecastMethod::Ewma,
                                    ForecastMethod::HoltLinear},
                                   controllers::forecastMethodName)),
        field<C>("vmc", "forecast_alpha", M(vmc.forecast.alpha)),
        field<C>("vmc", "forecast_beta", M(vmc.forecast.beta)),

        field<C>("cap", "period", M(cap.period)),
        field<C>("cap", "release_margin", M(cap.release_margin)),

        field<C>("mem", "period", M(mem.period)),
        field<C>("mem", "engage_below", M(mem.engage_below)),
        field<C>("mem", "release_above", M(mem.release_above)),
        field<C>("mem", "engage_patience", M(mem.engage_patience)),

        field<C>("budgets", "group_off", M(budgets.grp_off_frac)),
        field<C>("budgets", "enclosure_off", M(budgets.enc_off_frac)),
        field<C>("budgets", "local_off", M(budgets.loc_off_frac)),

        field<C>("obs", "metrics", M(observability.metrics)),
        field<C>("obs", "trace", M(observability.trace)),
        field<C>("obs", "trace_filter", M(observability.trace_filter)),
        field<C>("obs", "trace_capacity", M(observability.trace_capacity)),
        field<C>("obs", "profile", M(observability.profile)),
        field<C>("obs", "cascade", M(observability.cascade)),
        field<C>("obs", "http", M(observability.http)),
        field<C>("obs", "http_linger_ms", M(observability.http_linger_ms)),
        field<C>("obs", "publish_every", M(observability.publish_every),
                 1u),

        field<C>("faults", "enabled", M(faults.enabled)),
        field<C>("faults", "seed", M(faults.seed)),
        faultScript(),
        field<C>("faults", "horizon", M(faults.random.horizon)),
        field<C>("faults", "outages", M(faults.random.outages)),
        field<C>("faults", "outage_len", M(faults.random.outage_len)),
        field<C>("faults", "drops", M(faults.random.drops)),
        field<C>("faults", "drop_len", M(faults.random.drop_len)),
        field<C>("faults", "drop_prob", M(faults.random.drop_prob), 0.0,
                 1.0),
        field<C>("faults", "stales", M(faults.random.stales)),
        field<C>("faults", "stale_len", M(faults.random.stale_len)),
        field<C>("faults", "stucks", M(faults.random.stucks)),
        field<C>("faults", "stuck_len", M(faults.random.stuck_len)),
        field<C>("faults", "noises", M(faults.random.noises)),
        field<C>("faults", "noise_len", M(faults.random.noise_len)),
        field<C>("faults", "noise_sigma", M(faults.random.noise_sigma),
                 0.0),
        field<C>("faults", "freezes", M(faults.random.freezes)),
        field<C>("faults", "freeze_len", M(faults.random.freeze_len)),

        field<C>("stream", "enabled", M(stream.enabled)),
        field<C>("stream", "timeout_ms", M(stream.timeout_ms)),
        field<C>("stream", "max_pending", M(stream.max_pending), 1u),
        field<C>("stream", "hold_last", M(stream.hold_last)),
        field<C>("stream", "hold_ticks", M(stream.hold_ticks)),
        field<C>("stream", "fallback_util", M(stream.fallback_util)),
    };
    return table;
}

const std::vector<util::Field<Topo>> &
topologyFields()
{
    using util::field;
    static const std::vector<util::Field<Topo>> table{
        field<Topo>("topology", "servers", M(num_servers)),
        field<Topo>("topology", "enclosures", M(num_enclosures)),
        field<Topo>("topology", "enclosure_size", M(enclosure_size)),
        {"topology", "tree", util::FieldKind::Text, {},
         [](Topo &t, const std::string &raw, const std::string &) {
             t.tree = Topo::parseTree(raw);
         },
         [](const Topo &t) {
             return t.hasTree() ? t.treeText() : std::string();
         }},
    };
    return table;
}

#undef M

CoordinationConfig
configFromIni(const IniDocument &ini)
{
    CoordinationConfig cfg;
    util::readStrict(configFields(), ini, cfg, "config");
    if (!cfg.observability.http.empty() && !cfg.observability.metrics)
        util::fatal("config: [obs] http needs metrics = true — there "
                    "is no registry to serve without it");
    return cfg;
}

CoordinationConfig
loadConfigFile(const std::string &path)
{
    return configFromIni(util::readIniFile(path));
}

util::IniDocument
configToIni(const CoordinationConfig &cfg)
{
    IniDocument ini;
    util::writeFields(configFields(), cfg, ini);
    return ini;
}

sim::Topology
topologyFromIni(const IniDocument &ini)
{
    sim::Topology topo;
    util::readStrict(topologyFields(), ini, topo, "topology");
    topo.validate();
    return topo;
}

sim::Topology
loadTopologyFile(const std::string &path)
{
    return topologyFromIni(util::readIniFile(path));
}

util::IniDocument
topologyToIni(const sim::Topology &topo)
{
    IniDocument ini;
    util::writeFields(topologyFields(), topo, ini);
    return ini;
}

} // namespace core
} // namespace nps
