#include "core/scenarios.h"

#include <utility>

#include "util/logging.h"

namespace nps {
namespace core {

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::Baseline:            return "Baseline";
      case Scenario::Coordinated:         return "Coordinated";
      case Scenario::Uncoordinated:       return "Uncoordinated";
      case Scenario::NoVmc:               return "NoVMC";
      case Scenario::VmcOnly:             return "VMCOnly";
      case Scenario::CoordApparentUtil:   return "Coordinated, appr util";
      case Scenario::CoordNoFeedback:     return "Coordinated, no feedback";
      case Scenario::CoordNoBudgetLimits:
        return "Coordinated, no budget limits";
    }
    return "?";
}

CoordinationConfig
configForScenario(const std::string &name)
{
    static const std::pair<const char *, Scenario> names[] = {
        {"coordinated", Scenario::Coordinated},
        {"uncoordinated", Scenario::Uncoordinated},
        {"baseline", Scenario::Baseline},
        {"novmc", Scenario::NoVmc},
        {"vmconly", Scenario::VmcOnly},
        {"appr-util", Scenario::CoordApparentUtil},
        {"no-feedback", Scenario::CoordNoFeedback},
        {"no-budget-limits", Scenario::CoordNoBudgetLimits},
    };
    for (const auto &n : names)
        if (name == n.first)
            return scenarioConfig(n.second);
    util::fatal("unknown scenario '%s'", name.c_str());
}

sim::BudgetConfig
budgetsForLabel(const std::string &label)
{
    for (const auto &b : {sim::BudgetConfig::paper201510(),
                          sim::BudgetConfig::paper252015(),
                          sim::BudgetConfig::paper302520()}) {
        if (label == b.label())
            return b;
    }
    util::fatal("unknown budgets '%s'", label.c_str());
}

std::vector<Scenario>
figure9Scenarios()
{
    return {Scenario::Coordinated, Scenario::Uncoordinated,
            Scenario::CoordApparentUtil, Scenario::CoordNoFeedback,
            Scenario::CoordNoBudgetLimits};
}

CoordinationConfig
coordinatedConfig()
{
    return CoordinationConfig{};
}

CoordinationConfig
uncoordinatedConfig()
{
    CoordinationConfig cfg;
    cfg.coordinated = false;
    return cfg;
}

CoordinationConfig
baselineConfig()
{
    CoordinationConfig cfg;
    cfg.enable_ec = false;
    cfg.enable_sm = false;
    cfg.enable_em = false;
    cfg.enable_gm = false;
    cfg.enable_vmc = false;
    cfg.enable_cap = false;
    return cfg;
}

CoordinationConfig
fleetConfig()
{
    CoordinationConfig cfg = coordinatedConfig();
    cfg.enable_vmc = false;
    cfg.log_control_plane = false;
    return cfg;
}

CoordinationConfig
scenarioConfig(Scenario s)
{
    switch (s) {
      case Scenario::Baseline:
        return baselineConfig();
      case Scenario::Coordinated:
        return coordinatedConfig();
      case Scenario::Uncoordinated:
        return uncoordinatedConfig();
      case Scenario::NoVmc: {
        CoordinationConfig cfg = coordinatedConfig();
        cfg.enable_vmc = false;
        return cfg;
      }
      case Scenario::VmcOnly: {
        CoordinationConfig cfg = coordinatedConfig();
        cfg.enable_ec = false;
        cfg.enable_sm = false;
        cfg.enable_em = false;
        cfg.enable_gm = false;
        return cfg;
      }
      case Scenario::CoordApparentUtil: {
        CoordinationConfig cfg = coordinatedConfig();
        cfg.vmc.use_real_util = false;
        return cfg;
      }
      case Scenario::CoordNoFeedback: {
        CoordinationConfig cfg = coordinatedConfig();
        cfg.vmc.use_violation_feedback = false;
        return cfg;
      }
      case Scenario::CoordNoBudgetLimits: {
        CoordinationConfig cfg = coordinatedConfig();
        cfg.vmc.use_budget_constraints = false;
        return cfg;
      }
    }
    util::panic("scenarioConfig: unreachable");
}

CoordinationConfig
withoutPowerOff(CoordinationConfig base)
{
    base.vmc.allow_power_off = false;
    return base;
}

CoordinationConfig
withBudgets(CoordinationConfig base, const sim::BudgetConfig &budgets)
{
    base.budgets = budgets;
    return base;
}

CoordinationConfig
withTimeConstants(CoordinationConfig base, unsigned t_ec, unsigned t_sm,
                  unsigned t_em, unsigned t_gm, unsigned t_vmc)
{
    if (t_ec)
        base.ec.period = t_ec;
    if (t_sm)
        base.sm.period = t_sm;
    if (t_em)
        base.em.period = t_em;
    if (t_gm)
        base.gm.period = t_gm;
    if (t_vmc)
        base.vmc.period = t_vmc;
    return base;
}

CoordinationConfig
withPolicy(CoordinationConfig base, controllers::DivisionPolicy policy)
{
    base.em.policy = policy;
    base.gm.policy = policy;
    return base;
}

} // namespace core
} // namespace nps
