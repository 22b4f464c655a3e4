#include "core/dist_plan.h"

#include <limits>
#include <map>
#include <set>
#include <utility>

#include "fault/netem/netem.h"
#include "util/logging.h"
#include "util/parse.h"

namespace nps {
namespace core {

namespace {

using util::IniDocument;

const char *
levelName(bus::OwnerLevel level)
{
    switch (level) {
    case bus::OwnerLevel::Gm: return "gm";
    case bus::OwnerLevel::Em: return "em";
    case bus::OwnerLevel::Sm: return "sm";
    case bus::OwnerLevel::Ec: return "ec";
    case bus::OwnerLevel::Vmc: return "vmc";
    case bus::OwnerLevel::Cap: return "cap";
    case bus::OwnerLevel::Mem: return "mem";
    }
    return "?";
}

DistPlan::Selector
parseSelector(const std::string &text, const std::string &node)
{
    static const std::map<std::string, bus::OwnerLevel> global{
        {"gm", bus::OwnerLevel::Gm},
        {"em", bus::OwnerLevel::Em},
        {"vmc", bus::OwnerLevel::Vmc},
    };
    static const std::set<std::string> sharded{"sm", "ec", "cap", "mem"};

    std::string level = text;
    std::string inst;
    size_t colon = text.find(':');
    if (colon != std::string::npos) {
        level = util::trim(text.substr(0, colon));
        inst = util::trim(text.substr(colon + 1));
    }
    auto it = global.find(level);
    if (it == global.end()) {
        if (sharded.count(level))
            util::fatal("plan: [node %s] claims '%s' — per-server "
                        "levels (sm, ec, cap, mem) are sharded across "
                        "worker threads and must stay on the "
                        "supervisor; only gm, em and vmc can be "
                        "distributed (docs/DISTRIBUTED.md)",
                        node.c_str(), text.c_str());
        util::fatal("plan: [node %s] has unknown level in '%s' (want "
                    "gm, em or vmc)", node.c_str(), text.c_str());
    }

    DistPlan::Selector sel;
    sel.level = it->second;
    if (inst.empty() || inst == "*")
        sel.all = true; // bare 'vmc' and 'gm:*' both mean every instance
    else
        sel.id = util::parseNumber<long>(
            inst, "plan [node " + node + "] '" + text + "' instance id", 0,
            std::numeric_limits<unsigned>::max());
    return sel;
}

/** [chaos] kill: a comma list of RANK@TICK; ranges are checked
 * against the node table and the run length once both are known. */
util::Field<DistPlan>
chaosKills()
{
    return {"chaos", "kill", util::FieldKind::Text, {},
            [](DistPlan &p, const std::string &raw, const std::string &what) {
                p.kills.clear();
                for (const auto &item : util::splitList(raw, ',')) {
                    size_t at = item.find('@');
                    if (at == std::string::npos)
                        util::fatal("%s: bad '%s' (want RANK@TICK)",
                                    what.c_str(), item.c_str());
                    std::string in = what + " '" + item + "'";
                    DistPlan::Kill kill;
                    kill.rank = util::parseNumber<int>(
                        util::trim(item.substr(0, at)), in + " rank", 0);
                    kill.tick = util::parseNumber<uint64_t>(
                        util::trim(item.substr(at + 1)), in + " tick");
                    p.kills.push_back(kill);
                }
            },
            [](const DistPlan &p) {
                std::string out;
                for (const auto &k : p.kills)
                    out += (out.empty() ? "" : ", ") +
                           std::to_string(k.rank) + "@" +
                           std::to_string(k.tick);
                return out;
            }};
}

/** Fatal when two selectors could claim the same controller. */
void
checkOverlap(const DistPlan &plan)
{
    // (level, id) -> claiming node name; id -1 stands for '*'.
    std::map<std::pair<int, long>, std::string> claims;
    for (const auto &node : plan.nodes) {
        for (const auto &sel : node.selectors) {
            int lv = static_cast<int>(sel.level);
            long id = sel.all ? -1 : sel.id;
            auto ins = claims.emplace(std::make_pair(lv, id), node.name);
            bool clash = !ins.second;
            if (!clash && sel.all) {
                // A new '*' collides with any existing specific claim.
                for (const auto &c : claims)
                    if (c.first.first == lv && c.first.second >= 0)
                        clash = true;
            }
            if (!clash && !sel.all)
                clash = claims.count(std::make_pair(lv, -1L)) > 0;
            if (clash)
                util::fatal("plan: [node %s] claims %s:%s, which "
                            "overlaps an earlier claim — each "
                            "controller instance can live in exactly "
                            "one process", node.name.c_str(),
                            levelName(sel.level),
                            sel.all ? "*"
                                    : std::to_string(sel.id).c_str());
        }
    }
}

} // namespace

int
DistPlan::ownerOf(bus::OwnerLevel level, long id) const
{
    for (size_t n = 0; n < nodes.size(); ++n) {
        for (const auto &sel : nodes[n].selectors) {
            if (sel.level == level && (sel.all || sel.id == id))
                return static_cast<int>(n) + 1;
        }
    }
    return 0;
}

std::string
DistPlan::obsHttpFor(int rank) const
{
    std::string out = obs_http;
    size_t at = out.find("%r");
    if (at != std::string::npos)
        out.replace(at, 2, std::to_string(rank));
    return out;
}

bus::OwnerFn
DistPlan::ownerFn() const
{
    DistPlan copy = *this;
    return [copy](bus::OwnerLevel level, long id) {
        return copy.ownerOf(level, id);
    };
}

#define M(member) [](auto &p) -> auto & { return p.member; }

const std::vector<util::Field<DistPlan>> &
planFields()
{
    using P = DistPlan;
    using util::field;
    static const std::vector<util::Field<P>> table{
        util::enumField<P>("dist", "transport", M(transport),
                           {{"unix", "unix"}, {"tcp", "tcp"}}),
        field<P>("dist", "socket", M(socket)),
        field<P>("dist", "timeout_ms", M(timeout_ms), 1u),
        field<P>("dist", "restart_after", M(restart_after)),
        field<P>("dist", "hb_ms", M(hb_ms)),
        field<P>("dist", "peer_timeout_ms", M(peer_timeout_ms)),
        field<P>("dist", "reconnect_attempts", M(reconnect_attempts)),
        field<P>("dist", "reconnect_base_ms", M(reconnect_base_ms)),
        field<P>("dist", "reconnect_max_ms", M(reconnect_max_ms)),

        field<P>("run", "scenario", M(scenario)),
        field<P>("run", "machine", M(machine)),
        field<P>("run", "mix", M(mix)),
        field<P>("run", "budgets", M(budgets)),
        field<P>("run", "ticks", M(ticks), 1u),
        field<P>("run", "seed", M(seed)),
        field<P>("run", "threads", M(threads)),
        field<P>("run", "record_stride", M(record_stride), 1u),

        field<P>("obs", "metrics_every", M(obs_metrics_every), 1u),
        field<P>("obs", "http", M(obs_http)),
        field<P>("obs", "http_linger_ms", M(obs_http_linger_ms)),
        field<P>("obs", "cascade", M(obs_cascade)),

        field<P>("netem", "seed", M(netem_seed)),
        field<P>("netem", "deadline_ticks", M(netem_deadline)),
        field<P>("netem", "script", M(netem_script)),

        chaosKills(),
    };
    return table;
}

#undef M

DistPlan
planFromIni(const IniDocument &ini)
{
    DistPlan plan;
    for (const auto &section : ini.sections()) {
        if (section.rfind("node ", 0) == 0) {
            DistPlan::Node node;
            node.name = util::trim(section.substr(5));
            if (node.name.empty())
                util::fatal("plan: [node] section needs a name");
            for (const auto &key : ini.keys(section))
                if (key != "levels")
                    util::fatal("plan: unknown key '%s' in [node %s]",
                                key.c_str(), node.name.c_str());
            for (const auto &item :
                 util::splitList(ini.get(section, "levels"), ','))
                node.selectors.push_back(parseSelector(item, node.name));
            if (node.selectors.empty())
                util::fatal("plan: [node %s] claims no levels",
                            node.name.c_str());
            for (const auto &prev : plan.nodes)
                if (prev.name == node.name)
                    util::fatal("plan: duplicate [node %s]",
                                node.name.c_str());
            plan.nodes.push_back(std::move(node));
        } else if (util::hasSection(planFields(), section)) {
            util::checkKeys(planFields(), ini, section, "plan");
            // A present [obs] switches the replicated registries on and
            // a present [netem] wires the (bit-transparent when the
            // script is empty) netem transport in; their keys only
            // tune them.
            plan.obs_metrics = plan.obs_metrics || section == "obs";
            plan.netem = plan.netem || section == "netem";
        } else {
            util::fatal("plan: unknown section [%s]", section.c_str());
        }
    }
    util::readFields(planFields(), ini, plan, "plan");

    if (plan.socket.empty())
        util::fatal("plan: [dist] socket is required (a path for unix, "
                    "a port for tcp)");
    if (plan.peer_timeout_ms && plan.peer_timeout_ms >= plan.timeout_ms)
        util::fatal("plan: [dist] peer_timeout_ms (%u) must stay below "
                    "timeout_ms (%u) — per-peer detection is pointless "
                    "once the whole-socket guard has already fired",
                    plan.peer_timeout_ms, plan.timeout_ms);

    if (plan.netem) {
        // Parse now so a malformed script dies at plan load, and check
        // rank targets against the node table.
        fault::netem::NetemSchedule sched =
            fault::netem::NetemSchedule::parse(plan.netem_script);
        for (const auto &ev : sched.events()) {
            if (ev.by_rank &&
                (ev.rank < 0 ||
                 ev.rank > static_cast<int>(plan.nodes.size())))
                util::fatal("plan: [netem] event '%s' targets rank %d, "
                            "but the plan has ranks 0..%zu",
                            ev.toText().c_str(), ev.rank,
                            plan.nodes.size());
            if (ev.start >= plan.ticks)
                util::fatal("plan: [netem] event '%s' starts at tick "
                            "%zu, past the run's %zu ticks",
                            ev.toText().c_str(), ev.start, plan.ticks);
        }
    }

    checkOverlap(plan);

    for (const auto &kill : plan.kills) {
        std::string item =
            std::to_string(kill.rank) + "@" + std::to_string(kill.tick);
        if (kill.rank < 1 ||
            kill.rank > static_cast<int>(plan.nodes.size()))
            util::fatal("plan: [chaos] kill '%s' names rank %d, but "
                        "the plan has ranks 1..%zu (rank 0, the "
                        "supervisor, cannot be killed)", item.c_str(),
                        kill.rank, plan.nodes.size());
        if (kill.tick == 0 || kill.tick >= plan.ticks)
            util::fatal("plan: [chaos] kill '%s' is outside ticks "
                        "1..%zu", item.c_str(), plan.ticks - 1);
    }

    return plan;
}

DistPlan
loadPlanFile(const std::string &path)
{
    return planFromIni(util::readIniFile(path));
}

} // namespace core
} // namespace nps
