#include "fault/netem/netem.h"

#include "util/logging.h"
#include "util/parse.h"
#include "util/random.h"

namespace nps {
namespace fault {
namespace netem {

const char *
netemKindName(NetemKind kind)
{
    switch (kind) {
    case NetemKind::Delay: return "delay";
    case NetemKind::Duplicate: return "dup";
    case NetemKind::Corrupt: return "corrupt";
    case NetemKind::Partition: return "partition";
    }
    return "?";
}

namespace {

std::string
targetText(const NetemEvent &e)
{
    if (e.all)
        return "*";
    if (e.by_rank)
        return "rank:" + std::to_string(e.rank);
    return linkName(e.link);
}

} // namespace

std::string
NetemEvent::toText() const
{
    std::string out = std::string(netemKindName(kind)) + ' ' +
                      targetText(*this) + ' ' + std::to_string(start) +
                      ' ' + std::to_string(end);
    if (kind == NetemKind::Delay)
        out += ' ' + util::numberText(a) + ' ' + util::numberText(b);
    else if (kind != NetemKind::Partition)
        out += ' ' + util::numberText(a);
    return out;
}

namespace {

void
parseTarget(const std::string &t, const std::string &clause,
            const std::string &in, NetemEvent *e)
{
    if (t == "*") {
        e->all = true;
        return;
    }
    if (t.rfind("rank:", 0) == 0) {
        e->by_rank = true;
        e->rank = util::parseNumber<int>(t.substr(5), in + " rank", 0);
        return;
    }
    if (!linkFromName(t, &e->link))
        util::fatal("netem script: unknown target '%s' in '%s' "
                    "(want gm-em|gm-sm|em-sm|gm-gm|rank:N|*)",
                    t.c_str(), clause.c_str());
}

} // namespace

NetemEvent
NetemEvent::fromClause(const util::Clause &c)
{
    const std::vector<std::string> &tok = c.tokens;
    const std::string &clause = c.text;
    const std::string in = "netem script '" + clause + "'";
    NetemEvent e;
    const std::string &verb = tok[0];
    size_t min_tok = 4, max_tok = 4;
    if (verb == "delay") {
        e.kind = NetemKind::Delay;
        min_tok = 5;
        max_tok = 6;
    } else if (verb == "dup") {
        e.kind = NetemKind::Duplicate;
        e.a = 1.0;
        max_tok = 5;
    } else if (verb == "corrupt") {
        e.kind = NetemKind::Corrupt;
        e.a = 1.0;
        max_tok = 5;
    } else if (verb == "partition") {
        e.kind = NetemKind::Partition;
    } else {
        util::fatal("netem script: unknown verb '%s' in '%s' "
                    "(want delay|dup|corrupt|partition)",
                    verb.c_str(), clause.c_str());
    }
    if (tok.size() < min_tok || tok.size() > max_tok)
        util::fatal("netem script: wrong arity for '%s' in '%s'",
                    verb.c_str(), clause.c_str());
    parseTarget(tok[1], clause, in, &e);
    e.start = util::parseNumber<size_t>(tok[2], in + " start");
    e.end = util::parseNumber<size_t>(tok[3], in + " end");
    if (e.end <= e.start)
        util::fatal("netem script: empty interval [%zu, %zu) in '%s'",
                    e.start, e.end, clause.c_str());
    // Delays are whole ticks (NetemModel truncates them to size_t), so
    // they stay within the doubles that hold every integer exactly.
    if (e.kind == NetemKind::Delay) {
        const double most = 9007199254740992.0; // 2^53
        e.a = util::parseNumber<double>(tok[4], in + " delay", 0.0, most);
        if (tok.size() > 5)
            e.b = util::parseNumber<double>(tok[5], in + " jitter", 0.0,
                                            most);
    } else if (tok.size() > 4) {
        e.a = util::parseNumber<double>(tok[4], in + " probability", 0.0,
                                        1.0);
    }
    return e;
}

namespace {

/**
 * Counter-mode stream key for one (kind, wire, seq) query. Keyed per
 * send, not per tick: a send keeps its verdict whether it is resolved
 * by rank 0 or rank 3, on the engine thread or a worker.
 */
uint64_t
sendKey(uint64_t seed, NetemKind kind, uint32_t wire_id, uint64_t seq)
{
    return util::counterKey(seed, static_cast<uint64_t>(kind), wire_id,
                            seq);
}

} // namespace

NetemModel::NetemModel(NetemSchedule schedule, uint64_t seed,
                       size_t deadline_ticks)
    : schedule_(std::move(schedule)), seed_(seed),
      deadline_(deadline_ticks)
{
}

const NetemEvent *
NetemModel::find(NetemKind kind, Link cls, int owner_rank,
                 size_t tick) const
{
    return schedule_.active(kind, tick, [&](const NetemEvent &e) {
        return e.matches(cls, owner_rank);
    });
}

bool
NetemModel::partitioned(Link cls, int owner_rank, size_t tick) const
{
    return find(NetemKind::Partition, cls, owner_rank, tick) != nullptr;
}

bool
NetemModel::rankPartitioned(int rank, size_t tick) const
{
    return schedule_.active(NetemKind::Partition, tick,
                            [&](const NetemEvent &e) {
                                return e.all ||
                                       (e.by_rank && e.rank == rank);
                            }) != nullptr;
}

size_t
NetemModel::delayTicks(Link cls, int owner_rank, uint32_t wire_id,
                       uint64_t seq, size_t tick) const
{
    const NetemEvent *e = find(NetemKind::Delay, cls, owner_rank, tick);
    if (!e)
        return 0;
    size_t base = static_cast<size_t>(e->a);
    size_t jitter = static_cast<size_t>(e->b);
    if (jitter == 0)
        return base;
    util::Rng rng(sendKey(seed_, NetemKind::Delay, wire_id, seq));
    return base + static_cast<size_t>(rng.below(jitter + 1));
}

bool
NetemModel::duplicated(Link cls, int owner_rank, uint32_t wire_id,
                       uint64_t seq, size_t tick) const
{
    const NetemEvent *e =
        find(NetemKind::Duplicate, cls, owner_rank, tick);
    if (!e)
        return false;
    if (e->a >= 1.0)
        return true;
    util::Rng rng(sendKey(seed_, NetemKind::Duplicate, wire_id, seq));
    return rng.bernoulli(e->a);
}

bool
NetemModel::corrupted(Link cls, int owner_rank, uint32_t wire_id,
                      uint64_t seq, size_t tick, size_t *byte_off) const
{
    const NetemEvent *e = find(NetemKind::Corrupt, cls, owner_rank, tick);
    if (!e)
        return false;
    util::Rng rng(sendKey(seed_, NetemKind::Corrupt, wire_id, seq));
    if (e->a < 1.0 && !rng.bernoulli(e->a))
        return false;
    if (byte_off)
        *byte_off = static_cast<size_t>(rng.next());
    return true;
}

} // namespace netem
} // namespace fault
} // namespace nps
