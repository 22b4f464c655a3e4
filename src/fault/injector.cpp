#include "fault/injector.h"

#include "util/random.h"

namespace nps {
namespace fault {

DegradeStats &
DegradeStats::operator+=(const DegradeStats &o)
{
    outage_ticks += o.outage_ticks;
    outage_steps += o.outage_steps;
    restarts += o.restarts;
    lease_expiries += o.lease_expiries;
    lease_fallback_steps += o.lease_fallback_steps;
    ec_fallback_steps += o.ec_fallback_steps;
    dropped_budgets += o.dropped_budgets;
    stale_budgets += o.stale_budgets;
    stuck_actuations += o.stuck_actuations;
    noisy_reads += o.noisy_reads;
    netem_delayed += o.netem_delayed;
    netem_late_deliveries += o.netem_late_deliveries;
    netem_expired += o.netem_expired;
    netem_partition_drops += o.netem_partition_drops;
    netem_reorder_drops += o.netem_reorder_drops;
    return *this;
}

bool
DegradeStats::none() const
{
    return outage_ticks == 0 && outage_steps == 0 && restarts == 0 &&
           lease_expiries == 0 && lease_fallback_steps == 0 &&
           ec_fallback_steps == 0 && dropped_budgets == 0 &&
           stale_budgets == 0 && stuck_actuations == 0 &&
           noisy_reads == 0 && netem_delayed == 0 &&
           netem_late_deliveries == 0 && netem_expired == 0 &&
           netem_partition_drops == 0 && netem_reorder_drops == 0;
}

void
DegradeStats::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(outage_ticks);
    w.putU64(outage_steps);
    w.putU64(restarts);
    w.putU64(lease_expiries);
    w.putU64(lease_fallback_steps);
    w.putU64(ec_fallback_steps);
    w.putU64(dropped_budgets);
    w.putU64(stale_budgets);
    w.putU64(stuck_actuations);
    w.putU64(noisy_reads);
    w.putU64(netem_delayed);
    w.putU64(netem_late_deliveries);
    w.putU64(netem_expired);
    w.putU64(netem_partition_drops);
    w.putU64(netem_reorder_drops);
}

void
DegradeStats::loadState(ckpt::SectionReader &r)
{
    outage_ticks = static_cast<unsigned long>(r.getU64());
    outage_steps = static_cast<unsigned long>(r.getU64());
    restarts = static_cast<unsigned long>(r.getU64());
    lease_expiries = static_cast<unsigned long>(r.getU64());
    lease_fallback_steps = static_cast<unsigned long>(r.getU64());
    ec_fallback_steps = static_cast<unsigned long>(r.getU64());
    dropped_budgets = static_cast<unsigned long>(r.getU64());
    stale_budgets = static_cast<unsigned long>(r.getU64());
    stuck_actuations = static_cast<unsigned long>(r.getU64());
    noisy_reads = static_cast<unsigned long>(r.getU64());
    netem_delayed = static_cast<unsigned long>(r.getU64());
    netem_late_deliveries = static_cast<unsigned long>(r.getU64());
    netem_expired = static_cast<unsigned long>(r.getU64());
    netem_partition_drops = static_cast<unsigned long>(r.getU64());
    netem_reorder_drops = static_cast<unsigned long>(r.getU64());
}

FaultInjector::FaultInjector(FaultSchedule schedule, uint64_t seed)
    : schedule_(std::move(schedule)), seed_(seed)
{
}

const FaultEvent *
FaultInjector::find(FaultKind kind, size_t tick, Level level, Link link,
                    long id) const
{
    return schedule_.active(kind, tick, [&](const FaultEvent &e) {
        if (e.id != FaultEvent::kAll && e.id != id)
            return false;
        if (kind == FaultKind::Outage)
            return e.level == level;
        if (kind == FaultKind::DropBudget || kind == FaultKind::StaleBudget)
            return e.link == link;
        return true;
    });
}

bool
FaultInjector::down(Level level, long id, size_t tick) const
{
    return find(FaultKind::Outage, tick, level, Link::EmToSm, id) !=
           nullptr;
}

bool
FaultInjector::budgetDropped(Link link, long id, size_t tick) const
{
    const FaultEvent *e = find(FaultKind::DropBudget, tick, Level::SM, link, id);
    if (!e)
        return false;
    if (e->magnitude >= 1.0)
        return true;
    // Per-send coin flip, keyed so the answer is a pure function of the
    // query — identical on every thread and on every repeat.
    util::Rng rng(util::counterKey(
        seed_, static_cast<uint64_t>(FaultKind::DropBudget),
        static_cast<uint64_t>(id * 4 + static_cast<long>(link)), tick));
    return rng.bernoulli(e->magnitude);
}

bool
FaultInjector::budgetStale(Link link, long id, size_t tick) const
{
    return find(FaultKind::StaleBudget, tick, Level::SM, link, id) != nullptr;
}

bool
FaultInjector::pstateStuck(long id, size_t tick) const
{
    return find(FaultKind::StuckPState, tick, Level::SM, Link::EmToSm, id) != nullptr;
}

bool
FaultInjector::utilFrozen(long id, size_t tick) const
{
    return find(FaultKind::UtilFreeze, tick, Level::SM, Link::EmToSm, id) != nullptr;
}

double
FaultInjector::utilNoise(long id, size_t tick) const
{
    const FaultEvent *e = find(FaultKind::UtilNoise, tick, Level::SM, Link::EmToSm, id);
    if (!e || e->magnitude <= 0.0)
        return 0.0;
    util::Rng rng(util::counterKey(
        seed_, static_cast<uint64_t>(FaultKind::UtilNoise),
        static_cast<uint64_t>(id), tick));
    return rng.gaussian(0.0, e->magnitude);
}

} // namespace fault
} // namespace nps
