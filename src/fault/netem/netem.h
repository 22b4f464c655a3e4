/**
 * @file
 * Deterministic network emulation for the control plane
 * (docs/NETWORK_FAULTS.md).
 *
 * Where the fault layer (fault/fault.h) models *logical* failures —
 * messages silently lost or replayed stale — netem models the *wire*:
 * latency, reordering, duplication, byte corruption, and partitions on
 * the budget links of the GM→EM→SM hierarchy. Events are half-open tick
 * intervals [start, end) targeting a link class (gm-em, gm-sm, em-sm,
 * gm-gm), a process rank's links (rank:N), or everything (*).
 *
 *   delay     — each send is queued and delivered base..base+jitter
 *               ticks later at the tick barrier (never mid-tick);
 *   dup       — each send is additionally written to the wire a second
 *               time (the receiver's duplicate window discards it);
 *   corrupt   — a byte-flipped copy of the frame precedes the clean
 *               one on the wire (the NPSF CRC rejects it and the
 *               decoder resyncs);
 *   partition — every send on the target is dropped outright, feeding
 *               the lease/fallback degradation ladder until the heal.
 *
 * Determinism contract (docs/FAULTS.md): NetemModel is immutable and
 * every query is a pure function of (schedule, seed, link, seq). The
 * schedule is the same fault::Timeline the fault layer uses, and
 * per-send randomness comes from the same util::counterKey, so a
 * schedule resolves identically at any thread count and under any
 * process layout, and `--plan` stays byte-identical to `--distributed`.
 */

#ifndef NPS_FAULT_NETEM_NETEM_H
#define NPS_FAULT_NETEM_NETEM_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/fault.h"

namespace nps {
namespace fault {
namespace netem {

/** Wire-failure modes (see file comment). */
enum class NetemKind
{
    Delay,
    Duplicate,
    Corrupt,
    Partition,
};

/** Script/diagnostic name of a netem kind. */
const char *netemKindName(NetemKind kind);

/**
 * One netem event: @p kind active against one target during the
 * half-open tick interval [start, end).
 */
struct NetemEvent
{
    NetemKind kind = NetemKind::Delay;
    /** Target selector: exactly one of (all, by_rank, link class). */
    bool all = false;     //!< '*': every eligible link
    bool by_rank = false; //!< 'rank:N': links owned by process rank N
    Link link = Link::GmToEm; //!< link-class target (when !all && !by_rank)
    int rank = 0;             //!< rank target (when by_rank)
    size_t start = 0;         //!< first tick the event is active
    size_t end = 0;           //!< first tick the event is inactive
    /**
     * Kind-specific magnitudes: base delay in ticks and jitter span
     * (Delay draws base..base+jitter inclusive); per-send probability
     * in `a` (Duplicate, Corrupt); unused for Partition.
     */
    double a = 0.0;
    double b = 0.0;

    /** @return true when the event is active at @p tick. */
    bool activeAt(size_t tick) const { return tick >= start && tick < end; }

    /** @return true when the event targets (@p cls, @p owner_rank). */
    bool
    matches(Link cls, int owner_rank) const
    {
        if (all)
            return true;
        if (by_rank)
            return rank == owner_rank;
        return link == cls;
    }

    /** @return the one-line script form (parseable by fromClause()). */
    std::string toText() const;

    /** Parse one script clause (NetemSchedule grammar); fatal() if bad. */
    static NetemEvent fromClause(const util::Clause &clause);

    /** Number of NetemKind values (Timeline bucket count). */
    static constexpr size_t kKinds =
        static_cast<size_t>(NetemKind::Partition) + 1;
};

/**
 * A complete, materialized netem campaign. parse() reads the event
 * script: one event per line (or per ';'-separated clause), '#'
 * comments. Grammar (docs/NETWORK_FAULTS.md):
 *
 *   delay     <target> <start> <end> <base> [jitter]
 *   dup       <target> <start> <end> [prob]
 *   corrupt   <target> <start> <end> [prob]
 *   partition <target> <start> <end>
 *
 * with <target> one of gm-em | gm-sm | em-sm | gm-gm | rank:N | *.
 */
using NetemSchedule = Timeline<NetemEvent>;

/**
 * Read-only netem oracle: the pure query surface of a materialized
 * schedule. Immutable after construction; see the file comment for the
 * determinism contract.
 */
class NetemModel
{
  public:
    NetemModel() = default;

    /**
     * @param schedule       The materialized campaign.
     * @param seed           Seed of the per-(link, seq) randomness.
     * @param deadline_ticks Grant deadline: a delayed send due more
     *                       than this many ticks after its send tick is
     *                       dropped as expired instead of queued
     *                       (0 = no deadline).
     */
    NetemModel(NetemSchedule schedule, uint64_t seed,
               size_t deadline_ticks);

    /** The campaign. */
    const NetemSchedule &schedule() const { return schedule_; }

    /** The grant deadline in ticks (0 = none). */
    size_t deadlineTicks() const { return deadline_; }

    /** @return true when the schedule holds no events. */
    bool empty() const { return schedule_.empty(); }

    /** @return true when (@p cls, @p owner_rank) is partitioned. */
    bool partitioned(Link cls, int owner_rank, size_t tick) const;

    /**
     * @return true when a partition event targets process rank @p rank
     * at @p tick (rank:N or '*' selectors; used for supervisor-side
     * health states, not message resolution).
     */
    bool rankPartitioned(int rank, size_t tick) const;

    /**
     * Extra delivery latency in ticks for the send (@p wire_id, @p seq)
     * on (@p cls, @p owner_rank) at @p tick: a uniform draw in
     * [base, base+jitter] of the first matching active Delay event, 0
     * when none. Deterministic in (seed, wire_id, seq).
     */
    size_t delayTicks(Link cls, int owner_rank, uint32_t wire_id,
                      uint64_t seq, size_t tick) const;

    /** Roll the per-send duplicate coin. Deterministic as delayTicks. */
    bool duplicated(Link cls, int owner_rank, uint32_t wire_id,
                    uint64_t seq, size_t tick) const;

    /**
     * Roll the per-send corruption coin; on hit also yields the byte
     * offset to flip (reduced modulo frame size by the caller).
     */
    bool corrupted(Link cls, int owner_rank, uint32_t wire_id,
                   uint64_t seq, size_t tick, size_t *byte_off) const;

  private:
    const NetemEvent *find(NetemKind kind, Link cls, int owner_rank,
                           size_t tick) const;

    NetemSchedule schedule_;
    uint64_t seed_ = 1;
    size_t deadline_ = 0;
};

} // namespace netem
} // namespace fault
} // namespace nps

#endif // NPS_FAULT_NETEM_NETEM_H
