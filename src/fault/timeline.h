/**
 * @file
 * Timeline: the one materialized event store behind both degradation
 * layers — the logical faults (fault::FaultSchedule) and the wire
 * emulation (fault::netem::NetemSchedule).
 *
 * An event is one failure mode active against one target during the
 * half-open tick interval [start, end). A timeline keeps its events in
 * insertion order (the script order, which toText() renders) and, for
 * the runtime lookups, bucketed by kind. It is built before the run and
 * only read afterwards, so every query is thread-safe and a pure
 * function of the timeline (the determinism contract of docs/FAULTS.md).
 *
 * An Event type provides a `kind` member of an enum with `kKinds`
 * values, `activeAt(tick)`, `toText()`, and a static
 * `fromClause(const util::Clause &)` that parses one script clause.
 */

#ifndef NPS_FAULT_TIMELINE_H
#define NPS_FAULT_TIMELINE_H

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "util/parse.h"

namespace nps {
namespace fault {

template <class Event>
class Timeline
{
  public:
    using Kind = decltype(Event::kind);

    /**
     * Parse the event script @p text: one event per line or per
     * ';'-separated clause, '#' comments; Event::fromClause reads each
     * clause and fatal()s on a malformed one.
     */
    static Timeline
    parse(const std::string &text)
    {
        Timeline out;
        for (const util::Clause &c : util::lexClauses(text))
            out.add(Event::fromClause(c));
        return out;
    }

    /** Append one event. */
    void
    add(const Event &event)
    {
        events_.push_back(event);
        by_kind_[static_cast<size_t>(event.kind)].push_back(event);
    }

    /** Append every event of @p other. */
    void
    merge(const Timeline &other)
    {
        for (const Event &e : other.events_)
            add(e);
    }

    /** The events, in insertion order. */
    const std::vector<Event> &events() const { return events_; }

    /** @return true when the timeline holds no events. */
    bool empty() const { return events_.empty(); }

    /**
     * The first event of @p kind (in insertion order) active at @p tick
     * that @p match accepts, or null.
     */
    template <class Match>
    const Event *
    active(Kind kind, size_t tick, Match match) const
    {
        for (const Event &e : by_kind_[static_cast<size_t>(kind)]) {
            if (e.activeAt(tick) && match(e))
                return &e;
        }
        return nullptr;
    }

    /** Number of events active at @p tick (for telemetry). */
    size_t
    activeCount(size_t tick) const
    {
        size_t n = 0;
        for (const Event &e : events_)
            n += e.activeAt(tick) ? 1 : 0;
        return n;
    }

    /**
     * Render as a script parse() accepts, clauses joined by @p sep
     * (use "\n" for files, "; " for inline INI values).
     */
    std::string
    toText(const std::string &sep = "\n") const
    {
        std::string out;
        for (size_t i = 0; i < events_.size(); ++i) {
            if (i > 0)
                out += sep;
            out += events_[i].toText();
        }
        return out;
    }

  private:
    std::vector<Event> events_;
    std::array<std::vector<Event>, Event::kKinds> by_kind_;
};

} // namespace fault
} // namespace nps

#endif // NPS_FAULT_TIMELINE_H
