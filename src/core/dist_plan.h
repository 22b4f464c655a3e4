/**
 * @file
 * DistPlan: the declarative description of a distributed control-plane
 * run (docs/DISTRIBUTED.md) — which experiment to run, which socket the
 * process tree meets on, and which management levels live in which
 * child process:
 *
 *     [dist]
 *     transport = unix            # unix | tcp
 *     socket = /tmp/nps-dist.sock # path (unix) or port (tcp)
 *     timeout_ms = 30000
 *     restart_after = 40          # restart killed ranks after N ticks
 *
 *     [run]
 *     scenario = coordinated
 *     mix = 60M
 *     ticks = 480
 *
 *     [node group]
 *     levels = gm:*
 *
 *     [node enclosures]
 *     levels = em:*, vmc
 *
 *     [chaos]
 *     kill = 1@120                # SIGKILL rank 1 at the tick-120 barrier
 *
 *     [netem]
 *     seed = 7
 *     deadline_ticks = 3
 *     script = delay gm-em 100 200 1 2; partition em-sm 240 300
 *
 * Each [node] section becomes one npsnode child; ranks are assigned
 * 1..N in file order (rank 0 is the supervisor, which hosts everything
 * not claimed by a node). Only the *global* levels — gm, em, vmc — may
 * be claimed: they run on the engine thread in every process, which is
 * what lets the socket transport work without locks and keeps results
 * byte-identical across thread counts (stream/socket_transport.h). The
 * per-server levels (sm, ec, cap, mem) are sharded across worker
 * threads and always stay on the supervisor.
 *
 * Loading is strict in the config_io style: unknown sections, keys,
 * level names, malformed selectors, overlapping claims and out-of-range
 * kills are all fatal at parse time.
 */

#ifndef NPS_CORE_DIST_PLAN_H
#define NPS_CORE_DIST_PLAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/transport.h"
#include "util/fields.h"
#include "util/ini.h"

namespace nps {
namespace core {

/**
 * A parsed, validated distributed-run plan.
 */
struct DistPlan
{
    /** One `level:id` (or `level:*`) claim inside a [node] section. */
    struct Selector
    {
        bus::OwnerLevel level = bus::OwnerLevel::Gm;
        long id = 0;      //!< instance id; meaningless when all is set
        bool all = false; //!< `level:*` — every instance of the level
    };

    /** One [node NAME] section; rank = its index in nodes + 1. */
    struct Node
    {
        std::string name;
        std::vector<Selector> selectors;
    };

    /** One scheduled SIGKILL from the [chaos] section. */
    struct Kill
    {
        int rank = 0;
        uint64_t tick = 0;
    };

    /// @name [dist]
    /// @{
    std::string transport = "unix"; //!< unix | tcp
    std::string socket;             //!< path (unix) or port (tcp)
    unsigned timeout_ms = 30000;    //!< barrier/socket silence guard
    /** Ticks a killed rank stays down before the supervisor restarts
     * it from a snapshot; 0 leaves dead ranks down for good. */
    unsigned restart_after = 0;
    /** Wall-clock keepalive period per socket; 0 disables heartbeats
     * (the wire protocol is then byte-identical to earlier versions). */
    unsigned hb_ms = 0;
    /** Per-rank silence budget before the supervisor declares the rank
     * dead (soft failure, same recovery path as a detected kill);
     * 0 disables and only the hard timeout_ms guard applies. */
    unsigned peer_timeout_ms = 0;
    /** Connect retries a rank makes before giving up on the hub. */
    unsigned reconnect_attempts = 10;
    /** First reconnect backoff (doubles per attempt, plus jitter). */
    unsigned reconnect_base_ms = 50;
    /** Backoff ceiling. */
    unsigned reconnect_max_ms = 2000;
    /// @}

    /// @name [netem] — deterministic wire chaos (docs/NETWORK_FAULTS.md)
    /// @{
    /** Set when a [netem] section is present: the netem layer is wired
     * into every process (and into --plan runs of the same file, which
     * is what keeps the two byte-identical). */
    bool netem = false;
    /** Seed of the per-(link, seq) counter-mode randomness. */
    uint64_t netem_seed = 1;
    /** Grant deadline in ticks: a delayed send due later than this is
     * dropped as expired (0 = no deadline). */
    unsigned netem_deadline = 0;
    /** The event script (';'-separated clauses; NetemSchedule::parse
     * grammar). Validated at plan load. */
    std::string netem_script;
    /// @}

    /// @name [run] — the same experiment knobs npsim takes as flags
    /// @{
    std::string scenario = "coordinated";
    std::string machine = "BladeA";
    std::string mix = "180";
    std::string budgets = "20-15-10";
    size_t ticks = 2880;
    uint64_t seed = 20080301;
    unsigned threads = 0;
    unsigned record_stride = 1;
    /// @}

    /// @name [obs] — the live observability plane (docs/OBSERVABILITY.md)
    /// @{
    /** Metrics on in *every* process (the registries must be replicated
     * for the cross-rank digest check, so this lives in the plan, not
     * in a per-process flag). Set when an [obs] section is present. */
    bool obs_metrics = false;
    /** Ticks between registry snapshots shipped to the supervisor. */
    unsigned obs_metrics_every = 1;
    /** Live endpoint spec per process ("%r" expands to the rank);
     * empty runs without endpoints. */
    std::string obs_http;
    /** Post-run serving window so scripts can take the final scrape. */
    unsigned obs_http_linger_ms = 0;
    /** Causal budget-cascade tracing in every process. */
    bool obs_cascade = false;
    /// @}

    std::vector<Node> nodes;
    std::vector<Kill> kills;

    /** obs_http with "%r" expanded for @p rank ("" stays ""). */
    std::string obsHttpFor(int rank) const;

    /** The endpoint spec for stream::listenOn / stream::connectTo. */
    std::string endpoint() const { return transport + ":" + socket; }

    /** Rank hosting instance @p id of @p level (0 = supervisor). */
    int ownerOf(bus::OwnerLevel level, long id) const;

    /** ownerOf as the callable Coordinator::attachTransport expects.
     * The returned closure copies the node table, so it outlives this
     * plan object. */
    bus::OwnerFn ownerFn() const;
};

/** The schema of the fixed plan sections ([dist], [run], [obs],
 * [netem], [chaos]), one row per key; [node NAME] sections are the
 * only ones not in it. */
const std::vector<util::Field<DistPlan>> &planFields();

/**
 * Parse and validate a DistPlan from an INI document. Keys not present
 * keep their defaults; unknown sections/keys, bad selectors, levels
 * that cannot be distributed, overlapping claims and out-of-range
 * [chaos] kills are fatal.
 */
DistPlan planFromIni(const util::IniDocument &ini);

/** Load a plan from an INI file. */
DistPlan loadPlanFile(const std::string &path);

} // namespace core
} // namespace nps

#endif // NPS_CORE_DIST_PLAN_H
