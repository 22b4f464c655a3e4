/**
 * @file
 * nps_perfbench: the in-process half of the repository benchmark
 * (perfbench/README.md). perfbench/run.py builds it and runs one mode
 * per fresh process; each mode prints one JSON object on its last
 * stdout line: {"metrics": {...}, "checks": {...}, "info": {...}}.
 *
 *   fleet    FleetGen fleet under fleetConfig(): build, tick loop,
 *            checkpoint write and restore.
 *   campaign The Figure 7 grid through core::ExperimentRunner.
 *   twin     The single-process run of the 180-server paper testbed that
 *            a subprocess workload replays (kind plan: `npsim --plan`,
 *            kind batch: batch `npsim`); its recorder CSV must equal the
 *            subprocess's.
 *   decode   FrameDecoder over a captured npsfeed stream.
 *
 * All timing is done from outside the library: the benchmark times calls
 * into public functions, attaches an Engine tick source/observer pair for
 * per-tick times, and, in a traced pass, wraps every engine actor through
 * Engine::addActor's replace-by-name path to roll time up by level.
 *
 * Usage:
 *   nps_perfbench fleet    --seed N --seconds S --trace 0|1 --servers N
 *                          --work DIR
 *   nps_perfbench campaign --seed N --seconds S --trace 0|1 --ticks N
 *                          --work DIR
 *   nps_perfbench twin     --kind plan|batch --seed N --ticks N
 *                          --passes N --csv FILE --trace 0|1 --work DIR
 *   nps_perfbench decode   --file F --ticks N
 *   nps_perfbench info
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "ckpt/atomic_io.h"
#include "ckpt/snapshot.h"
#include "controllers/efficiency.h"
#include "controllers/enclosure_manager.h"
#include "controllers/group_manager.h"
#include "controllers/server_manager.h"
#include "controllers/vm_controller.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "sim/fleetgen.h"
#include "sim/recorder.h"
#include "stream/frame.h"
#include "trace/workload.h"
#include "util/logging.h"

namespace {

using namespace nps;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 20080301;

/** The paper testbed's server count (mix 180) that twin and decode use. */
constexpr unsigned kPaperServers = 180;
/** Recorder stride of a twin; run.py gives the tools the same one. */
constexpr unsigned kRecordStride = 10;

/**
 * Pinned digests at the default seed (FNV-1a over the hexfloat summary
 * text built by digestOf()): the 100k fleet after 100 ticks, and the
 * Figure 7 grid's baseline and scenario summaries at 2880 ticks. A
 * mismatch means the simulated behaviour changed; at any other seed only
 * the oracle checks apply.
 */
constexpr uint64_t kFleet100kDigest = 13624427602026467340ull;
constexpr uint64_t kCampaignDigest = 6750377048139284015ull;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
clockMs(clockid_t id)
{
    timespec ts;
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** CPU time of this process so far, in ms. */
double
cpuMs()
{
    return clockMs(CLOCK_PROCESS_CPUTIME_ID);
}

/** CPU time of the calling thread so far, in ms (the engine thread). */
double
threadCpuMs()
{
    return clockMs(CLOCK_THREAD_CPUTIME_ID);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Nearest-rank percentile (0 < q <= 1) of @p v: the ceil(q * n)-th
 * smallest value, so the p99 of 100 samples is the 99th, not the max.
 */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Exact (hexfloat) text of a run summary, the unit of every digest. */
std::string
digestOf(const sim::MetricsSummary &m)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "ticks=%zu energy=%a mean=%a peak=%a sm=%a em=%a gm=%a "
                  "perf_loss=%a\n",
                  m.ticks, m.energy, m.mean_power, m.peak_power,
                  m.sm_violation, m.em_violation, m.gm_violation,
                  m.perf_loss);
    return buf;
}

/** Named metrics, pass/fail checks and free-form info of one mode. */
class Report
{
  public:
    void metric(const std::string &name, double value)
    {
        metrics_[name] = value;
    }

    void check(const std::string &name, bool ok)
    {
        checks_[name] = ok;
        if (!ok)
            std::fprintf(stderr, "nps_perfbench: check failed: %s\n",
                         name.c_str());
    }

    void info(const std::string &name, const std::string &value)
    {
        info_[name] = value;
    }

    void print() const
    {
        std::printf("{\"metrics\": {");
        const char *sep = "";
        for (const auto &[k, v] : metrics_) {
            std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
            sep = ", ";
        }
        std::printf("}, \"checks\": {");
        sep = "";
        for (const auto &[k, v] : checks_) {
            std::printf("%s\"%s\": %s", sep, k.c_str(), v ? "true" : "false");
            sep = ", ";
        }
        std::printf("}, \"info\": {");
        sep = "";
        for (const auto &[k, v] : info_) {
            std::printf("%s\"%s\": \"%s\"", sep, k.c_str(), v.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
    }

  private:
    std::map<std::string, double> metrics_;
    std::map<std::string, bool> checks_;
    std::map<std::string, std::string> info_;
};

// ---------------------------------------------------------------------
// Tick clock and level spans
// ---------------------------------------------------------------------

enum Level : int { kEc, kSm, kEm, kGm, kVmc, kOther, kLevels };
const char *const kLevelNames[kLevels] = {"ec", "sm", "em",
                                          "gm", "vmc", "other"};

Level
levelOf(const sim::Actor *a)
{
    if (dynamic_cast<const controllers::EfficiencyController *>(a))
        return kEc;
    if (dynamic_cast<const controllers::ServerManager *>(a))
        return kSm;
    if (dynamic_cast<const controllers::EnclosureManager *>(a))
        return kEm;
    if (dynamic_cast<const controllers::GroupManager *>(a))
        return kGm;
    if (dynamic_cast<const controllers::VmController *>(a))
        return kVmc;
    return kOther;
}

/** One tick span and the time of its level children, in ns. */
struct TickSpan
{
    size_t tick = 0;
    double dur_ns = 0.0;
    double child_ns[kLevels] = {};
};

/**
 * Engine tick source/observer pair: times every tick from beginTick()
 * to endTick(). The per-tick samples behind tick_us_p50/p99 are the
 * engine thread's CPU time, so a tick the host's scheduler preempts does
 * not land in the tail; the spans are wall time, like the actor calls
 * the wrappers add to them. In a traced pass the actor wrappers add their
 * call time to the open tick's level children, and each closed tick is
 * kept as an in-memory span written out by writeSpans().
 */
class TickClock final : public sim::TickSource, public sim::TickObserver
{
  public:
    explicit TickClock(bool spans) : spans_(spans) {}

    bool beginTick(size_t tick) override
    {
        open_ = TickSpan{};
        open_.tick = tick;
        start_ = Clock::now();
        start_cpu_ms_ = threadCpuMs();
        return true;
    }

    void endTick(size_t) override
    {
        tick_us_.push_back((threadCpuMs() - start_cpu_ms_) * 1e3);
        open_.dur_ns =
            std::chrono::duration<double, std::nano>(Clock::now() - start_)
                .count();
        if (spans_)
            spans_list_.push_back(open_);
    }

    void add(Level level, bool step, double ns)
    {
        open_.child_ns[level] += ns;
        (step ? step_ns_ : observe_ns_)[level] += ns;
        if (step)
            ++steps_[level];
    }

    const std::vector<double> &tickUs() const { return tick_us_; }
    /** Start a new unit: forget the per-tick times, keep the spans. */
    void clearTicks() { tick_us_.clear(); }
    double observeMs(int l) const { return observe_ns_[l] * 1e-6; }
    double stepMs(int l) const { return step_ns_[l] * 1e-6; }
    double steps(int l) const { return static_cast<double>(steps_[l]); }

    /** Tick time outside every actor call (evaluate + record), in ms. */
    double selfMs() const
    {
        double ns = 0.0;
        for (const TickSpan &s : spans_list_) {
            ns += s.dur_ns;
            for (double c : s.child_ns)
                ns -= c;
        }
        return ns * 1e-6;
    }

    void writeSpans(const std::string &path) const
    {
        std::ofstream out(path);
        out << "tick,dur_ns";
        for (const char *n : kLevelNames)
            out << "," << n << "_ns";
        out << ",self_ns\n";
        for (const TickSpan &s : spans_list_) {
            double self = s.dur_ns;
            out << s.tick << "," << static_cast<long long>(s.dur_ns);
            for (double c : s.child_ns) {
                out << "," << static_cast<long long>(c);
                self -= c;
            }
            out << "," << static_cast<long long>(self) << "\n";
        }
    }

  private:
    bool spans_;
    Clock::time_point start_;
    double start_cpu_ms_ = 0.0;
    TickSpan open_;
    std::vector<double> tick_us_;
    std::vector<TickSpan> spans_list_;
    double observe_ns_[kLevels] = {};
    double step_ns_[kLevels] = {};
    uint64_t steps_[kLevels] = {};
};

/**
 * Forwards every call to the wrapped actor and times it. Keeps the
 * actor's name (so Engine::addActor replaces it in place), period and
 * shardKey, so the schedule is the unwrapped one.
 */
class TimedActor final : public sim::Actor
{
  public:
    TimedActor(std::shared_ptr<sim::Actor> inner, TickClock &clock)
        : inner_(std::move(inner)), level_(levelOf(inner_.get())),
          clock_(clock)
    {
    }

    const std::string &name() const override { return inner_->name(); }
    unsigned period() const override { return inner_->period(); }
    long shardKey() const override { return inner_->shardKey(); }

    void observe(size_t tick) override
    {
        const auto t0 = Clock::now();
        inner_->observe(tick);
        clock_.add(level_, false,
                   std::chrono::duration<double, std::nano>(Clock::now() -
                                                            t0)
                       .count());
    }

    void step(size_t tick) override
    {
        const auto t0 = Clock::now();
        inner_->step(tick);
        clock_.add(level_, true,
                   std::chrono::duration<double, std::nano>(Clock::now() -
                                                            t0)
                       .count());
    }

  private:
    std::shared_ptr<sim::Actor> inner_;
    Level level_;
    TickClock &clock_;
};

/**
 * Engine::run sorts the schedule and builds its dispatch caches on its
 * first call after an actor is added, which for a fleet is tens of ms.
 * A run of 0 ticks does that without ticking, so set-up time holds it
 * and the first timed unit does not.
 */
void
preparePlan(core::Coordinator &coord)
{
    coord.run(0);
}

/** Attach @p clock to @p coord's engine; wrap every actor when traced. */
void
attachClock(core::Coordinator &coord, TickClock &clock, bool traced)
{
    sim::Engine &engine = coord.engine();
    engine.setTickSource(&clock);
    engine.setTickObserver(&clock);
    if (!traced)
        return;
    const std::vector<std::shared_ptr<sim::Actor>> actors =
        engine.actors();
    for (const auto &a : actors)
        engine.addActor(std::make_shared<TimedActor>(a, clock));
}

void
detachClock(core::Coordinator &coord)
{
    coord.engine().setTickSource(nullptr);
    coord.engine().setTickObserver(nullptr);
}

/** Per-layer controller metrics of a traced pass. */
void
reportLevels(Report &rep, const TickClock &clock)
{
    for (int l = kEc; l < kOther; ++l) {
        const std::string p = std::string("controllers.") + kLevelNames[l];
        rep.metric(p + ".observe_ms", clock.observeMs(l));
        rep.metric(p + ".step_ms", clock.stepMs(l));
        rep.metric(p + ".steps", clock.steps(l));
    }
    rep.metric("sim.evaluate_record_ms", clock.selfMs());
}

// ---------------------------------------------------------------------
// Checkpoint round trip
// ---------------------------------------------------------------------

/** A simulation plus the recorder a replayed run attaches. */
struct Model
{
    std::unique_ptr<core::Coordinator> coord;
    std::shared_ptr<sim::Recorder> recorder;

    void saveState(ckpt::SnapshotWriter &w) const
    {
        coord->saveState(w);
        if (recorder)
            recorder->saveState(w.section("recorder"));
    }

    void loadState(const ckpt::SnapshotReader &r)
    {
        coord->loadState(r);
        if (recorder) {
            ckpt::SectionReader s = r.section("recorder");
            recorder->loadState(s);
            s.expectEnd();
        }
    }
};

struct CkptTimes
{
    std::vector<double> serialize_ms, write_ms, read_ms, load_ms;
    double snapshot_mb = 0.0;
    bool round_trip_ok = true;
};

/**
 * saveState + serialize + writeFileAtomic of @p m, @p reps times. The
 * checkpoint timings are CPU time: the wait in writeFileAtomic's fsync
 * belongs to the disk under the checkout, not to the program.
 */
std::string
writeSnapshot(const Model &m, const std::string &path, int reps,
              CkptTimes &t)
{
    std::string bytes;
    for (int i = 0; i < reps; ++i) {
        double cpu0 = cpuMs();
        ckpt::SnapshotWriter w;
        m.saveState(w);
        bytes = w.serialize();
        t.serialize_ms.push_back(cpuMs() - cpu0);
        cpu0 = cpuMs();
        ckpt::writeFileAtomic(path, bytes);
        t.write_ms.push_back(cpuMs() - cpu0);
    }
    t.snapshot_mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    return bytes;
}

/**
 * Read the snapshot at @p path into the freshly built @p m, then check
 * that re-serializing the restored state gives the written bytes back.
 */
void
restoreSnapshot(Model &m, const std::string &path,
                const std::string &written, CkptTimes &t)
{
    double cpu0 = cpuMs();
    ckpt::SnapshotReader r;
    std::string err;
    if (!r.load(path, err))
        util::fatal("nps_perfbench: cannot read %s: %s", path.c_str(),
                    err.c_str());
    t.read_ms.push_back(cpuMs() - cpu0);
    cpu0 = cpuMs();
    m.loadState(r);
    t.load_ms.push_back(cpuMs() - cpu0);
    ckpt::SnapshotWriter again;
    m.saveState(again);
    if (again.serialize() != written)
        t.round_trip_ok = false;
}

void
reportCkpt(Report &rep, const CkptTimes &t, bool per_layer)
{
    std::vector<double> write_s, restore_s;
    for (size_t i = 0; i < t.write_ms.size(); ++i)
        write_s.push_back((t.serialize_ms[i] + t.write_ms[i]) * 1e-3);
    for (size_t i = 0; i < t.read_ms.size(); ++i)
        restore_s.push_back((t.read_ms[i] + t.load_ms[i]) * 1e-3);
    rep.check("ckpt_round_trip_byte_equal", t.round_trip_ok);
    if (per_layer) {
        rep.metric("ckpt.serialize_ms", median(t.serialize_ms));
        rep.metric("ckpt.write_ms", median(t.write_ms));
        rep.metric("ckpt.read_ms", median(t.read_ms));
        rep.metric("ckpt.load_state_ms", median(t.load_ms));
        rep.metric("ckpt.snapshot_mb", t.snapshot_mb);
    } else {
        rep.metric("ckpt_write_s", median(write_s));
        rep.metric("ckpt_restore_s", median(restore_s));
    }
}

/**
 * Short timed units of one run. Each unit yields its CPU ns per
 * server-tick; each window of @p pool consecutive units (every unit of
 * the run when @p pool is 0) yields the p50/p99 of its pooled per-tick
 * CPU times. The run reports the median of each across units and
 * windows. Units are short and spread over the whole run, so the median
 * rides out the phases of seconds in which co-tenants on a shared host
 * slow everything down.
 */
struct Units
{
    explicit Units(size_t pool = 1) : pool(pool) {}

    size_t pool;
    std::vector<double> ns_per_server_tick;
    std::vector<std::vector<double>> tick_us;

    void add(double cpu_ms, double server_ticks,
             const std::vector<double> &us)
    {
        ns_per_server_tick.push_back(cpu_ms * 1e6 / server_ticks);
        tick_us.push_back(us);
    }

    size_t ticks() const
    {
        size_t n = 0;
        for (const auto &us : tick_us)
            n += us.size();
        return n;
    }

    void report(Report &rep) const
    {
        rep.metric("server_tick_ns", median(ns_per_server_tick));
        std::string all;
        for (double ns : ns_per_server_tick)
            all += std::to_string(ns) + " ";
        rep.info("unit_server_tick_ns", all);
        reportTicks(rep);
    }

    void reportTicks(Report &rep) const
    {
        std::vector<double> p50, p99;
        size_t window_ticks = 0;
        const size_t w = pool ? pool : tick_us.size();
        for (size_t i = 0; i + w <= tick_us.size(); ++i) {
            std::vector<double> pooled;
            for (size_t j = i; j < i + w; ++j)
                pooled.insert(pooled.end(), tick_us[j].begin(),
                              tick_us[j].end());
            p50.push_back(percentile(pooled, 0.50));
            p99.push_back(percentile(pooled, 0.99));
            window_ticks = pooled.size();
        }
        rep.metric("tick_us_p50", median(p50));
        rep.metric("tick_us_p99", median(p99));
        rep.info("units", std::to_string(tick_us.size()));
        rep.info("tick_samples", std::to_string(ticks()));
        rep.info("ticks_per_percentile_window", std::to_string(window_ticks));
        std::string all;
        for (size_t i = 0; i < p50.size(); ++i)
            all += std::to_string(p50[i]) + "/" + std::to_string(p99[i]) +
                   " ";
        rep.info("window_p50_p99", all);
    }
};

double
overheadPct(double with, double without)
{
    return without > 0.0 ? (with - without) / without * 100.0 : 0.0;
}

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

struct Args
{
    std::string mode;
    uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    unsigned servers = 100000;
    size_t ticks = 2880;
    unsigned passes = 1;
    std::string kind = "plan";
    std::string csv;
    std::string file;
    std::string work = ".";
};

Args
parse(int argc, char **argv)
{
    if (argc < 2)
        util::fatal("usage: nps_perfbench fleet|campaign|twin|decode|info "
                    "[options]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            util::fatal("nps_perfbench: %s needs a value", k.c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        auto num = [&]() {
            unsigned long long n = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                util::fatal("nps_perfbench: bad %s '%s'", k.c_str(),
                            v.c_str());
            return n;
        };
        if (k == "--seed")
            a.seed = num();
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = num() != 0;
        else if (k == "--servers")
            a.servers = static_cast<unsigned>(num());
        else if (k == "--ticks")
            a.ticks = num();
        else if (k == "--passes")
            a.passes = static_cast<unsigned>(num());
        else if (k == "--kind")
            a.kind = v;
        else if (k == "--csv")
            a.csv = v;
        else if (k == "--file")
            a.file = v;
        else if (k == "--work")
            a.work = v;
        else
            util::fatal("nps_perfbench: unknown argument '%s'", k.c_str());
    }
    return a;
}

// ---------------------------------------------------------------------
// fleet: FleetGen fleet under fleetConfig()
// ---------------------------------------------------------------------

struct FleetBuild
{
    Model model;
    double topology_ms = 0.0, traces_ms = 0.0, wiring_ms = 0.0;
    double setup_cpu_s = 0.0; //!< CPU time of the whole build
};

FleetBuild
buildFleet(const Args &a, bool profile)
{
    FleetBuild b;
    const double cpu0 = cpuMs();
    auto t0 = Clock::now();
    sim::FleetSpec spec;
    spec.servers = a.servers;
    spec.seed = a.seed;
    sim::FleetGen gen(spec);
    sim::Topology topo = gen.topology();
    b.topology_ms = msSince(t0);

    t0 = Clock::now();
    std::vector<trace::UtilizationTrace> traces = gen.traces();
    b.traces_ms = msSince(t0);

    core::CoordinationConfig cfg = core::fleetConfig();
    cfg.threads = 1;
    cfg.observability.profile = profile;
    t0 = Clock::now();
    b.model.coord = std::make_unique<core::Coordinator>(
        cfg, topo, model::bladeA(), traces);
    b.wiring_ms = msSince(t0);
    preparePlan(*b.model.coord);
    b.setup_cpu_s = (cpuMs() - cpu0) * 1e-3;
    return b;
}

constexpr size_t kFleetUnit = 50;       // ticks per timed unit: one GM epoch
constexpr size_t kFleetCycleUnits = 2;  // units between checkpoints
constexpr size_t kFleetWarmTicks = 5;   // untimed ticks after a restore
constexpr size_t kFleetPinnedTicks = 100; // digest point; traced-run length

/** One fixed-length pass for the traced run: returns tick-loop ms. */
double
fleetPass(const Args &a, bool traced, bool profile, TickClock &clock,
          std::string &digest, FleetBuild *keep = nullptr)
{
    FleetBuild b = buildFleet(a, profile);
    attachClock(*b.model.coord, clock, traced);
    preparePlan(*b.model.coord);
    const auto t0 = Clock::now();
    b.model.coord->run(kFleetPinnedTicks);
    const double ms = msSince(t0);
    detachClock(*b.model.coord);
    digest = digestOf(b.model.coord->summary());
    if (keep)
        *keep = std::move(b);
    return ms;
}

int
runFleet(const Args &a)
{
    Report rep;
    const std::string snap_path = a.work + "/fleet.nps";
    const double server_count = static_cast<double>(a.servers);
    rep.info("servers", std::to_string(a.servers));

    if (a.trace) {
        TickClock plain(false), traced(true), profiled(false);
        std::string d_plain, d_traced, d_prof;
        FleetBuild kept;
        const double ms_plain =
            fleetPass(a, false, false, plain, d_plain, &kept);
        rep.metric("sim.topology_ms", kept.topology_ms);
        rep.metric("sim.traces_ms", kept.traces_ms);
        rep.metric("core.wiring_ms", kept.wiring_ms);
        rep.metric("sim.actors",
                   static_cast<double>(
                       kept.model.coord->engine().actors().size()));
        CkptTimes ct;
        const std::string bytes =
            writeSnapshot(kept.model, snap_path, 1, ct);
        kept = FleetBuild{};
        FleetBuild fresh = buildFleet(a, false);
        restoreSnapshot(fresh.model, snap_path, bytes, ct);
        fresh = FleetBuild{};
        reportCkpt(rep, ct, true);
        std::remove(snap_path.c_str());

        const double ms_traced = fleetPass(a, true, false, traced, d_traced);
        const double ms_prof = fleetPass(a, false, true, profiled, d_prof);
        reportLevels(rep, traced);
        traced.writeSpans(a.work + "/spans-fleet.csv");
        rep.metric("obs.trace_overhead_pct", overheadPct(ms_traced, ms_plain));
        rep.metric("obs.profile_overhead_pct", overheadPct(ms_prof, ms_plain));
        rep.check("traced_digest_equals_untraced", d_traced == d_plain);
        rep.check("profiled_digest_equals_untraced", d_prof == d_plain);
        rep.print();
        return 0;
    }

    // Cycles until the budget is spent: two 50-tick units on the live
    // fleet, a checkpoint of its state, then a freshly built fleet that
    // restores the checkpoint and carries the run on. Every cycle yields
    // a setup, a write and a restore sample, so all three are spread over
    // the whole run like the tick units. The tick percentiles pool every
    // unit of the run: a 100k-server tick is tens of ms, so a run holds a
    // few hundred ticks, and the p99 needs all of them to stand on more
    // than the one or two slowest. The first ticks after a restore run
    // cold (the first about 25% slower) and, at a restore on a GM-epoch
    // boundary, the first is a GM tick, so half the GM ticks in the pool
    // would be cold ones and the p99 would sit between the two kinds.
    // The restores exist only to sample checkpoint and set-up times, so
    // kFleetWarmTicks ticks after each run untimed: they count in neither
    // server_tick_ns nor the percentiles. A cycle starts only if half of
    // the last one's length still fits in the budget.
    std::vector<double> setup_s;
    FleetBuild b = buildFleet(a, false);
    setup_s.push_back(b.setup_cpu_s);
    TickClock clock(false);
    Units units(0);
    CkptTimes ct;
    std::string digest;
    const auto loop0 = Clock::now();
    double cycle_ms = 0.0;
    while (setup_s.size() < 3 ||
           msSince(loop0) + cycle_ms / 2 < a.seconds * 1000.0) {
        const auto cycle0 = Clock::now();
        attachClock(*b.model.coord, clock, false);
        for (size_t u = 0; u < kFleetCycleUnits; ++u) {
            clock.clearTicks();
            const double cpu0 = cpuMs();
            b.model.coord->run(kFleetUnit);
            units.add(cpuMs() - cpu0, server_count * kFleetUnit,
                      clock.tickUs());
            if (units.ticks() == kFleetPinnedTicks)
                digest = digestOf(b.model.coord->summary());
        }
        detachClock(*b.model.coord);
        const std::string bytes = writeSnapshot(b.model, snap_path, 1, ct);
        b = FleetBuild{};
        b = buildFleet(a, false);
        setup_s.push_back(b.setup_cpu_s);
        restoreSnapshot(b.model, snap_path, bytes, ct);
        std::remove(snap_path.c_str());
        b.model.coord->run(kFleetWarmTicks);
        cycle_ms = msSince(cycle0);
    }
    units.report(rep);

    const uint64_t h = fnv1a(digest);
    rep.info("digest_fnv1a", std::to_string(h));
    if (a.seed == kDefaultSeed && a.servers == 100000)
        rep.check("pinned_summary_digest", h == kFleet100kDigest);
    reportCkpt(rep, ct, false);
    rep.metric("setup_s", median(setup_s));
    rep.metric("peak_rss_mb", peakRssMb());
    rep.print();
    return 0;
}

// ---------------------------------------------------------------------
// campaign: the Figure 7 grid through core::ExperimentRunner
// ---------------------------------------------------------------------

std::vector<core::ExperimentSpec>
figure7Grid(size_t ticks)
{
    std::vector<core::ExperimentSpec> grid;
    for (const char *machine : {"BladeA", "ServerB"}) {
        for (trace::Mix mix : {trace::Mix::All180, trace::Mix::HH60}) {
            for (core::Scenario s : {core::Scenario::Coordinated,
                                     core::Scenario::Uncoordinated}) {
                core::ExperimentSpec spec;
                spec.machine = machine;
                spec.mix = mix;
                spec.config = core::scenarioConfig(s);
                spec.config.threads = 1;
                spec.ticks = ticks;
                spec.label = std::string(machine) + "/" +
                             trace::mixName(mix) + "/" +
                             core::scenarioName(s);
                grid.push_back(std::move(spec));
            }
        }
    }
    return grid;
}

/** One grid cell built the way ExperimentRunner::run builds it. */
std::unique_ptr<core::Coordinator>
buildCell(const core::ExperimentRunner &runner,
          const trace::WorkloadLibrary &library,
          const core::ExperimentSpec &spec, bool profile)
{
    core::CoordinationConfig cfg = spec.config;
    cfg.observability.profile = profile;
    return std::make_unique<core::Coordinator>(
        cfg, core::ExperimentRunner::topologyFor(spec.mix),
        runner.machineFor(spec), library.mix(spec.mix));
}

struct GridPass
{
    std::string digest;      //!< scenario summaries, grid order
    double run_ms = 0.0;     //!< tick loops only
    double run_cpu_ms = 0.0; //!< their CPU time
    double library_ms = 0.0; //!< the pass's trace library
    double wiring_ms = 0.0;  //!< Coordinator constructors
    double setup_cpu_ms = 0.0; //!< CPU time of the library and the ctors
    double server_ticks = 0.0;
    double actors = 0.0;
    std::unique_ptr<core::Coordinator> first; //!< the headline cell
};

/**
 * Build the trace library and run every cell of @p grid once. A traced
 * pass wraps the actors of every cell; otherwise @p clock times only the
 * ticks of the first cell (BladeA/180, coordinated: the paper's headline
 * run), because percentiles pooled over 60- and 180-server cells would
 * sit on the boundary between the two.
 */
GridPass
gridPass(const core::ExperimentRunner &runner,
         const trace::GeneratorConfig &gen,
         const std::vector<core::ExperimentSpec> &grid, TickClock &clock,
         bool traced, bool profile)
{
    GridPass p;
    double cpu0 = cpuMs();
    auto t0 = Clock::now();
    const trace::WorkloadLibrary library(gen);
    p.library_ms = msSince(t0);
    p.setup_cpu_ms = cpuMs() - cpu0;
    for (const core::ExperimentSpec &spec : grid) {
        const bool first = &spec == &grid.front();
        cpu0 = cpuMs();
        t0 = Clock::now();
        std::unique_ptr<core::Coordinator> c =
            buildCell(runner, library, spec, profile);
        p.wiring_ms += msSince(t0);
        if (traced || first)
            attachClock(*c, clock, traced);
        preparePlan(*c);
        p.setup_cpu_ms += cpuMs() - cpu0;
        p.actors += static_cast<double>(c->engine().actors().size());
        t0 = Clock::now();
        cpu0 = cpuMs();
        c->run(spec.ticks);
        p.run_cpu_ms += cpuMs() - cpu0;
        p.run_ms += msSince(t0);
        if (traced || first)
            detachClock(*c);
        p.server_ticks += static_cast<double>(c->cluster().numServers()) *
                          static_cast<double>(spec.ticks);
        p.digest += spec.label + " " + digestOf(c->summary());
        if (first)
            p.first = std::move(c);
    }
    return p;
}

/** Checkpoint the headline cell of @p p and restore it into a twin. */
void
cellRoundTrip(const core::ExperimentRunner &runner,
              const core::ExperimentSpec &spec, GridPass &p,
              const std::string &path, CkptTimes &ct)
{
    Model m{std::move(p.first), nullptr};
    const std::string bytes = writeSnapshot(m, path, 1, ct);
    Model fresh{buildCell(runner, runner.library(), spec, false), nullptr};
    restoreSnapshot(fresh, path, bytes, ct);
    std::remove(path.c_str());
}

int
runCampaign(const Args &a)
{
    Report rep;
    const auto grid = figure7Grid(a.ticks);
    trace::GeneratorConfig gen;
    gen.seed = a.seed;
    const std::string path = a.work + "/campaign.nps";

    // Oracle and the cached baselines, through ExperimentRunner itself.
    const core::ExperimentRunner runner(gen);
    core::ExperimentRunner oracle_runner(gen);
    std::string oracle, pinned_text;
    for (const core::ExperimentSpec &spec : grid) {
        core::ExperimentResult r = oracle_runner.run(spec);
        oracle += spec.label + " " + digestOf(r.scenario);
        pinned_text += spec.label + " baseline " + digestOf(r.baseline) +
                       spec.label + " " + digestOf(r.scenario);
    }
    const uint64_t h = fnv1a(pinned_text);
    rep.info("digest_fnv1a", std::to_string(h));
    if (a.seed == kDefaultSeed && a.ticks == 2880)
        rep.check("pinned_summary_digest", h == kCampaignDigest);

    if (a.trace) {
        TickClock plain(false), traced(true), profiled(false);
        GridPass p0 = gridPass(runner, gen, grid, plain, false, false);
        GridPass p1 = gridPass(runner, gen, grid, traced, true, false);
        GridPass p2 = gridPass(runner, gen, grid, profiled, false, true);
        rep.check("untraced_digest_equals_experiment_runner",
                  p0.digest == oracle);
        rep.check("traced_digest_equals_untraced", p1.digest == p0.digest);
        rep.check("profiled_digest_equals_untraced",
                  p2.digest == p0.digest);
        rep.metric("sim.traces_ms", p0.library_ms);
        const auto t0 = Clock::now();
        for (const auto &spec : grid)
            (void)core::ExperimentRunner::topologyFor(spec.mix);
        rep.metric("sim.topology_ms", msSince(t0));
        rep.metric("core.wiring_ms", p0.wiring_ms);
        rep.metric("sim.actors", p0.actors);
        reportLevels(rep, traced);
        traced.writeSpans(a.work + "/spans-campaign.csv");
        rep.metric("obs.trace_overhead_pct",
                   overheadPct(p1.run_ms, p0.run_ms));
        rep.metric("obs.profile_overhead_pct",
                   overheadPct(p2.run_ms, p0.run_ms));
        CkptTimes ct;
        cellRoundTrip(runner, grid.front(), p0, path, ct);
        reportCkpt(rep, ct, true);
        rep.print();
        return 0;
    }

    // Whole grid passes until the budget is spent; each pass is also a
    // setup sample (CPU time of library + wiring) and a checkpoint round
    // trip of its headline cell, so every sample is spread over the run.
    TickClock clock(false);
    Units units;
    CkptTimes ct;
    std::vector<double> setup_s;
    bool digests_ok = true;
    const auto loop0 = Clock::now();
    while (setup_s.size() < 3 || msSince(loop0) < a.seconds * 1000.0) {
        clock.clearTicks();
        GridPass p = gridPass(runner, gen, grid, clock, false, false);
        digests_ok = digests_ok && p.digest == oracle;
        units.add(p.run_cpu_ms, p.server_ticks, clock.tickUs());
        setup_s.push_back(p.setup_cpu_ms * 1e-3);
        cellRoundTrip(runner, grid.front(), p, path, ct);
    }
    rep.check("every_pass_equals_experiment_runner", digests_ok);
    units.report(rep);
    rep.metric("setup_s", median(setup_s));
    reportCkpt(rep, ct, false);
    rep.metric("peak_rss_mb", peakRssMb());
    rep.print();
    return 0;
}

// ---------------------------------------------------------------------
// twin: the single-process run a subprocess workload replays
// ---------------------------------------------------------------------

struct TwinBuild
{
    Model model;
    double traces_ms = 0.0, topology_ms = 0.0, wiring_ms = 0.0;
};

/**
 * The 180-server coordinated paper testbed exactly as `npsim --plan`
 * (kind plan: leases armed, as core/dist.cpp arms them in every process
 * of a plan) or batch `npsim` (kind batch) builds it, with the recorder
 * those runs attach.
 */
TwinBuild
buildTwin(const Args &a, bool profile)
{
    TwinBuild b;
    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.budgets = sim::BudgetConfig::paper201510();
    cfg.threads = 1;
    if (a.kind == "plan")
        cfg.distributed = true;
    else if (a.kind != "batch")
        util::fatal("nps_perfbench: unknown twin kind '%s'",
                    a.kind.c_str());
    cfg.observability.profile = profile;

    auto t0 = Clock::now();
    trace::GeneratorConfig gen;
    gen.seed = a.seed;
    trace::WorkloadLibrary library(gen);
    std::vector<trace::UtilizationTrace> traces =
        library.mix(trace::Mix::All180);
    b.traces_ms = msSince(t0);
    t0 = Clock::now();
    sim::Topology topo =
        core::ExperimentRunner::topologyFor(trace::Mix::All180);
    b.topology_ms = msSince(t0);

    t0 = Clock::now();
    b.model.coord = std::make_unique<core::Coordinator>(
        cfg, topo, model::bladeA(), traces);
    sim::Recorder::Options opts;
    opts.stride = kRecordStride;
    b.model.recorder =
        std::make_shared<sim::Recorder>(b.model.coord->cluster(), opts);
    b.model.recorder->setFaultInjector(b.model.coord->faultInjector());
    b.model.coord->engine().addActor(b.model.recorder);
    b.wiring_ms = msSince(t0);
    return b;
}

double
twinPass(const Args &a, TwinBuild &b, TickClock &clock, bool traced)
{
    attachClock(*b.model.coord, clock, traced);
    const auto t0 = Clock::now();
    b.model.coord->run(a.ticks);
    const double ms = msSince(t0);
    detachClock(*b.model.coord);
    return ms;
}

std::string
recorderCsv(const Model &m)
{
    std::ostringstream out;
    m.recorder->writeCsv(out);
    return out.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("nps_perfbench: cannot read %s", path.c_str());
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

int
runTwin(const Args &a)
{
    Report rep;
    const std::string expected = readFile(a.csv);
    const std::string path = a.work + "/twin.nps";

    // Untraced passes, each on a fresh build. Every pass must reproduce
    // the subprocess's recorder CSV and is followed by a checkpoint round
    // trip of its end state.
    TickClock plain(false);
    Units units;
    CkptTimes ct;
    TwinBuild b;
    double ms_plain = 0.0;
    bool csv_ok = true;
    for (unsigned pass = 0; pass < a.passes; ++pass) {
        b = buildTwin(a, false);
        plain.clearTicks();
        const double cpu0 = cpuMs();
        ms_plain = twinPass(a, b, plain, false);
        units.add(cpuMs() - cpu0,
                  double{kPaperServers} * static_cast<double>(a.ticks),
                  plain.tickUs());
        csv_ok = csv_ok && recorderCsv(b.model) == expected;
        const std::string bytes = writeSnapshot(b.model, path, 1, ct);
        TwinBuild fresh = buildTwin(a, false);
        restoreSnapshot(fresh.model, path, bytes, ct);
        std::remove(path.c_str());
    }
    rep.check("twin_csv_equals_" + a.kind + "_csv", csv_ok);
    reportCkpt(rep, ct, a.trace);
    if (!a.trace) {
        units.reportTicks(rep);
        rep.print();
        return 0;
    }

    rep.metric("sim.traces_ms", b.traces_ms);
    rep.metric("sim.topology_ms", b.topology_ms);
    rep.metric("core.wiring_ms", b.wiring_ms);
    rep.metric("sim.actors",
               static_cast<double>(b.model.coord->engine().actors().size()));
    const std::string csv = recorderCsv(b.model);
    TickClock traced(true), profiled(false);
    TwinBuild bt = buildTwin(a, false);
    const double ms_traced = twinPass(a, bt, traced, true);
    rep.check("traced_csv_equals_untraced", recorderCsv(bt.model) == csv);
    TwinBuild bp = buildTwin(a, true);
    const double ms_prof = twinPass(a, bp, profiled, false);
    rep.check("profiled_csv_equals_untraced", recorderCsv(bp.model) == csv);
    reportLevels(rep, traced);
    traced.writeSpans(a.work + "/spans-twin-" + a.kind + ".csv");
    rep.metric("obs.trace_overhead_pct", overheadPct(ms_traced, ms_plain));
    rep.metric("obs.profile_overhead_pct", overheadPct(ms_prof, ms_plain));
    rep.print();
    return 0;
}

// ---------------------------------------------------------------------
// decode: FrameDecoder over a captured npsfeed stream
// ---------------------------------------------------------------------

int
runDecode(const Args &a)
{
    Report rep;
    const std::string bytes = readFile(a.file);
    constexpr size_t kChunk = 65536; // one pipe read's worth
    std::vector<double> ns_per_frame;
    uint64_t frames = 0, samples = 0;
    bool clean = true;
    const auto loop0 = Clock::now();
    while (ns_per_frame.size() < 5 || msSince(loop0) < 300.0) {
        stream::FrameDecoder dec;
        stream::Frame f;
        frames = samples = 0;
        const auto t0 = Clock::now();
        for (size_t off = 0; off < bytes.size(); off += kChunk) {
            dec.feed(bytes.data() + off,
                     std::min(kChunk, bytes.size() - off));
            while (dec.next(f)) {
                ++frames;
                if (f.type == stream::FrameType::Sample)
                    ++samples;
            }
        }
        ns_per_frame.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            static_cast<double>(std::max<uint64_t>(frames, 1)));
        const stream::DecodeStats &st = dec.stats();
        clean = clean && st.resync_bytes == 0 && st.bad_crc == 0 &&
                st.bad_type == 0 && dec.buffered() == 0;
    }
    rep.check("decoded_stream_is_clean", clean);
    rep.check("decoded_sample_count",
              samples == uint64_t{kPaperServers} * a.ticks);
    rep.metric("stream.decode_ns_per_frame", median(ns_per_frame));
    rep.metric("stream.bytes_per_sample",
               static_cast<double>(bytes.size()) /
                   static_cast<double>(std::max<uint64_t>(samples, 1)));
    rep.info("frames", std::to_string(frames));
    rep.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    if (a.mode == "info") {
        std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", "
                    "\"host_cpus\": %u}\n",
                    NPS_PERFBENCH_COMPILER, NPS_PERFBENCH_BUILD_TYPE,
                    std::thread::hardware_concurrency());
        return 0;
    }
    if (a.mode == "fleet")
        return runFleet(a);
    if (a.mode == "campaign")
        return runCampaign(a);
    if (a.mode == "twin")
        return runTwin(a);
    if (a.mode == "decode")
        return runDecode(a);
    util::fatal("nps_perfbench: unknown mode '%s'", a.mode.c_str());
}
