/**
 * @file
 * npsfeed — trace-to-stream replayer for the online telemetry engine
 * (docs/STREAMING.md).
 *
 * Regenerates the same deterministic workload campaign npsim uses in
 * batch mode (identical mix + seed ⇒ bit-identical demand doubles) and
 * streams it as NPSF frames: one SAMPLE per VM per tick, a TICK barrier
 * closing each tick, and a BYE when done. Piped into `npsim --serve`,
 * the daemon's output is byte-identical to the batch run:
 *
 *     npsfeed --mix 180 --ticks 480 | npsim --serve stdin ...
 *     npsfeed --to unix:/tmp/nps.sock &  npsim --serve unix:/tmp/nps.sock
 *
 * --silence punches per-VM holes into the stream (no sample, barrier
 * still sent) to exercise the silent-stream degradation path, and
 * --start-tick begins mid-campaign for resuming a checkpointed daemon.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "stream/frame.h"
#include "stream/net.h"
#include "trace/trace.h"
#include "trace/workload.h"
#include "util/logging.h"
#include "util/parse.h"

namespace {

using namespace nps;

struct Silence
{
    uint32_t vm = 0;
    size_t from = 0;
    size_t to = 0; //!< inclusive
};

struct Args
{
    std::string mix = "180";
    uint64_t seed = 20080301;
    size_t ticks = 2880;
    size_t start_tick = 0;
    unsigned pace_ms = 0;
    std::string to = "-";
    std::vector<Silence> silences;
};

[[noreturn]] void
usage()
{
    std::printf(
        "usage: npsfeed [options]\n"
        "  --mix X        workload mix, as npsim (default 180)\n"
        "  --seed N       campaign seed, as npsim (default 20080301)\n"
        "  --ticks N      ticks to stream (default 2880)\n"
        "  --start-tick N first tick to send (default 0; use the\n"
        "                 checkpointed tick when feeding a resumed\n"
        "                 daemon)\n"
        "  --to SPEC      where to send frames: '-' for stdout (pipe\n"
        "                 into npsim --serve stdin), unix:PATH, or\n"
        "                 tcp:HOST:PORT (default -)\n"
        "  --pace-ms N    sleep N ms between ticks (0 = stream as fast\n"
        "                 as the daemon drains; use e.g. the tick\n"
        "                 period for a real-time replay)\n"
        "  --silence VM:FROM:TO  send no samples for VM during ticks\n"
        "                 [FROM, TO] (barriers still flow, so the tick\n"
        "                 completes and the daemon degrades that VM's\n"
        "                 server exactly like a dropped budget link);\n"
        "                 repeatable\n");
    std::exit(0);
}

Silence
parseSilence(const char *spec)
{
    std::vector<std::string> part = util::splitList(spec, ':');
    if (part.size() != 3)
        util::fatal("bad --silence '%s' (want VM:FROM:TO with "
                    "FROM <= TO)", spec);
    std::string what = std::string("--silence '") + spec + "'";
    Silence s;
    s.vm = util::parseNumber<uint32_t>(part[0], what + " VM");
    s.from = util::parseNumber<size_t>(part[1], what + " FROM");
    s.to = util::parseNumber<size_t>(part[2], what + " TO", s.from);
    return s;
}

Args
parse(int argc, char **argv)
{
    Args args;
    auto need = [&](int i) { return util::flagValue(argc, argv, i); };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--mix")
            args.mix = need(i), ++i;
        else if (a == "--seed")
            util::parseInto(args.seed, need(i), a), ++i;
        else if (a == "--ticks")
            util::parseInto(args.ticks, need(i), a), ++i;
        else if (a == "--start-tick")
            util::parseInto(args.start_tick, need(i), a), ++i;
        else if (a == "--pace-ms")
            util::parseInto(args.pace_ms, need(i), a), ++i;
        else if (a == "--to")
            args.to = need(i), ++i;
        else if (a == "--silence")
            args.silences.push_back(parseSilence(need(i))), ++i;
        else if (a == "--help" || a == "-h")
            usage();
        else
            util::fatal("unknown argument '%s' (try --help)", a.c_str());
    }
    if (args.start_tick >= args.ticks && args.ticks > 0)
        util::fatal("--start-tick %zu is past --ticks %zu",
                    args.start_tick, args.ticks);
    return args;
}

bool
silencedAt(const std::vector<Silence> &silences, uint32_t vm, size_t tick)
{
    for (const Silence &s : silences) {
        if (s.vm == vm && tick >= s.from && tick <= s.to)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);

    trace::GeneratorConfig gen;
    gen.seed = args.seed;
    trace::WorkloadLibrary library(gen);
    const std::vector<trace::UtilizationTrace> &traces =
        library.mix(trace::mixFromName(args.mix));
    for (const Silence &s : args.silences) {
        if (s.vm >= traces.size())
            util::fatal("--silence names VM %u, the %s mix has %zu "
                        "streams", s.vm, args.mix.c_str(),
                        traces.size());
    }

    int fd = stream::connectTo(args.to);
    stream::FrameWriter w;
    stream::HelloFrame hello;
    hello.streams = static_cast<uint32_t>(traces.size());
    hello.start_tick = args.start_tick;
    hello.total_ticks = args.ticks;
    w.hello(hello);

    for (size_t tick = args.start_tick; tick < args.ticks; ++tick) {
        for (uint32_t vm = 0; vm < traces.size(); ++vm) {
            if (silencedAt(args.silences, vm, tick))
                continue;
            stream::SampleFrame s;
            s.tick = tick;
            s.stream = vm;
            s.demand = traces[vm].at(tick);
            w.sample(s);
        }
        w.tickEnd(tick);
        // One flush per tick: the kernel buffer provides backpressure
        // (write blocks while the daemon is behind), and the pending
        // window on the other side never overflows.
        if (!stream::writeAll(fd, w.data(), w.size()))
            util::fatal("npsfeed: peer went away at tick %zu", tick);
        w.clear();
        if (args.pace_ms)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(args.pace_ms));
    }
    w.bye(args.ticks);
    if (!stream::writeAll(fd, w.data(), w.size()))
        util::fatal("npsfeed: peer went away at sign-off");
    std::fprintf(stderr, "npsfeed: streamed %zu streams x %zu ticks to "
                         "%s\n", traces.size(),
                 args.ticks - args.start_tick, args.to.c_str());
    return 0;
}
