/**
 * @file
 * Replay equivalence — the headline contract of the online engine
 * (docs/STREAMING.md): a daemon fed the Figure-7 coordinated campaign
 * over a socket produces *byte-identical* artifacts (recorder CSV,
 * control-plane log, metrics export, decision trace, power series,
 * summary) to the batch simulator reading the same traces from memory,
 * at any thread count — and a daemon checkpointed mid-stream and
 * resumed against a feeder that picks up at the checkpoint tick is
 * byte-identical too. Reuses the checkpoint suite's artifact collector
 * so "everything the run exports" means exactly that.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <thread>

#include "ckpt/ckpt_test_util.h"
#include "stream/feed.h"
#include "stream/frame.h"
#include "stream/net.h"
#include "stream/source.h"
#include "stream/stream_source.h"

namespace {

using namespace nps;
using nps_ckpt_test::Artifacts;
using nps_ckpt_test::buildSim;
using nps_ckpt_test::collect;
using nps_ckpt_test::expectIdentical;
using nps_ckpt_test::Sim;

constexpr size_t kTotal = 360; // < trace length, as in the ckpt suite

/** Online-run build flags: stream.enabled, as `npsim --serve` sets
 * it — so these tests additionally prove that the online layer is
 * bit-transparent against the batch reference while every lease is
 * refreshed in time. */
nps_ckpt_test::CkptCase
streamCase()
{
    nps_ckpt_test::CkptCase c;
    c.stream = true;
    return c;
}

stream::StreamConfig
streamConfig()
{
    stream::StreamConfig cfg;
    cfg.enabled = true;
    cfg.timeout_ms = 0; // in-process: wait for the barrier, never degrade
    return cfg;
}

/** Stream the golden campaign's ticks [start, end) into @p fd as NPSF
 * frames — exactly what `npsfeed --start-tick` does — then close it. */
std::thread
feederThread(int fd, size_t start, size_t end)
{
    return std::thread([fd, start, end] {
        const std::vector<trace::UtilizationTrace> &traces =
            nps_golden::goldenTraces();
        stream::FrameWriter w;
        stream::HelloFrame h;
        h.streams = static_cast<uint32_t>(traces.size());
        h.start_tick = start;
        h.total_ticks = end;
        w.hello(h);
        for (size_t t = start; t < end; ++t) {
            for (uint32_t vm = 0; vm < traces.size(); ++vm) {
                stream::SampleFrame s;
                s.tick = t;
                s.stream = vm;
                s.demand = traces[vm].at(t);
                w.sample(s);
            }
            w.tickEnd(t);
            if (!stream::writeAll(fd, w.data(), w.size()))
                break; // reader gone; the test will fail on comparison
            w.clear();
        }
        w.bye(end);
        stream::writeAll(fd, w.data(), w.size());
        ::close(fd);
    });
}

/** The batch reference, computed once (serial — the golden baseline). */
const Artifacts &
batchReference()
{
    static const Artifacts ref = [] {
        Sim s = buildSim({}, 1);
        s.coord->run(kTotal);
        return collect(s);
    }();
    return ref;
}

/** Run the campaign through a ClusterFeed over @p source. */
Artifacts
runFed(Sim &s, stream::TelemetrySource &source)
{
    stream::ClusterFeed feed(s.coord->cluster(), source,
                             streamConfig());
    s.coord->engine().setTickSource(&feed);
    s.coord->attachStreamHealth(&feed);
    size_t ran = s.coord->run(kTotal);
    EXPECT_EQ(ran, kTotal);
    // Nothing was ever missing: the oracle must have stayed quiet and
    // the demand must have been staged in full.
    EXPECT_EQ(feed.stats().missing_samples, 0u);
    EXPECT_EQ(feed.stats().ticks, kTotal);
    return collect(s);
}

TEST(ReplayEquivalence, OfflineSourceMatchesBatch)
{
    // The staging path itself is transparent: trace playback routed
    // through TelemetrySource + ClusterFeed + staged demand is
    // byte-identical to the classic in-memory path.
    for (unsigned threads : {1u, 8u}) {
        Sim s = buildSim(streamCase(), threads);
        stream::OfflineTraceSource source(nps_golden::goldenTraces());
        Artifacts got = runFed(s, source);
        expectIdentical(batchReference(), got);
    }
}

TEST(ReplayEquivalence, SocketFedStreamMatchesBatchAtAnyThreadCount)
{
    for (unsigned threads : {1u, 4u, 8u}) {
        int fds[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
        std::thread feeder = feederThread(fds[1], 0, kTotal);

        Sim s = buildSim(streamCase(), threads);
        stream::StreamSource source(
            fds[0], s.coord->cluster().numVms(), streamConfig());
        Artifacts got = runFed(s, source);
        feeder.join();

        EXPECT_TRUE(source.sawHello());
        EXPECT_TRUE(source.sawBye());
        EXPECT_EQ(source.ingest()->timeouts, 0u);
        expectIdentical(batchReference(), got);
    }
}

TEST(ReplayEquivalence, CheckpointMidStreamThenResumeMatchesBatch)
{
    constexpr size_t kSplit = 180;

    // First half: daemon under 4 workers, feeder covers [0, 180) and
    // signs off at the split — the daemon checkpoints where the stream
    // ended, exactly the npsim --serve + --checkpoint-every flow.
    ckpt::SnapshotWriter snap_w;
    {
        int fds[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
        std::thread feeder = feederThread(fds[1], 0, kSplit);

        Sim s = buildSim(streamCase(), 4);
        stream::StreamSource source(
            fds[0], s.coord->cluster().numVms(), streamConfig());
        stream::ClusterFeed feed(s.coord->cluster(), source,
                                 streamConfig());
        s.coord->engine().setTickSource(&feed);
        s.coord->attachStreamHealth(&feed);
        size_t ran = s.coord->run(kTotal); // stream ends the run early
        feeder.join();
        ASSERT_EQ(ran, kSplit);

        s.coord->saveState(snap_w);
        s.recorder->saveState(snap_w.section("recorder"));
        feed.saveState(snap_w.section("stream"));
    }
    std::string bytes = snap_w.serialize();

    // Second half: fresh process image, serial this time, feeder
    // resumes at the checkpoint tick.
    ckpt::SnapshotReader snap;
    std::string err;
    ASSERT_TRUE(snap.loadBytes(bytes, "<memory>", err)) << err;

    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    std::thread feeder = feederThread(fds[1], kSplit, kTotal);

    Sim s = buildSim(streamCase(), 1);
    stream::StreamSource source(fds[0], s.coord->cluster().numVms(),
                                streamConfig());
    stream::ClusterFeed feed(s.coord->cluster(), source,
                             streamConfig());
    s.coord->loadState(snap);
    {
        ckpt::SectionReader r = snap.section("recorder");
        s.recorder->loadState(r);
        r.expectEnd();
    }
    {
        ckpt::SectionReader r = snap.section("stream");
        feed.loadState(r);
        r.expectEnd();
    }
    s.coord->engine().setTickSource(&feed);
    s.coord->attachStreamHealth(&feed);

    size_t ran = s.coord->run(kTotal - kSplit);
    feeder.join();
    ASSERT_EQ(ran, kTotal - kSplit);
    EXPECT_EQ(source.hello().start_tick, kSplit);

    expectIdentical(batchReference(), collect(s));
}

} // namespace
