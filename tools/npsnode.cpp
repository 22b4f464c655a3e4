/**
 * @file
 * npsnode — one management level of a distributed control plane
 * (docs/DISTRIBUTED.md).
 *
 * Runs the replica for one [node] section of a plan file: builds the
 * same experiment as every other process of the run, connects to the
 * supervisor's socket, and steps the simulation in lockstep behind the
 * per-tick barrier. Normally spawned by `npsim --distributed PLAN`, not
 * by hand; with --restore it resumes from a supervisor snapshot after
 * this rank was killed mid-run.
 *
 * Examples:
 *   npsnode --plan dist.plan --rank 1
 *   npsnode --plan dist.plan --rank 2 --restore /tmp/x.sock.restart-r2.nps
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/dist.h"
#include "core/dist_plan.h"
#include "util/logging.h"
#include "util/parse.h"

namespace {

using namespace nps;

[[noreturn]] void
usage()
{
    std::printf(
        "usage: npsnode --plan FILE --rank N [options]\n"
        "  --plan FILE    the distributed plan (docs/DISTRIBUTED.md);\n"
        "                 must be the same file the supervisor runs\n"
        "  --rank N       which [node] section this process hosts\n"
        "                 (1-based, in plan file order)\n"
        "  --restore SNAP resume from a supervisor restart snapshot\n"
        "  --http SPEC    serve this rank's live /metrics endpoint on\n"
        "                 SPEC (PORT, tcp:PORT or unix:PATH), overriding\n"
        "                 the plan's [obs] http\n"
        "  --log-level L  debug | info | warn | error (default warn)\n");
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string plan_path;
    std::string restore_path;
    std::string log_level;
    std::string http;
    int rank = 0;
    auto need = [&](int i) { return util::flagValue(argc, argv, i); };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--plan")
            plan_path = need(i), ++i;
        else if (a == "--rank")
            rank = util::parseNumber<int>(need(i), "--rank", 0), ++i;
        else if (a == "--restore")
            restore_path = need(i), ++i;
        else if (a == "--http")
            http = need(i), ++i;
        else if (a == "--log-level")
            log_level = need(i), ++i;
        else if (a == "--help" || a == "-h")
            usage();
        else
            util::fatal("unknown argument '%s' (try --help)", a.c_str());
    }
    if (!log_level.empty()) {
        util::LogLevel level;
        if (!util::logLevelFromName(log_level, level))
            util::fatal("unknown log level '%s'", log_level.c_str());
        util::setLogLevel(level);
    }
    if (plan_path.empty())
        util::fatal("npsnode needs --plan FILE (try --help)");
    if (rank < 1)
        util::fatal("npsnode needs --rank N with N >= 1 (try --help)");

    core::DistPlan plan = core::loadPlanFile(plan_path);
    core::dist::ObsOutputs obs;
    obs.http = http;
    return core::dist::runNode(plan, rank, restore_path, obs);
}
