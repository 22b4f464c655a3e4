/**
 * @file
 * npstrace — generate, inspect, and convert utilization-trace
 * campaigns.
 *
 *   npstrace generate --out traces.csv [--seed N] [--length N]
 *       Write the full 180-trace synthetic campaign as long-form CSV.
 *   npstrace stats [--in traces.csv] [--seed N]
 *       Print per-class and per-mix statistics of a campaign (from a
 *       file or freshly generated).
 *
 * The CSV format (`name,class,tick,util`) is the interchange point for
 * driving the simulator with externally collected traces.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "trace/analysis.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

#include <iostream>

namespace {

using namespace nps;

[[noreturn]] void
usage()
{
    std::printf(
        "usage: npstrace <command> [options]\n"
        "  generate --out FILE [--seed N] [--length N] [--threads N]\n"
        "  stats [--in FILE] [--seed N] [--length N] [--threads N]\n"
        "--threads fans campaign generation across workers (0 = all\n"
        "cores); the generated traces are identical for any value.\n");
    std::exit(0);
}

struct Args
{
    std::string command;
    std::string in_path;
    std::string out_path;
    uint64_t seed = 20080301;
    size_t length = 2880;
    unsigned threads = 1;
};

Args
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args args;
    args.command = argv[1];
    auto need = [&](int i) { return util::flagValue(argc, argv, i); };
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--in")
            args.in_path = need(i), ++i;
        else if (a == "--out")
            args.out_path = need(i), ++i;
        else if (a == "--seed")
            util::parseInto(args.seed, need(i), a), ++i;
        else if (a == "--length")
            util::parseInto(args.length, need(i), a), ++i;
        else if (a == "--threads")
            util::parseInto(args.threads, need(i), a), ++i;
        else if (a == "--help" || a == "-h")
            usage();
        else
            util::fatal("unknown argument '%s'", a.c_str());
    }
    return args;
}

std::vector<trace::UtilizationTrace>
campaign(const Args &args)
{
    if (!args.in_path.empty())
        return trace::readTracesFile(args.in_path);
    trace::GeneratorConfig gen;
    gen.seed = args.seed;
    gen.trace_length = args.length;
    util::ThreadPool pool(args.threads);
    return trace::TraceGenerator(gen).generateAll(&pool);
}

void
cmdGenerate(const Args &args)
{
    if (args.out_path.empty())
        util::fatal("generate needs --out FILE");
    auto traces = campaign(args);
    trace::writeTracesFile(args.out_path, traces);
    std::printf("wrote %zu traces x %zu ticks to %s\n", traces.size(),
                traces.front().length(), args.out_path.c_str());
}

void
cmdStats(const Args &args)
{
    auto traces = campaign(args);

    // Per-class statistics.
    std::map<std::string, util::RunningStats> by_class;
    util::RunningStats all;
    for (const auto &t : traces) {
        by_class[trace::workloadClassName(t.workloadClass())]
            .add(t.mean());
        all.add(t.mean());
    }
    util::Table cls("per-class mean utilization across the campaign");
    cls.header({"class", "traces", "mean %", "min %", "max %"});
    for (const auto &[name, stats] : by_class) {
        cls.row({name, std::to_string(stats.count()),
                 util::Table::pct(stats.mean()),
                 util::Table::pct(stats.min()),
                 util::Table::pct(stats.max())});
    }
    cls.row({"(all)", std::to_string(all.count()),
             util::Table::pct(all.mean()), util::Table::pct(all.min()),
             util::Table::pct(all.max())});
    cls.print(std::cout);

    // Structural profile of a few representative traces.
    util::Table prof("\ntrace profiles (first of each class)");
    prof.header({"trace", "mean %", "p95 %", "peak/mean", "diurnal",
                 "lag-1 ac", "spread sigma@95"});
    std::map<std::string, bool> seen;
    for (const auto &t : traces) {
        std::string cls = trace::workloadClassName(t.workloadClass());
        if (seen[cls])
            continue;
        seen[cls] = true;
        auto p = trace::profileTrace(t, 288);
        prof.row({t.name(), util::Table::pct(p.mean),
                  util::Table::pct(p.p95),
                  util::Table::num(p.peak_to_mean, 2),
                  util::Table::num(p.diurnal_strength, 2),
                  util::Table::num(p.lag1_autocorr, 2),
                  util::Table::num(
                      trace::suggestedSpreadSigma(t, 0.95), 2)});
    }
    prof.print(std::cout);

    // Per-mix statistics (needs a full campaign).
    if (traces.size() >= 180) {
        trace::WorkloadLibrary lib(traces);
        util::Table mixes("\nper-mix mean utilization");
        mixes.header({"mix", "workloads", "mean util %"});
        for (auto mix : trace::allMixes()) {
            mixes.row({trace::mixName(mix),
                       std::to_string(trace::mixSize(mix)),
                       util::Table::pct(lib.mixMeanUtil(mix))});
        }
        mixes.print(std::cout);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    if (args.command == "generate")
        cmdGenerate(args);
    else if (args.command == "stats")
        cmdStats(args);
    else
        usage();
    return 0;
}
