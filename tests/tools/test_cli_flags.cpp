/**
 * @file
 * Numeric command-line flags of the tools go through the same strict
 * parser as the config files: a partial, signed-on-unsigned, overflowing
 * or non-numeric value exits with status 1 naming the flag and the
 * token, instead of running with whatever prefix strtoul could read.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

struct Result
{
    int status = -1;
    std::string output;
};

/** Run `TOOL ARGS` from the directory npsim was built in. */
Result
run(const std::string &args)
{
    std::string dir = NPS_NPSIM_BIN;
    std::string cmd = dir.substr(0, dir.rfind('/') + 1) + args + " 2>&1";
    Result r;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[512];
    while (size_t n = fread(buf, 1, sizeof buf, p))
        r.output.append(buf, n);
    int raw = pclose(p);
    r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return r;
}

void
expectRejected(const std::string &args, const std::string &message)
{
    Result r = run(args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << args << "\n" << r.output;
}

TEST(CliFlags, BadNumbersAreFatal)
{
    expectRejected("npsim --ticks 10x",
                   "--ticks: '10x' is not an integer");
    expectRejected("npsim --ticks abc", "--ticks: 'abc'");
    expectRejected("npsim --seed -1", "--seed: '-1'");
    expectRejected("npsim --threads 4294967296", "--threads: '4294967296'");
    expectRejected("npsim --record-stride 2.5", "--record-stride: '2.5'");
    expectRejected("npsim --checkpoint-every ' 5'",
                   "--checkpoint-every: ' 5'");
    expectRejected("npsim --http-linger 1e3", "--http-linger: '1e3'");
    expectRejected("npsnode --rank one", "--rank: 'one'");
    expectRejected("npsfeed --pace-ms 1.5", "--pace-ms: '1.5'");
    expectRejected("npsfeed --silence 3:9:2",
                   "--silence '3:9:2' TO: '2' is not an integer in [9, ");
    expectRejected("npsfeed --silence 3:x:9", "FROM: 'x'");
    expectRejected("npstrace generate --length 9q", "--length: '9q'");
    expectRejected("npsfetch --timeout-ms 5s 8080 /metrics",
                   "--timeout-ms: '5s'");
}

TEST(CliFlags, WellFormedNumbersStillParse)
{
    Result r = run("npsim --ticks 10 --seed 18446744073709551615 "
                   "--threads 1 --dump-config");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_NE(r.output.find("[deployment]"), std::string::npos);
}

} // namespace
