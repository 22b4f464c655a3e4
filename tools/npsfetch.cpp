/**
 * @file
 * npsfetch — one-shot HTTP GET against a live observability endpoint
 * (docs/OBSERVABILITY.md), for smoke scripts and CI on hosts without
 * curl. Speaks just enough HTTP/1.0 for obs/live/exporter.cpp: send
 * the request line, read to EOF, print the body on stdout.
 *
 * Exit status: 0 on a 200 response, 2 on any other status line, 1 on
 * a transport error (fatal with a message).
 *
 * Examples:
 *   npsfetch unix:/tmp/live.sock /metrics
 *   npsfetch tcp:9090 /healthz
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "stream/net.h"
#include "util/logging.h"
#include "util/parse.h"

namespace {

using namespace nps;

[[noreturn]] void
usage()
{
    std::printf("usage: npsfetch SPEC PATH [--timeout-ms MS]\n"
                "  SPEC  endpoint: PORT, tcp:PORT, tcp:HOST:PORT or\n"
                "        unix:PATH (the [obs] http spec of the serving\n"
                "        process)\n"
                "  PATH  URL path, e.g. /metrics or /healthz\n"
                "  --timeout-ms MS  connect retry budget (default 5000)\n");
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec;
    std::string path;
    unsigned timeout_ms = 5000;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
        } else if (a == "--timeout-ms") {
            util::parseInto(timeout_ms, util::flagValue(argc, argv, i), a);
            ++i;
        } else if (spec.empty()) {
            spec = a;
        } else if (path.empty()) {
            path = a;
        } else {
            util::fatal("unexpected argument '%s' (try --help)",
                        a.c_str());
        }
    }
    if (spec.empty() || path.empty())
        util::fatal("npsfetch needs SPEC and PATH (try --help)");
    if (path[0] != '/')
        util::fatal("PATH must start with '/', not '%s'", path.c_str());
    // Bare digits mean a loopback TCP port, matching the exporter.
    int fd = stream::connectTo(stream::expandPortShorthand(spec), timeout_ms);
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (!stream::writeAll(fd, request.data(), request.size()))
        util::fatal("npsfetch: %s closed the connection mid-request",
                    spec.c_str());
    ::shutdown(fd, SHUT_WR);

    std::string response;
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0)
            util::fatal("npsfetch: read from %s failed", spec.c_str());
        if (n == 0)
            break;
        response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);

    size_t eol = response.find("\r\n");
    if (eol == std::string::npos)
        util::fatal("npsfetch: %s sent no HTTP status line",
                    spec.c_str());
    const std::string status = response.substr(0, eol);
    size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos)
        util::fatal("npsfetch: %s sent headers without a body separator",
                    spec.c_str());
    const std::string body = response.substr(split + 4);
    std::fwrite(body.data(), 1, body.size(), stdout);
    if (status.find(" 200 ") == std::string::npos) {
        std::fprintf(stderr, "npsfetch: %s %s -> %s\n", spec.c_str(),
                     path.c_str(), status.c_str());
        return 2;
    }
    return 0;
}
