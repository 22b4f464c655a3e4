#include "stream/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "util/logging.h"
#include "util/parse.h"
#include "util/random.h"

namespace nps {
namespace stream {

namespace {

bool
hasPrefix(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

void
fillUnixAddr(const std::string &path, sockaddr_un &addr)
{
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        util::fatal("stream: unix socket path '%s' is empty or too "
                    "long",
                    path.c_str());
    std::memcpy(addr.sun_path, path.c_str(), path.size());
}

void
fillTcpAddr(const std::string &hostport, bool server, sockaddr_in &addr)
{
    std::string host = "127.0.0.1";
    std::string port = hostport;
    auto colon = hostport.rfind(':');
    if (colon != std::string::npos) {
        host = hostport.substr(0, colon);
        port = hostport.substr(colon + 1);
    }
    if (server)
        host = "127.0.0.1"; // the daemon only ever binds loopback
    // Port 0 is only meaningful server-side: "bind me any free port".
    unsigned p = util::parseNumber<unsigned>(port, "stream: TCP port",
                                             server ? 0 : 1, 65535);
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(p));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        util::fatal("stream: bad TCP host '%s' (numeric IPv4 only)",
                    host.c_str());
}

void
sleepMs(unsigned ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
    nanosleep(&ts, nullptr);
}

/** One connect() to unix:PATH or tcp:[HOST:]PORT: the connected fd,
 * or -1 with errno set when no peer accepts (yet). */
int
tryConnect(const std::string &spec)
{
    int family = hasPrefix(spec, "unix:") ? AF_UNIX
                 : hasPrefix(spec, "tcp:") ? AF_INET
                                           : -1;
    if (family < 0)
        util::fatal("stream: bad endpoint '%s' (want stdin, unix:PATH or "
                    "tcp:HOST:PORT)",
                    spec.c_str());
    int fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0)
        util::fatal("stream: socket: %s", std::strerror(errno));
    sockaddr_un un;
    sockaddr_in in;
    int rc;
    if (family == AF_UNIX) {
        fillUnixAddr(spec.substr(5), un);
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&un), sizeof un);
    } else {
        fillTcpAddr(spec.substr(4), /*server=*/false, in);
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&in), sizeof in);
    }
    if (rc == 0)
        return fd;
    int err = errno;
    ::close(fd);
    errno = err;
    return -1;
}

} // namespace

bool
isStdioSpec(const std::string &spec)
{
    return spec == "stdin" || spec == "-" || spec == "stdio";
}

std::string
expandPortShorthand(const std::string &spec)
{
    bool digits = !spec.empty() &&
                  spec.find_first_not_of("0123456789") == std::string::npos;
    return digits ? "tcp:" + spec : spec;
}

int
serveAndAccept(const std::string &spec)
{
    if (isStdioSpec(spec))
        return 0;
    int listener = listenOn(spec, 1);
    int fd = acceptOne(listener);
    ::close(listener);
    if (hasPrefix(spec, "unix:"))
        ::unlink(spec.substr(5).c_str());
    return fd;
}

int
listenOn(const std::string &spec, int backlog, int *bound_port)
{
    if (isStdioSpec(spec))
        util::fatal("stream: listenOn needs a socket endpoint, not "
                    "stdio");
    int listener = -1;
    if (bound_port)
        *bound_port = 0;
    if (hasPrefix(spec, "unix:")) {
        const std::string unix_path = spec.substr(5);
        sockaddr_un addr;
        fillUnixAddr(unix_path, addr);
        ::unlink(unix_path.c_str());
        listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listener < 0)
            util::fatal("stream: socket(AF_UNIX): %s",
                        std::strerror(errno));
        if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            util::fatal("stream: bind(%s): %s", unix_path.c_str(),
                        std::strerror(errno));
    } else if (hasPrefix(spec, "tcp:")) {
        sockaddr_in addr;
        fillTcpAddr(spec.substr(4), /*server=*/true, addr);
        listener = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listener < 0)
            util::fatal("stream: socket(AF_INET): %s",
                        std::strerror(errno));
        int one = 1;
        ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        // EADDRINUSE despite SO_REUSEADDR means another process still
        // *listens* on the port (commonly a just-killed hub whose OS
        // teardown has not finished). That clears within milliseconds,
        // so retry briefly before declaring the port taken.
        unsigned backoff_ms = 50;
        for (int attempt = 0;; ++attempt) {
            if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) == 0)
                break;
            if (errno != EADDRINUSE || attempt >= 5)
                util::fatal("stream: bind(%s): %s", spec.c_str(),
                            std::strerror(errno));
            sleepMs(backoff_ms);
            backoff_ms *= 2;
        }
        sockaddr_in got;
        socklen_t got_len = sizeof got;
        if (::getsockname(listener, reinterpret_cast<sockaddr *>(&got),
                          &got_len) != 0)
            util::fatal("stream: getsockname(%s): %s", spec.c_str(),
                        std::strerror(errno));
        if (bound_port)
            *bound_port = static_cast<int>(ntohs(got.sin_port));
    } else {
        util::fatal("stream: bad endpoint '%s' (want unix:PATH or "
                    "tcp:PORT)",
                    spec.c_str());
    }
    if (::listen(listener, backlog) != 0)
        util::fatal("stream: listen(%s): %s", spec.c_str(),
                    std::strerror(errno));
    return listener;
}

int
acceptOne(int listener)
{
    int fd;
    do {
        fd = ::accept(listener, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        util::fatal("stream: accept: %s", std::strerror(errno));
    return fd;
}

int
connectTo(const std::string &spec, unsigned wait_ms)
{
    if (isStdioSpec(spec))
        return 1; // the feeder writes frames to stdout
    unsigned waited = 0;
    for (;;) {
        int fd = tryConnect(spec);
        if (fd >= 0)
            return fd;
        if (waited >= wait_ms)
            util::fatal("stream: cannot connect to %s after %u ms: %s",
                        spec.c_str(), wait_ms, std::strerror(errno));
        sleepMs(50);
        waited += 50;
    }
}

int
connectWithBackoff(const std::string &spec, unsigned attempts,
                   unsigned base_ms, unsigned max_ms,
                   uint64_t jitter_seed)
{
    if (isStdioSpec(spec))
        return 1;
    if (attempts == 0)
        attempts = 1;
    // SplitMix64 over the caller's seed (typically the rank): each rank
    // draws its own jitter sequence, so a fleet restarted at once fans
    // out instead of hammering the hub in lockstep.
    uint64_t z = jitter_seed;
    auto draw = [&z]() {
        z += util::kSplitMixGamma;
        return util::mix64(z);
    };
    unsigned delay_ms = base_ms ? base_ms : 1;
    for (unsigned attempt = 0;; ++attempt) {
        int fd = tryConnect(spec);
        if (fd >= 0)
            return fd;
        if (attempt + 1 >= attempts)
            util::fatal("stream: cannot connect to %s after %u "
                        "attempts: %s",
                        spec.c_str(), attempts, std::strerror(errno));
        // Bounded exponential backoff with up to 50% additive jitter.
        unsigned jitter =
            delay_ms > 1
                ? static_cast<unsigned>(draw() % (delay_ms / 2 + 1))
                : 0;
        sleepMs(delay_ms + jitter);
        if (max_ms && delay_ms >= max_ms / 2)
            delay_ms = max_ms;
        else
            delay_ms *= 2;
    }
}

bool
writeAll(int fd, const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

} // namespace stream
} // namespace nps
