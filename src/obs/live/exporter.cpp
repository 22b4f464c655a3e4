#include "obs/live/exporter.h"

#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "stream/net.h"
#include "util/logging.h"

namespace nps {
namespace obs {
namespace live {

namespace {

/** "8080" is shorthand for "tcp:8080"; anything else is passed to the
 * stream::listenOn grammar as-is. */
std::string
normalizeSpec(const std::string &spec)
{
    if (spec.empty())
        util::fatal("live exporter: empty endpoint spec");
    return stream::expandPortShorthand(spec);
}

struct Response
{
    const char *status;       //!< e.g. "200 OK"
    const char *content_type; //!< e.g. "application/json"
    std::string body;
};

void
writeResponse(int fd, const Response &r)
{
    std::string head = "HTTP/1.0 ";
    head += r.status;
    head += "\r\nContent-Type: ";
    head += r.content_type;
    head += "\r\nContent-Length: " + std::to_string(r.body.size());
    head += "\r\nConnection: close\r\n\r\n";
    // A scraper that disconnects mid-write is its problem, not ours:
    // writeAll returning short is ignored, the fd closes either way.
    stream::writeAll(fd, head.data(), head.size());
    if (!r.body.empty())
        stream::writeAll(fd, r.body.data(), r.body.size());
}

/**
 * Read one request head (up to the blank line). Bounded at 8 KiB and
 * ~2 s so a stuck client occupies the serve thread only briefly.
 * @return false when no complete head arrived.
 */
bool
readRequestHead(int fd, std::string &head)
{
    head.clear();
    char buf[1024];
    for (int spins = 0; spins < 10 && head.size() < 8192; ++spins) {
        struct pollfd p = {fd, POLLIN, 0};
        int rc = ::poll(&p, 1, 200);
        if (rc < 0)
            return false;
        if (rc == 0)
            continue;
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        head.append(buf, static_cast<size_t>(n));
        if (head.find("\r\n\r\n") != std::string::npos ||
            head.find("\n\n") != std::string::npos)
            return true;
    }
    return false;
}

/** The path of "GET /path HTTP/1.x", or "" for anything else. */
std::string
requestPath(const std::string &head)
{
    if (head.rfind("GET ", 0) != 0)
        return "";
    size_t end = head.find(' ', 4);
    if (end == std::string::npos)
        end = head.find_first_of("\r\n", 4);
    if (end == std::string::npos)
        return "";
    return head.substr(4, end - 4);
}

} // namespace

LiveExporter::LiveExporter(const std::string &spec, int rank)
    : spec_(normalizeSpec(spec)), rank_(rank)
{
    if (spec_.rfind("unix:", 0) == 0)
        unix_path_ = spec_.substr(5);
    listener_ = stream::listenOn(spec_);
    thread_ = std::thread([this] { serveLoop(); });
}

LiveExporter::~LiveExporter()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
    if (listener_ >= 0)
        ::close(listener_);
    if (!unix_path_.empty())
        ::unlink(unix_path_.c_str());
}

void
LiveExporter::publish(std::shared_ptr<const LiveSnapshot> snap)
{
    std::lock_guard<std::mutex> lock(mutex_);
    snap_ = std::move(snap);
}

std::shared_ptr<const LiveSnapshot>
LiveExporter::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return snap_;
}

void
LiveExporter::linger(unsigned ms)
{
    for (unsigned waited = 0; waited < ms && !quit_.load(); waited += 50)
        ::usleep(50 * 1000);
}

void
LiveExporter::serveLoop()
{
    while (!stop_.load()) {
        struct pollfd p = {listener_, POLLIN, 0};
        int rc = ::poll(&p, 1, 200);
        if (rc <= 0)
            continue; // timeout or EINTR: recheck the stop flag
        int fd = stream::acceptOne(listener_);
        if (fd < 0)
            continue;
        handleClient(fd);
        ::close(fd);
    }
}

void
LiveExporter::handleClient(int fd)
{
    std::string head;
    if (!readRequestHead(fd, head))
        return;
    const std::string path = requestPath(head);
    ++scrapes_;

    if (path == "/quitz") {
        quit_.store(true);
        writeResponse(fd, {"200 OK", "text/plain; charset=utf-8",
                           "bye\n"});
        return;
    }

    std::shared_ptr<const LiveSnapshot> snap = current();
    if (path.empty()) {
        writeResponse(fd, {"400 Bad Request",
                           "text/plain; charset=utf-8",
                           "only GET is served here\n"});
        return;
    }
    if (path != "/metrics" && path != "/metrics.json" &&
        path != "/healthz" && path != "/profilez") {
        writeResponse(fd, {"404 Not Found", "text/plain; charset=utf-8",
                           "unknown path\n"});
        return;
    }
    if (!snap) {
        writeResponse(fd, {"503 Service Unavailable",
                           "text/plain; charset=utf-8",
                           "no snapshot published yet\n"});
        return;
    }
    if (path == "/metrics") {
        writeResponse(
            fd, {"200 OK", "text/plain; version=0.0.4; charset=utf-8",
                 snap->prom});
    } else if (path == "/metrics.json") {
        writeResponse(fd, {"200 OK", "application/json", snap->json});
    } else if (path == "/healthz") {
        writeResponse(fd, {"200 OK", "application/json", snap->health});
    } else {
        writeResponse(fd, {"200 OK", "application/json", snap->profile});
    }
}

} // namespace live
} // namespace obs
} // namespace nps
