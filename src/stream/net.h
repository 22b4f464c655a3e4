/**
 * @file
 * Minimal blocking-socket plumbing for the telemetry daemon and feeder:
 * endpoint specs parsed from the command line, one connection at a
 * time. Spec grammar (shared by `npsim --serve` and `npsfeed --to`):
 *
 *     stdin        the daemon reads frames from fd 0 (feeder: stdout)
 *     unix:PATH    a Unix-domain stream socket at PATH
 *     tcp:PORT     loopback TCP (daemon side: bind 127.0.0.1:PORT)
 *     tcp:HOST:PORT  (feeder side: connect to HOST:PORT)
 */

#ifndef NPS_STREAM_NET_H
#define NPS_STREAM_NET_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace nps {
namespace stream {

/** @return true when @p spec names the stdin/stdout transport. */
bool isStdioSpec(const std::string &spec);

/** Bare digits ("8080") are shorthand for a loopback TCP port
 * ("tcp:8080"); any other spec comes back unchanged. */
std::string expandPortShorthand(const std::string &spec);

/**
 * Daemon side: bind + listen on @p spec, block for exactly one peer,
 * close the listener, and return the connected descriptor. A Unix
 * socket path is unlinked first (stale socket from a killed daemon)
 * and again once the peer is accepted. Fatal on any socket error.
 */
int serveAndAccept(const std::string &spec);

/**
 * Hub side (distributed runs): bind + listen on @p spec with a backlog
 * of @p backlog and return the *listening* descriptor, so the caller
 * can accept several peers (and re-accept restarted ones). A stale
 * Unix socket path is unlinked first; the caller unlinks it again when
 * done. @p spec must not be stdio.
 *
 * A TCP bind that loses a race for the port (EADDRINUSE — typically a
 * just-killed hub still in TIME_WAIT despite SO_REUSEADDR) is retried
 * a few times with a short growing backoff before giving up. `tcp:0`
 * asks the kernel for an ephemeral port; pass @p bound_port to learn
 * which port was actually bound (also filled for fixed ports). Fatal
 * on any other socket error.
 */
int listenOn(const std::string &spec, int backlog = 8,
             int *bound_port = nullptr);

/** Block for one peer on @p listener (from listenOn). Fatal on error. */
int acceptOne(int listener);

/**
 * Feeder side: connect to @p spec and return the descriptor. Retries
 * for up to @p wait_ms (the daemon may still be binding); fatal once
 * the budget is exhausted.
 */
int connectTo(const std::string &spec, unsigned wait_ms = 5000);

/**
 * Rank side (distributed runs): connect to @p spec with bounded
 * exponential backoff — attempt k sleeps base_ms * 2^k capped at
 * @p max_ms, plus deterministic jitter drawn from @p jitter_seed so a
 * fleet of reconnecting ranks does not stampede the hub in lockstep.
 * Each attempt itself waits up to @p attempt_wait_ms (connectTo-style
 * inner retry is NOT used; one connect(2) per attempt). Fatal after
 * @p attempts failures. See docs/NETWORK_FAULTS.md.
 */
int connectWithBackoff(const std::string &spec, unsigned attempts,
                       unsigned base_ms, unsigned max_ms,
                       uint64_t jitter_seed);

/** write(2) until @p len bytes are out. @return false on a dead peer. */
bool writeAll(int fd, const void *data, size_t len);

} // namespace stream
} // namespace nps

#endif // NPS_STREAM_NET_H
