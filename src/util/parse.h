/**
 * @file
 * The one strict path from input text to values: every number read
 * from a config, plan, topology, fault or netem script, trace CSV or
 * command line goes through parseNumber(), and the two event-script
 * grammars share one clause lexer (lexClauses()).
 *
 * A number must be the whole token, in base 10: no sign on an unsigned
 * type, no overflow, no NaN or infinity, and inside the caller's
 * [lo, hi]. Anything else is a fatal() that names the input and the
 * raw token — a bad value can never wrap, saturate or become NaN.
 */

#ifndef NPS_UTIL_PARSE_H
#define NPS_UTIL_PARSE_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace nps {
namespace util {

namespace detail {

/** fatal(): "<what>: '<token>' is not <want>". */
[[noreturn]] void badToken(const std::string &what, const std::string &token,
                           const std::string &want);

/** "a finite number", plus " in [lo, hi]" when the range is narrower
 * than all finite doubles. */
std::string wantFinite(double lo, double hi);

} // namespace detail

/**
 * Parse @p token as a number of type T in [@p lo, @p hi]; fatal()
 * naming @p what (e.g. "config [ec] period") and the token otherwise.
 */
template <class T>
T
parseNumber(const std::string &token, const std::string &what,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T value{};
    const char *end = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(token.data(), end, value);
    bool ok = !token.empty() && ec == std::errc() && ptr == end &&
              value >= lo && value <= hi;
    if constexpr (std::is_floating_point_v<T>) {
        if (!ok || !std::isfinite(value))
            detail::badToken(what, token, detail::wantFinite(lo, hi));
    } else if (!ok) {
        detail::badToken(what, token,
                         "an integer in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
    }
    return value;
}

/** parseNumber() over T's whole range, with T taken from @p out. */
template <class T>
void
parseInto(T &out, const std::string &token, const std::string &what)
{
    out = parseNumber<T>(token, what);
}

/** Integers in decimal; doubles in the short %g form when it parses
 * back to the same bits, else %.17g — so written configs round-trip
 * exactly (checkpoints embed them). */
template <class N>
std::string
numberText(N v)
{
    if constexpr (std::is_integral_v<N>) {
        return std::to_string(v);
    } else {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%g", v);
        if (std::strtod(buf, nullptr) != v)
            std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
}

/** argv[i + 1], the value of command-line flag argv[i]; fatal() when
 * the flag is last. */
const char *flagValue(int argc, char **argv, int i);

/** true/yes/on/1 or false/no/off/0, any case; fatal() otherwise. */
bool parseBool(const std::string &token, const std::string &what);

/** @p s without leading/trailing spaces, tabs and CRs. */
std::string trim(const std::string &s);

/** Trimmed, non-empty items of a @p sep-separated list. */
std::vector<std::string> splitList(const std::string &text, char sep);

/** One clause of an event script. */
struct Clause
{
    std::string text;                //!< trimmed, for messages
    std::vector<std::string> tokens; //!< whitespace-separated words
};

/**
 * Lex an event script (the fault and netem grammars): '#' starts a
 * comment that runs to the end of the line, ';' and newlines separate
 * clauses, and empty clauses are skipped.
 */
std::vector<Clause> lexClauses(const std::string &text);

} // namespace util
} // namespace nps

#endif // NPS_UTIL_PARSE_H
