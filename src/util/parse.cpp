#include "util/parse.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace nps {
namespace util {

namespace detail {

void
badToken(const std::string &what, const std::string &token,
         const std::string &want)
{
    fatal("%s: '%s' is not %s", what.c_str(), token.c_str(), want.c_str());
}

std::string
wantFinite(double lo, double hi)
{
    if (lo == std::numeric_limits<double>::lowest() &&
        hi == std::numeric_limits<double>::max())
        return "a finite number";
    char buf[64];
    std::snprintf(buf, sizeof buf, "a finite number in [%g, %g]", lo, hi);
    return buf;
}

} // namespace detail

const char *
flagValue(int argc, char **argv, int i)
{
    if (i + 1 >= argc)
        fatal("%s needs a value", argv[i]);
    return argv[i + 1];
}

bool
parseBool(const std::string &token, const std::string &what)
{
    std::string lower = token;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "yes" || lower == "on" || lower == "1")
        return true;
    if (lower == "false" || lower == "no" || lower == "off" ||
        lower == "0")
        return false;
    detail::badToken(what, token, "a boolean (true/false, yes/no, on/off, "
                                  "1/0)");
}

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, sep)) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<Clause>
lexClauses(const std::string &text)
{
    std::vector<Clause> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        line.erase(std::min(line.find('#'), line.size()));
        for (const std::string &clause : splitList(line, ';')) {
            Clause c{clause, {}};
            std::istringstream words(clause);
            for (std::string w; words >> w;)
                c.tokens.push_back(w);
            if (!c.tokens.empty())
                out.push_back(std::move(c));
        }
    }
    return out;
}

} // namespace util
} // namespace nps
