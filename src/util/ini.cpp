#include "util/ini.h"

#include <fstream>
#include <sstream>

#include "util/logging.h"
#include "util/parse.h"

namespace nps {
namespace util {

bool
IniDocument::has(const std::string &section, const std::string &key) const
{
    auto it = sections_.find(section);
    return it != sections_.end() && it->second.values.count(key) > 0;
}

std::string
IniDocument::get(const std::string &section, const std::string &key,
                 const std::string &fallback) const
{
    auto it = sections_.find(section);
    if (it == sections_.end())
        return fallback;
    auto kv = it->second.values.find(key);
    return kv == it->second.values.end() ? fallback : kv->second;
}

void
IniDocument::addSection(const std::string &section)
{
    if (sections_.find(section) == sections_.end()) {
        section_order_.push_back(section);
        sections_.emplace(section, Entry{});
    }
}

void
IniDocument::set(const std::string &section, const std::string &key,
                 const std::string &value)
{
    addSection(section);
    Entry &entry = sections_.at(section);
    if (!entry.values.count(key))
        entry.key_order.push_back(key);
    entry.values[key] = value;
}

std::vector<std::string>
IniDocument::keys(const std::string &section) const
{
    auto it = sections_.find(section);
    return it == sections_.end() ? std::vector<std::string>{}
                                 : it->second.key_order;
}

std::string
IniDocument::toText() const
{
    std::ostringstream out;
    for (const auto &name : section_order_) {
        out << '[' << name << "]\n";
        const Entry &entry = sections_.at(name);
        for (const auto &key : entry.key_order)
            out << key << " = " << entry.values.at(key) << '\n';
        out << '\n';
    }
    return out.str();
}

IniDocument
parseIni(const std::string &text)
{
    IniDocument doc;
    std::istringstream in(text);
    std::string line;
    std::string section;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        if (t.front() == '[') {
            if (t.back() != ']' || t.size() < 3)
                fatal("ini: malformed section header at line %d",
                      line_no);
            section = trim(t.substr(1, t.size() - 2));
            if (section.empty())
                fatal("ini: empty section name at line %d", line_no);
            doc.addSection(section);
            continue;
        }
        size_t eq = t.find('=');
        if (eq == std::string::npos)
            fatal("ini: expected 'key = value' at line %d", line_no);
        if (section.empty())
            fatal("ini: key outside any section at line %d", line_no);
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (key.empty())
            fatal("ini: empty key at line %d", line_no);
        doc.set(section, key, value);
    }
    return doc;
}

IniDocument
readIniFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("readIniFile: cannot open %s", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseIni(ss.str());
}

} // namespace util
} // namespace nps
