#include "sim/topology.h"

#include <set>
#include <string>

#include "util/logging.h"
#include "util/parse.h"

namespace nps {
namespace sim {

Topology
Topology::tiered(unsigned zones, unsigned racks_per_zone,
                 unsigned enclosures_per_rack, unsigned enclosure_size,
                 unsigned standalone_per_rack)
{
    if (zones == 0 || racks_per_zone == 0)
        util::fatal("topology: tiered() needs at least one zone and rack");
    if (enclosures_per_rack == 0 && standalone_per_rack == 0)
        util::fatal("topology: tiered() racks would be empty");

    Topology t;
    t.num_enclosures = zones * racks_per_zone * enclosures_per_rack;
    t.enclosure_size = enclosure_size;
    t.num_servers = t.num_enclosures * enclosure_size +
                    zones * racks_per_zone * standalone_per_rack;

    unsigned next_enc = 0;
    unsigned next_srv = t.num_enclosures * enclosure_size;
    TopologyNode root;
    root.name = "dc";
    for (unsigned z = 0; z < zones; ++z) {
        TopologyNode zone;
        zone.name = "z" + std::to_string(z);
        for (unsigned r = 0; r < racks_per_zone; ++r) {
            TopologyNode rack;
            rack.name = zone.name + "r" + std::to_string(r);
            for (unsigned e = 0; e < enclosures_per_rack; ++e)
                rack.enclosures.push_back(next_enc++);
            for (unsigned s = 0; s < standalone_per_rack; ++s)
                rack.servers.push_back(next_srv++);
            zone.children.push_back(std::move(rack));
        }
        root.children.push_back(std::move(zone));
    }
    t.tree.push_back(std::move(root));
    return t;
}

namespace {

void
validateNode(const Topology &topo, const TopologyNode &node,
             std::set<std::string> &names, std::set<unsigned> &encs,
             std::set<unsigned> &srvs)
{
    if (node.name.empty())
        util::fatal("topology: tree node with empty name");
    if (!names.insert(node.name).second)
        util::fatal("topology: duplicate tree node '%s'",
                    node.name.c_str());
    if (node.fanout() == 0)
        util::fatal("topology: tree node '%s' has zero fan-out",
                    node.name.c_str());
    for (unsigned e : node.enclosures) {
        if (e >= topo.num_enclosures)
            util::fatal("topology: node '%s' references enclosure %u "
                        "but only %u exist",
                        node.name.c_str(), e, topo.num_enclosures);
        if (!encs.insert(e).second)
            util::fatal("topology: enclosure %u owned by more than one "
                        "node",
                        e);
    }
    unsigned enclosed = topo.num_enclosures * topo.enclosure_size;
    for (unsigned s : node.servers) {
        if (s < enclosed || s >= topo.num_servers)
            util::fatal("topology: node '%s' references server %u which "
                        "is not a standalone server",
                        node.name.c_str(), s);
        if (!srvs.insert(s).second)
            util::fatal("topology: server %u owned by more than one node",
                        s);
    }
    for (const TopologyNode &child : node.children)
        validateNode(topo, child, names, encs, srvs);
}

} // namespace

void
Topology::validate() const
{
    if (num_servers == 0)
        util::fatal("topology: zero servers");
    if (num_enclosures > 0 && enclosure_size == 0)
        util::fatal("topology: enclosures of size zero");
    unsigned enclosed = num_enclosures * enclosure_size;
    if (enclosed > num_servers)
        util::fatal("topology: %u enclosed blades exceed %u servers",
                    enclosed, num_servers);
    if (tree.empty())
        return;
    if (tree.size() != 1)
        util::fatal("topology: tree must have exactly one root, got %zu",
                    tree.size());
    std::set<std::string> names;
    std::set<unsigned> encs;
    std::set<unsigned> srvs;
    validateNode(*this, tree.front(), names, encs, srvs);
    if (encs.size() != num_enclosures)
        util::fatal("topology: tree covers %zu of %u enclosures",
                    encs.size(), num_enclosures);
    size_t standalone = num_servers - enclosed;
    if (srvs.size() != standalone)
        util::fatal("topology: tree covers %zu of %zu standalone servers",
                    srvs.size(), standalone);
}

namespace {

void
renderNode(const TopologyNode &node, std::string &out)
{
    out += node.name;
    if (node.fanout() == 0)
        return;
    out += '(';
    bool first = true;
    for (const TopologyNode &child : node.children) {
        if (!first)
            out += ',';
        first = false;
        renderNode(child, out);
    }
    for (unsigned e : node.enclosures) {
        if (!first)
            out += ',';
        first = false;
        out += 'e';
        out += std::to_string(e);
    }
    for (unsigned s : node.servers) {
        if (!first)
            out += ',';
        first = false;
        out += 's';
        out += std::to_string(s);
    }
    out += ')';
}

bool
isLeafRef(const std::string &text, size_t pos, size_t end, char tag,
          unsigned *id)
{
    if (pos >= end || text[pos] != tag || pos + 1 >= end)
        return false;
    std::string digits = text.substr(pos + 1, end - pos - 1);
    if (digits.find_first_not_of("0123456789") != std::string::npos)
        return false; // a node name such as "e0x", not a leaf
    *id = util::parseNumber<unsigned>(
        digits, "topology: tree leaf '" + text.substr(pos, end - pos) + "'");
    return true;
}

size_t
itemEnd(const std::string &text, size_t pos)
{
    // An item ends at the ',' or ')' at depth zero relative to pos.
    int depth = 0;
    size_t i = pos;
    for (; i < text.size(); ++i) {
        char c = text[i];
        if (c == '(') {
            ++depth;
        } else if (c == ')') {
            if (depth == 0)
                break;
            --depth;
        } else if (c == ',' && depth == 0) {
            break;
        }
    }
    if (depth != 0)
        util::fatal("topology: unbalanced '(' in tree text");
    return i;
}

TopologyNode parseNode(const std::string &text, size_t pos, size_t end);

void
parseItems(TopologyNode &node, const std::string &text, size_t pos,
           size_t end)
{
    while (pos < end) {
        size_t stop = itemEnd(text, pos);
        if (stop > end)
            stop = end;
        if (stop == pos)
            util::fatal("topology: empty item in tree text near '%s'",
                        text.substr(pos, 8).c_str());
        unsigned id = 0;
        if (isLeafRef(text, pos, stop, 'e', &id))
            node.enclosures.push_back(id);
        else if (isLeafRef(text, pos, stop, 's', &id))
            node.servers.push_back(id);
        else
            node.children.push_back(parseNode(text, pos, stop));
        pos = stop;
        if (pos < end) {
            if (text[pos] != ',')
                util::fatal("topology: expected ',' in tree text");
            ++pos;
        }
    }
}

TopologyNode
parseNode(const std::string &text, size_t pos, size_t end)
{
    size_t open = text.find('(', pos);
    TopologyNode node;
    if (open == std::string::npos || open >= end) {
        node.name = text.substr(pos, end - pos);
        if (node.name.empty())
            util::fatal("topology: tree node with empty name");
        return node;
    }
    node.name = text.substr(pos, open - pos);
    if (node.name.empty())
        util::fatal("topology: tree node with empty name");
    if (end == pos || text[end - 1] != ')')
        util::fatal("topology: node '%s' missing closing ')'",
                    node.name.c_str());
    parseItems(node, text, open + 1, end - 1);
    return node;
}

} // namespace

std::string
Topology::treeText() const
{
    std::string out;
    for (const TopologyNode &root : tree) {
        if (!out.empty())
            out += ';';
        renderNode(root, out);
    }
    return out;
}

std::vector<TopologyNode>
Topology::parseTree(const std::string &text)
{
    std::vector<TopologyNode> roots;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t stop = text.find(';', pos);
        if (stop == std::string::npos)
            stop = text.size();
        if (stop > pos)
            roots.push_back(parseNode(text, pos, stop));
        pos = stop + 1;
    }
    return roots;
}

} // namespace sim
} // namespace nps
