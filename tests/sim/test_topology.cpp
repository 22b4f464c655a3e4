/**
 * @file
 * Tests for the topology tree: the tiered builder, structural
 * validation, and the treeText()/parseTree() grammar round-trip.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/topology.h"

namespace {

using nps::sim::Topology;
using nps::sim::TopologyNode;

TEST(TopologyTest, Paper180IsFlat)
{
    Topology topo = Topology::paper180();
    EXPECT_EQ(topo.num_servers, 180u);
    EXPECT_EQ(topo.num_enclosures, 6u);
    EXPECT_EQ(topo.enclosure_size, 20u);
    EXPECT_FALSE(topo.hasTree());
    topo.validate();
}

TEST(TopologyTest, TieredBuildsThreeLevels)
{
    // 2 zones x 3 racks, 1 enclosure of 8 blades + 2 standalone per
    // rack: 60 servers, 6 enclosures, rack-ordered ids.
    Topology topo = Topology::tiered(2, 3, 1, 8, 2);
    topo.validate();
    EXPECT_EQ(topo.num_servers, 60u);
    EXPECT_EQ(topo.num_enclosures, 6u);
    EXPECT_EQ(topo.enclosure_size, 8u);
    ASSERT_TRUE(topo.hasTree());
    const TopologyNode &root = topo.tree.front();
    EXPECT_EQ(root.name, "dc");
    ASSERT_EQ(root.children.size(), 2u);
    const TopologyNode &z1 = root.children[1];
    EXPECT_EQ(z1.name, "z1");
    ASSERT_EQ(z1.children.size(), 3u);
    const TopologyNode &rack = z1.children[0];
    EXPECT_EQ(rack.name, "z1r0");
    ASSERT_EQ(rack.enclosures.size(), 1u);
    EXPECT_EQ(rack.enclosures[0], 3u);
    // Standalone ids start after the 48 enclosed blades.
    ASSERT_EQ(rack.servers.size(), 2u);
    EXPECT_EQ(rack.servers[0], 48u + 6u);
}

TEST(TopologyTest, TreeTextRoundTripsExactly)
{
    Topology topo = Topology::tiered(2, 2, 2, 4, 1);
    std::string first = topo.treeText();
    Topology back = topo;
    back.tree = Topology::parseTree(first);
    back.validate();
    EXPECT_EQ(back.treeText(), first);
}

TEST(TopologyTest, ParseAcceptsHandWrittenTrees)
{
    Topology topo{12, 2, 4, {}}; // 8 enclosed + 4 standalone
    topo.tree = Topology::parseTree("dc(left(e0,s8,s9),right(e1,s10,s11))");
    topo.validate();
    const TopologyNode &root = topo.tree.front();
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].name, "left");
    EXPECT_EQ(root.children[0].enclosures,
              (std::vector<unsigned>{0}));
    EXPECT_EQ(root.children[1].servers,
              (std::vector<unsigned>{10, 11}));
}

TEST(TopologyTest, ParseRejectsMalformedText)
{
    EXPECT_DEATH(Topology::parseTree("dc(e0"), "missing closing");
    EXPECT_DEATH(Topology::parseTree("dc(e0,,e1)"), "empty item");
    EXPECT_DEATH(Topology::parseTree("(e0)"), "empty name");
    EXPECT_DEATH(Topology::parseTree("dc(s4294967297)"),
                 "tree leaf 's4294967297': '4294967297' is not an integer");
}

TEST(TopologyTest, ValidateRejectsStructuralErrors)
{
    Topology base{12, 2, 4, {}};

    Topology two_roots = base;
    two_roots.tree = Topology::parseTree("a(e0,s8,s9);b(e1,s10,s11)");
    EXPECT_DEATH(two_roots.validate(), "exactly one root");

    Topology dup_name = base;
    dup_name.tree =
        Topology::parseTree("dc(dc(e0,s8,s9),x(e1,s10,s11))");
    EXPECT_DEATH(dup_name.validate(), "duplicate");

    Topology dup_enc = base;
    dup_enc.tree =
        Topology::parseTree("dc(a(e0,s8,s9),b(e0,e1,s10,s11))");
    EXPECT_DEATH(dup_enc.validate(), "more than one node");

    Topology missing = base;
    missing.tree = Topology::parseTree("dc(e0,e1,s8,s9,s10)");
    EXPECT_DEATH(missing.validate(), "covers");

    Topology not_standalone = base;
    not_standalone.tree =
        Topology::parseTree("dc(e0,e1,s0,s9,s10,s11)");
    EXPECT_DEATH(not_standalone.validate(), "not a standalone");

    Topology oversubscribed{4, 2, 4, {}};
    EXPECT_DEATH(oversubscribed.validate(), "exceed");
}

TEST(TopologyTest, EmptyTreeTextMeansFlat)
{
    EXPECT_TRUE(Topology::parseTree("").empty());
    EXPECT_EQ(Topology::paper60().treeText(), "");
}

} // namespace
