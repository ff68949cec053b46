/**
 * @file
 * Model (ppo edge generator) tests: the generator edges must
 * have the same reachability as the full ppo relation.
 */

#include <gtest/gtest.h>

#include "memconsistency/arch.hh"
#include "memconsistency/checker.hh"

using namespace mcversi::mc;
using namespace mcversi;

namespace {

/** Reachability query over the generated graph. */
bool
reaches(const CycleGraph &g_const, CycleGraph::Node from,
        CycleGraph::Node to)
{
    // Rebuild reachability by DFS over a copy of the adjacency using
    // findCycle is not possible; do BFS manually via the public API --
    // CycleGraph lacks adjacency access, so test reachability through a
    // helper: add edge to -> from and check a cycle appears.
    CycleGraph g = g_const; // copyable
    g.addEdge(to, from);
    return g.findCycle().has_value();
}

struct ThreadBuilder
{
    ExecWitness ew;
    std::vector<EventId> ids;

    EventId
    read(Addr a, int poi, bool rmw = false)
    {
        EventId id = ew.recordRead(0, poi, a, kInitVal, rmw);
        ids.push_back(id);
        return id;
    }

    EventId
    write(Addr a, int poi, WriteVal v, bool rmw = false)
    {
        EventId id = ew.recordWrite(0, poi, a, v, kInitVal, rmw);
        ids.push_back(id);
        return id;
    }

    CycleGraph
    graph(const ProfileModel &arch)
    {
        ew.finalize();
        CycleGraph g(ew.numEvents());
        arch.addProgramOrderEdges(ew, ew.threadEvents(0), g);
        return g;
    }
};

} // namespace

TEST(ArchSc, FullProgramOrderPreserved)
{
    ThreadBuilder b;
    const EventId w1 = b.write(0x100, 0, 1);
    const EventId r1 = b.read(0x140, 1);
    const EventId w2 = b.write(0x180, 2, 2);
    auto arch = makeSc();
    CycleGraph g = b.graph(arch);
    EXPECT_TRUE(reaches(g, w1, r1));
    EXPECT_TRUE(reaches(g, w1, w2));
    EXPECT_TRUE(reaches(g, r1, w2));
    EXPECT_FALSE(reaches(g, w2, w1));
    EXPECT_TRUE(arch.ghbIncludesRfi());
}

TEST(ArchTso, WriteToReadRelaxed)
{
    ThreadBuilder b;
    const EventId w = b.write(0x100, 0, 1);
    const EventId r = b.read(0x140, 1);
    auto arch = makeTso();
    CycleGraph g = b.graph(arch);
    EXPECT_FALSE(reaches(g, w, r)) << "TSO must relax W->R";
    EXPECT_FALSE(arch.ghbIncludesRfi());
}

TEST(ArchTso, ReadOrderedWithEverythingLater)
{
    ThreadBuilder b;
    const EventId r = b.read(0x100, 0);
    const EventId w = b.write(0x140, 1, 1);
    const EventId r2 = b.read(0x180, 2);
    auto arch = makeTso();
    CycleGraph g = b.graph(arch);
    EXPECT_TRUE(reaches(g, r, w));
    EXPECT_TRUE(reaches(g, r, r2));
}

TEST(ArchTso, ReadReachesLaterReadAcrossWrite)
{
    // r1; w; r2: (r1, r2) in ppo even though (w, r2) is not.
    ThreadBuilder b;
    const EventId r1 = b.read(0x100, 0);
    const EventId w = b.write(0x140, 1, 1);
    const EventId r2 = b.read(0x180, 2);
    auto arch = makeTso();
    CycleGraph g = b.graph(arch);
    EXPECT_TRUE(reaches(g, r1, r2));
    EXPECT_FALSE(reaches(g, w, r2));
}

TEST(ArchTso, WriteChainPreserved)
{
    ThreadBuilder b;
    const EventId w1 = b.write(0x100, 0, 1);
    const EventId r = b.read(0x140, 1);
    const EventId w2 = b.write(0x180, 2, 2);
    const EventId w3 = b.write(0x1c0, 3, 3);
    auto arch = makeTso();
    CycleGraph g = b.graph(arch);
    EXPECT_TRUE(reaches(g, w1, w2));
    EXPECT_TRUE(reaches(g, w1, w3));
    EXPECT_TRUE(reaches(g, w2, w3));
    EXPECT_FALSE(reaches(g, w1, r));
}

TEST(ArchTso, RmwActsAsFullFence)
{
    // w1; rmw; r2 -- through the fence, (w1, r2) IS ordered.
    ThreadBuilder b;
    const EventId w1 = b.write(0x100, 0, 1);
    const EventId rr = b.read(0x140, 1, true);
    const EventId rw = b.write(0x140, 1, 2, true);
    const EventId r2 = b.read(0x180, 2);
    auto arch = makeTso();
    CycleGraph g = b.graph(arch);
    EXPECT_TRUE(reaches(g, w1, rr));
    EXPECT_TRUE(reaches(g, rr, rw));
    EXPECT_TRUE(reaches(g, rw, r2));
    EXPECT_TRUE(reaches(g, w1, r2)) << "fence must restore W->R";
}

TEST(ArchTso, NoSpuriousBackwardEdges)
{
    ThreadBuilder b;
    const EventId r1 = b.read(0x100, 0);
    const EventId w1 = b.write(0x140, 1, 1);
    const EventId rr = b.read(0x180, 2, true);
    const EventId rw = b.write(0x180, 2, 2, true);
    const EventId r2 = b.read(0x1c0, 3);
    auto arch = makeTso();
    CycleGraph g = b.graph(arch);
    EXPECT_FALSE(reaches(g, r2, r1));
    EXPECT_FALSE(reaches(g, rw, w1));
    EXPECT_FALSE(reaches(g, rr, r1));
    EXPECT_FALSE(reaches(g, w1, r1));
}

TEST(ArchNames, Names)
{
    EXPECT_EQ(makeSc().name(), "SC");
    EXPECT_EQ(makeTso().name(), "TSO");
}
