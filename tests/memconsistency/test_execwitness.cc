/** @file Unit tests for the candidate execution object. */

#include <gtest/gtest.h>

#include "memconsistency/execwitness.hh"

using namespace mcversi::mc;
using namespace mcversi;

TEST(ExecWitness, ReadOfInitCreatesInitEvent)
{
    ExecWitness ew;
    const EventId r = ew.recordRead(0, 0, 0x100, kInitVal);
    ew.finalize();
    const EventId init = ew.initEvent(0x100);
    ASSERT_NE(init, kNoEvent);
    EXPECT_TRUE(ew.event(init).isInit());
    EXPECT_EQ(ew.rfSource(r), init);
    EXPECT_EQ(ew.anomaly(), WitnessAnomaly::None);
}

TEST(ExecWitness, ReadFromWrite)
{
    ExecWitness ew;
    const EventId w = ew.recordWrite(0, 0, 0x100, 42, kInitVal);
    const EventId r = ew.recordRead(1, 0, 0x100, 42);
    ew.finalize();
    EXPECT_EQ(ew.rfSource(r), w);
    EXPECT_EQ(ew.rfSource(w), kNoEvent); // rf targets reads only.
}

TEST(ExecWitness, ReadBeforeWriteRecordingOrderIsFine)
{
    // Store-forwarded reads are recorded before the producing store
    // serializes; resolution is deferred to finalize().
    ExecWitness ew;
    const EventId r = ew.recordRead(0, 1, 0x100, 42);
    const EventId w = ew.recordWrite(0, 0, 0x100, 42, kInitVal);
    ew.finalize();
    EXPECT_EQ(ew.anomaly(), WitnessAnomaly::None);
    EXPECT_EQ(ew.rfSource(r), w);
}

TEST(ExecWitness, CoChainFromOverwrites)
{
    ExecWitness ew;
    const EventId w1 = ew.recordWrite(0, 0, 0x40, 1, kInitVal);
    const EventId w2 = ew.recordWrite(1, 0, 0x40, 2, 1);
    const EventId w3 = ew.recordWrite(0, 1, 0x40, 3, 2);
    ew.finalize();
    const EventId init = ew.initEvent(0x40);
    EXPECT_EQ(ew.coSuccessor(init), w1);
    EXPECT_EQ(ew.coSuccessor(w1), w2);
    EXPECT_EQ(ew.coSuccessor(w2), w3);
    EXPECT_EQ(ew.coSuccessor(w3), kNoEvent);
    EXPECT_EQ(ew.coPredecessor(w2), w1);
}

TEST(ExecWitness, UnknownValueAnomaly)
{
    ExecWitness ew;
    ew.recordRead(0, 0, 0x100, 999);
    ew.finalize();
    EXPECT_EQ(ew.anomaly(), WitnessAnomaly::UnknownValue);
}

TEST(ExecWitness, CoForkAnomaly)
{
    // Two writes claiming to overwrite the same value: the coherence
    // chain forks, e.g. after a lost writeback.
    ExecWitness ew;
    ew.recordWrite(0, 0, 0x40, 1, kInitVal);
    ew.recordWrite(1, 0, 0x40, 2, 1);
    ew.recordWrite(2, 0, 0x40, 3, 1);
    ew.finalize();
    EXPECT_EQ(ew.anomaly(), WitnessAnomaly::CoFork);
    EXPECT_FALSE(ew.anomalyInfo().empty());
}

TEST(ExecWitness, FrImmediateAndFull)
{
    ExecWitness ew;
    const EventId w1 = ew.recordWrite(0, 0, 0x40, 1, kInitVal);
    const EventId w2 = ew.recordWrite(0, 1, 0x40, 2, 1);
    const EventId r = ew.recordRead(1, 0, 0x40, kInitVal);
    ew.finalize();

    // fr(r) is every co-successor of r's rf source: the immediate
    // one, then the rest of the co chain.
    const EventId init = ew.initEvent(0x40);
    ASSERT_NE(init, kNoEvent);
    ASSERT_EQ(ew.rfSource(r), init);
    EXPECT_EQ(ew.coSuccessor(init), w1); // Immediate fr target.
    EXPECT_EQ(ew.coSuccessor(w1), w2);   // Full fr reaches w2 too.
    EXPECT_EQ(ew.coSuccessor(w2), kNoEvent);
}

TEST(ExecWitness, ThreadEventsSortedByProgramOrder)
{
    ExecWitness ew;
    // Record out of order: poi 2, then 0, then 1.
    ew.recordRead(0, 2, 0x10, kInitVal);
    ew.recordRead(0, 0, 0x20, kInitVal);
    ew.recordWrite(0, 1, 0x30, 5, kInitVal);
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(ew.event(events[0]).iiid.poi, 0);
    EXPECT_EQ(ew.event(events[1]).iiid.poi, 1);
    EXPECT_EQ(ew.event(events[2]).iiid.poi, 2);
}

TEST(ExecWitness, RmwPairTracking)
{
    ExecWitness ew;
    const EventId r = ew.recordRead(3, 7, 0x40, kInitVal, true);
    const EventId w = ew.recordWrite(3, 7, 0x40, 10, kInitVal, true);
    ew.finalize();
    ASSERT_EQ(ew.rmwPairs().size(), 1u);
    EXPECT_EQ(ew.rmwPairs()[0].first, r);
    EXPECT_EQ(ew.rmwPairs()[0].second, w);
    EXPECT_TRUE(ew.event(r).rmw);
    EXPECT_EQ(ew.event(r).sub, 0);
    EXPECT_EQ(ew.event(w).sub, 1);
}

TEST(ExecWitness, ThreadsEnumeration)
{
    ExecWitness ew;
    ew.recordRead(2, 0, 0x10, kInitVal);
    ew.recordRead(0, 0, 0x10, kInitVal);
    auto threads = ew.threads();
    ASSERT_EQ(threads.size(), 2u);
    EXPECT_EQ(threads[0], 0);
    EXPECT_EQ(threads[1], 2);
}

TEST(ExecWitness, ResetClearsEverything)
{
    ExecWitness ew;
    ew.recordWrite(0, 0, 0x40, 1, kInitVal);
    ew.recordRead(0, 1, 0x40, 1);
    ew.finalize();
    ew.reset();
    EXPECT_EQ(ew.numEvents(), 0u);
    EXPECT_FALSE(ew.finalized());
    EXPECT_EQ(ew.anomaly(), WitnessAnomaly::None);
    // Reusable after reset; finalize materializes the init event for
    // the overwritten value, hence 2 events, and no rf/co edge of the
    // first iteration survives.
    const EventId w = ew.recordWrite(0, 0, 0x40, 7, kInitVal);
    ew.finalize();
    EXPECT_EQ(ew.numEvents(), 2u);
    const EventId init = ew.initEvent(0x40);
    EXPECT_EQ(ew.coPredecessor(w), init);
    EXPECT_EQ(ew.coSuccessor(w), kNoEvent);
    EXPECT_EQ(ew.coPredecessor(init), kNoEvent);
    EXPECT_EQ(ew.rfSource(w), kNoEvent);
    EXPECT_EQ(ew.rfSource(init), kNoEvent);
}

TEST(ExecWitness, FinalizeIdempotent)
{
    ExecWitness ew;
    const EventId w = ew.recordWrite(0, 0, 0x40, 1, kInitVal);
    ew.finalize();
    ew.finalize();
    const EventId init = ew.initEvent(0x40);
    EXPECT_EQ(ew.coSuccessor(init), w);
    // Exactly one co edge: init -> w.
    EXPECT_EQ(ew.coPredecessor(w), init);
    EXPECT_EQ(ew.coPredecessor(init), kNoEvent);
    EXPECT_EQ(ew.coSuccessor(w), kNoEvent);
}

TEST(ExecWitness, DenseAddrIds)
{
    ExecWitness ew;
    const EventId a = ew.recordRead(0, 0, 0x40, kInitVal);
    const EventId b = ew.recordRead(0, 1, 0x80, kInitVal);
    const EventId c = ew.recordRead(1, 0, 0x40, kInitVal);
    EXPECT_EQ(ew.numAddrs(), 2u);
    EXPECT_EQ(ew.addrId(a), ew.addrId(c));
    EXPECT_NE(ew.addrId(a), ew.addrId(b));
    EXPECT_LT(ew.addrId(a), static_cast<AddrId>(ew.numAddrs()));
    EXPECT_LT(ew.addrId(b), static_cast<AddrId>(ew.numAddrs()));
    ew.finalize();
    // Init events share their address's dense id.
    const EventId init = ew.initEvent(0x40);
    ASSERT_NE(init, kNoEvent);
    EXPECT_EQ(ew.addrId(init), ew.addrId(a));
}

TEST(ExecWitness, ThreadsViewIsStableAndSorted)
{
    ExecWitness ew;
    EXPECT_TRUE(ew.threads().empty());
    ew.recordRead(5, 0, 0x10, kInitVal);
    ew.recordRead(1, 0, 0x10, kInitVal);
    ew.recordRead(5, 1, 0x10, kInitVal);
    const auto &threads = ew.threads();
    ASSERT_EQ(threads.size(), 2u);
    EXPECT_EQ(threads[0], 1);
    EXPECT_EQ(threads[1], 5);
    ew.finalize();
    // Same view after finalize; no per-call rebuilding.
    EXPECT_EQ(&ew.threads(), &threads);
}

TEST(ExecWitness, EventToString)
{
    ExecWitness ew;
    const EventId w = ew.recordWrite(1, 4, 0x80, 9, kInitVal);
    const std::string s = ew.event(w).toString();
    EXPECT_NE(s.find("P1"), std::string::npos);
    EXPECT_NE(s.find("W"), std::string::npos);
}
