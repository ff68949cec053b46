/**
 * @file
 * White-box tests for the two-level MESI protocol: controllers are
 * assembled directly (no cores) and driven with explicit requests.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>

#include "sim/fault.hh"
#include "sim/mesi/mesi_l1.hh"
#include "sim/mesi/mesi_l2.hh"
#include "sim/memory.hh"
#include "sim/network.hh"
#include "sim/system.hh"

using namespace mcversi::sim;
using mcversi::Addr;
using mcversi::kLineBytes;
using mcversi::Pid;
using mcversi::Rng;
using mcversi::WriteVal;

namespace {

/** Line homed at tile 0: (line / 64) % 8 == 0. */
constexpr Addr kLineA = 0;
constexpr Addr kLineB = 8 * kLineBytes;
constexpr Addr kLineC = 16 * kLineBytes;

struct CoreStub
{
    std::vector<CacheResp> resps;
    std::vector<Addr> invs;
};

/** Swallows synthetic-injection acks that have no real recipient. */
struct AckSink : MsgHandler
{
    void handleMsg(const Msg &) override {}
};

struct MesiFixture
{
    SystemConfig cfg;
    EventQueue eq;
    Network net{eq, Rng(8)};
    MainMemory mem{eq, net, Rng(9)};
    TransitionCoverage cov;
    std::vector<std::unique_ptr<MesiL2>> l2s;
    std::vector<std::unique_ptr<MesiL1>> l1s;
    std::vector<CoreStub> stubs;

    explicit MesiFixture(BugId bug = BugId::None, int cores = 2)
    {
        cfg.numCores = cores;
        cfg.bug = bug;
        net.registerNode(kMemNode, &mem);
        for (int t = 0; t < cfg.numL2Tiles(); ++t) {
            l2s.push_back(std::make_unique<MesiL2>(t, cfg, eq, net, cov));
            net.registerNode(l2Node(t), l2s.back().get());
        }
        stubs.resize(static_cast<std::size_t>(cores));
        for (Pid p = 0; p < cores; ++p) {
            l1s.push_back(std::make_unique<MesiL1>(p, cfg, eq, net, cov));
            net.registerNode(coreNode(p), l1s.back().get());
            CoreHooks hooks;
            CoreStub *stub = &stubs[static_cast<std::size_t>(p)];
            hooks.respond = [stub](const CacheResp &r) {
                stub->resps.push_back(r);
            };
            hooks.addressInvalidated = [stub](Addr line) {
                stub->invs.push_back(line);
            };
            l1s.back()->setHooks(std::move(hooks));
        }
    }

    void run() { eq.runUntilQuiescent(); }

    /** Last response of core p. */
    const CacheResp &
    lastResp(Pid p)
    {
        return stubs[static_cast<std::size_t>(p)].resps.back();
    }

    bool
    gotInv(Pid p, Addr line)
    {
        const auto &v = stubs[static_cast<std::size_t>(p)].invs;
        return std::find(v.begin(), v.end(), line) != v.end();
    }
};

} // namespace

TEST(MesiProtocol, ColdLoadReturnsZeroAndGrantsExclusive)
{
    MesiFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    ASSERT_EQ(f.stubs[0].resps.size(), 1u);
    EXPECT_EQ(f.lastResp(0).value, 0u);
    // Sole reader: MESI E optimization.
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StE);
    EXPECT_EQ(f.l2s[0]->lineState(kLineA), MesiL2::StMT);
}

TEST(MesiProtocol, SecondReaderDowngradesToShared)
{
    MesiFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    f.l1s[1]->coreLoad(2, kLineA);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StS);
    EXPECT_EQ(f.l1s[1]->lineState(kLineA), MesiL1::StS);
    EXPECT_EQ(f.l2s[0]->lineState(kLineA), MesiL2::StSS);
}

TEST(MesiProtocol, StoreMissObtainsM)
{
    MesiFixture f;
    f.l1s[0]->coreStore(1, kLineA + 8, 42);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StM);
    EXPECT_EQ(f.lastResp(0).overwritten, 0u);
}

TEST(MesiProtocol, RemoteReadSeesWrittenValue)
{
    MesiFixture f;
    f.l1s[0]->coreStore(1, kLineA + 8, 42);
    f.run();
    f.l1s[1]->coreLoad(2, kLineA + 8);
    f.run();
    EXPECT_EQ(f.lastResp(1).value, 42u);
    // Owner downgraded by FwdGETS.
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StS);
}

TEST(MesiProtocol, StoreToSharedUpgradesAndInvalidates)
{
    MesiFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    f.l1s[1]->coreLoad(2, kLineA);
    f.run();
    // Both in S now; core 1 upgrades.
    f.l1s[1]->coreStore(3, kLineA, 7);
    f.run();
    EXPECT_EQ(f.l1s[1]->lineState(kLineA), MesiL1::StM);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StI);
    EXPECT_TRUE(f.gotInv(0, kLineA))
        << "sharer's LQ must see the invalidation";
    // The new value is visible to the old sharer on re-read.
    f.l1s[0]->coreLoad(4, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 7u);
}

TEST(MesiProtocol, WriteToUpgradeRaceLoserGetsData)
{
    // Both sharers upgrade simultaneously; exactly one wins, both end
    // with the correct final data.
    MesiFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    f.l1s[1]->coreLoad(2, kLineA);
    f.run();
    f.l1s[0]->coreStore(3, kLineA, 10);
    f.l1s[1]->coreStore(4, kLineA + 8, 20);
    f.run();
    // Both stores completed; the line is M at exactly one core.
    const bool m0 = f.l1s[0]->lineState(kLineA) == MesiL1::StM;
    const bool m1 = f.l1s[1]->lineState(kLineA) == MesiL1::StM;
    EXPECT_NE(m0, m1);
    // Final data contains both writes.
    f.l1s[0]->coreLoad(5, kLineA);
    f.run();
    f.l1s[0]->coreLoad(6, kLineA + 8);
    f.run();
    EXPECT_EQ(f.stubs[0].resps[f.stubs[0].resps.size() - 2].value, 10u);
    EXPECT_EQ(f.lastResp(0).value, 20u);
}

TEST(MesiProtocol, RmwReturnsOldWritesNew)
{
    MesiFixture f;
    f.l1s[0]->coreStore(1, kLineA, 5);
    f.run();
    f.l1s[0]->coreRmw(2, kLineA, 9);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 5u);
    EXPECT_EQ(f.lastResp(0).overwritten, 5u);
    f.l1s[1]->coreLoad(3, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(1).value, 9u);
}

TEST(MesiProtocol, FlushWritesBackAndInvalidates)
{
    MesiFixture f;
    f.l1s[0]->coreStore(1, kLineA, 11);
    f.run();
    f.l1s[0]->coreFlush(2, kLineA);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StI);
    EXPECT_TRUE(f.gotInv(0, kLineA));
    // Data survives at the L2 (dirty) and re-reads correctly.
    f.l1s[1]->coreLoad(3, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(1).value, 11u);
}

TEST(MesiProtocol, InvSunkInFetchFlagsConsumedData)
{
    // Put the L1 in IS by loading a cold line, then inject an Inv
    // before the data response arrives: IS -> IS_I, and the consumed
    // data must carry the invalidated-in-flight flag.
    MesiFixture f;
    AckSink sink;
    f.net.registerNode(coreNode(6), &sink);
    f.l1s[0]->coreLoad(1, kLineA);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StIS);
    Msg inv;
    inv.type = MsgType::Inv;
    inv.line = kLineA;
    inv.src = l2Node(0);
    inv.dst = coreNode(0);
    inv.ackTarget = coreNode(6);
    f.l1s[0]->handleMsg(inv);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StIS_I);
    f.run();
    ASSERT_EQ(f.stubs[0].resps.size(), 1u);
    EXPECT_TRUE(f.lastResp(0).invalidatedInFlight);
}

TEST(MesiProtocol, BugIsInvSuppressesFlag)
{
    MesiFixture f(BugId::MesiLqIsInv);
    AckSink sink;
    f.net.registerNode(coreNode(6), &sink);
    f.l1s[0]->coreLoad(1, kLineA);
    Msg inv;
    inv.type = MsgType::Inv;
    inv.line = kLineA;
    inv.src = l2Node(0);
    inv.dst = coreNode(0);
    inv.ackTarget = coreNode(6);
    f.l1s[0]->handleMsg(inv);
    f.run();
    ASSERT_EQ(f.stubs[0].resps.size(), 1u);
    EXPECT_FALSE(f.lastResp(0).invalidatedInFlight)
        << "the injected bug must hide the invalidation";
}

TEST(MesiProtocol, BugSmInvSuppressesLqNotify)
{
    auto run_case = [](BugId bug) {
        MesiFixture f(bug);
        f.l1s[0]->coreLoad(1, kLineA);
        f.run();
        f.l1s[1]->coreLoad(2, kLineA);
        f.run();
        // Core 0 upgrades (SM), core 1's GETX processed first is not
        // controllable; instead inject the Inv directly while SM.
        f.l1s[0]->coreStore(3, kLineA, 5);
        EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StSM);
        AckSink sink;
        f.net.registerNode(coreNode(6), &sink);
        Msg inv;
        inv.type = MsgType::Inv;
        inv.line = kLineA;
        inv.src = l2Node(0);
        inv.dst = coreNode(0);
        inv.ackTarget = coreNode(6);
        f.l1s[0]->handleMsg(inv);
        EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StIM);
        return f.gotInv(0, kLineA);
    };
    EXPECT_TRUE(run_case(BugId::None));
    EXPECT_FALSE(run_case(BugId::MesiLqSmInv));
}

TEST(MesiProtocol, RecallInEAndMNotifiesLq)
{
    auto run_case = [](BugId bug, bool store_first) {
        MesiFixture f(bug);
        if (store_first)
            f.l1s[0]->coreStore(1, kLineA, 3);
        else
            f.l1s[0]->coreLoad(1, kLineA);
        f.run();
        Msg recall;
        recall.type = MsgType::Recall;
        recall.line = kLineA;
        recall.src = l2Node(0);
        recall.dst = coreNode(0);
        f.l1s[0]->handleMsg(recall);
        return f.gotInv(0, kLineA);
    };
    EXPECT_TRUE(run_case(BugId::None, false)) << "E + Recall notifies";
    EXPECT_TRUE(run_case(BugId::None, true)) << "M + Recall notifies";
    EXPECT_FALSE(run_case(BugId::MesiLqEInv, false));
    EXPECT_FALSE(run_case(BugId::MesiLqMInv, true));
    // The E bug must not affect the M path and vice versa.
    EXPECT_TRUE(run_case(BugId::MesiLqEInv, true));
    EXPECT_TRUE(run_case(BugId::MesiLqMInv, false));
}

TEST(MesiProtocol, CapacityEvictionFromSNotifiesLq)
{
    auto run_case = [](BugId bug) {
        SystemConfig small;
        small.l1Sets = 1;
        small.l1Ways = 2;
        small.bug = bug;
        MesiFixture f(bug);
        f.cfg = small; // not used post-construction; emulate by loads
        // Instead use 3 lines mapping to one set via a tiny fixture.
        MesiFixture g(bug);
        // Use the default geometry: pick 5 lines in the same L1 set:
        // set = (line/64) % 128 -- stride of 128*64 bytes.
        const Addr set_stride = 128 * kLineBytes;
        // Make all lines shared (load from both cores so they are S).
        for (int i = 0; i < 5; ++i) {
            const Addr a = static_cast<Addr>(i) * set_stride;
            g.l1s[1]->coreLoad(static_cast<ReqId>(100 + i), a);
            g.run();
            g.l1s[0]->coreLoad(static_cast<ReqId>(i + 1), a);
            g.run();
            EXPECT_EQ(g.l1s[0]->lineState(a), MesiL1::StS);
        }
        // 5 lines > 4 ways: at least one S line was replaced.
        return !g.stubs[0].invs.empty();
    };
    EXPECT_TRUE(run_case(BugId::None));
    EXPECT_FALSE(run_case(BugId::MesiLqSReplacement));
}

TEST(MesiProtocol, PutxRaceBugRemovesTransition)
{
    // White-box: deliver a PUTX from a non-owner to an L2 line in MT.
    // The synthetic PUTX comes from a fake node so the WbNack the
    // correct protocol sends does not confuse a real L1.
    auto run_case = [](BugId bug) {
        MesiFixture f(bug);
        AckSink sink;
        f.net.registerNode(coreNode(5), &sink);
        f.l1s[0]->coreStore(1, kLineA, 1);
        f.run(); // L2 now MT (owner=0)
        Msg putx;
        putx.type = MsgType::PUTX;
        putx.line = kLineA;
        putx.src = coreNode(5);
        putx.dst = l2Node(0);
        putx.requester = 5;
        putx.dirty = true;
        bool threw = false;
        try {
            f.l2s[0]->handleMsg(putx);
            f.run();
        } catch (const ProtocolError &) {
            threw = true;
        }
        return threw;
    };
    EXPECT_FALSE(run_case(BugId::None))
        << "correct protocol nacks the stale PUTX";
    EXPECT_TRUE(run_case(BugId::MesiPutxRace))
        << "the bug removes the transition: invalid transition error";
}

TEST(MesiProtocol, MemoryWritebackOnL2Eviction)
{
    // Fill one L2 set beyond capacity with dirty lines; evicted dirty
    // data must reach memory.
    MesiFixture f;
    // L2 tile 0, set = (line/64/8) % 512: lines at stride 8*512*64.
    const Addr l2_set_stride = 8 * 512 * kLineBytes;
    const int lines = 6; // > 4 ways
    for (int i = 0; i < lines; ++i) {
        const Addr a = static_cast<Addr>(i) * l2_set_stride;
        f.l1s[0]->coreStore(static_cast<ReqId>(i + 1), a,
                            static_cast<WriteVal>(100 + i));
        f.run();
        // Flush from L1 so the dirty data lives at the L2 only.
        f.l1s[0]->coreFlush(static_cast<ReqId>(50 + i), a);
        f.run();
    }
    EXPECT_GT(f.mem.writes(), 0u) << "L2 evictions must write back";
    // And the values are recoverable.
    f.l1s[0]->coreLoad(99, 0);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 100u);
}

TEST(MesiProtocol, ResetAllClearsState)
{
    MesiFixture f;
    f.l1s[0]->coreStore(1, kLineA, 1);
    f.run();
    f.l1s[0]->resetAll();
    f.l2s[0]->resetAll();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), MesiL1::StI);
    EXPECT_EQ(f.l2s[0]->lineState(kLineA), MesiL2::StNP);
}

TEST(MesiProtocol, FetchWithNoStableVictimRetries)
{
    // Five loads to one 4-way L1 set (stride 128 lines): the fifth finds
    // every way in IS, so it retries until a fill turns a line stable
    // and then evicts that line.
    MesiFixture f(BugId::None, 1);
    const Addr set_stride = 128 * kLineBytes;
    for (int i = 0; i < 5; ++i) {
        f.l1s[0]->coreLoad(static_cast<ReqId>(i + 1),
                           static_cast<Addr>(i) * set_stride);
    }
    EXPECT_EQ(f.l1s[0]->lineState(4 * set_stride), MesiL1::StI)
        << "no way is free for the fifth fetch";
    f.run();
    ASSERT_EQ(f.stubs[0].resps.size(), 5u);
    EXPECT_EQ(f.l1s[0]->lineState(4 * set_stride), MesiL1::StE);
    int evicted = 0;
    for (int i = 0; i < 4; ++i) {
        if (f.l1s[0]->lineState(static_cast<Addr>(i) * set_stride) ==
            MesiL1::StI)
            ++evicted;
    }
    EXPECT_EQ(evicted, 1);
}

// ---------------------------------------------------------------------
// Stall-and-wake: a miss whose L2 set holds no stable victim parks on
// the set's queue and is re-served when a line of the set turns stable.
// ---------------------------------------------------------------------

namespace {

/** Lines homed at tile 0 that all map to L2 set 0 (stride 8*512*64). */
Addr
setLine(int i)
{
    return static_cast<Addr>(i) * 8 * 512 * kLineBytes;
}

/** Records the messages a fake core receives. */
struct MsgLog : MsgHandler
{
    std::vector<Msg> msgs;
    void handleMsg(const Msg &msg) override { msgs.push_back(msg); }
};

/** Never answers (a memory that strands every fetch). */
struct SilentNode : MsgHandler
{
    void handleMsg(const Msg &) override {}
};

/** Tile 0's L2 alone, with fake cores that never unblock. */
struct MesiL2Rig
{
    SystemConfig cfg;
    EventQueue eq;
    Network net{eq, Rng(8)};
    MainMemory mem{eq, net, Rng(9)};
    TransitionCoverage cov;
    MesiL2 l2{0, cfg, eq, net, cov};
    std::vector<MsgLog> cores = std::vector<MsgLog>(8);

    MesiL2Rig()
    {
        net.registerNode(kMemNode, &mem);
        net.registerNode(l2Node(0), &l2);
        for (Pid p = 0; p < 8; ++p)
            net.registerNode(coreNode(p), &cores[static_cast<std::size_t>(p)]);
    }

    void
    deliver(MsgType type, Pid p, Addr line)
    {
        Msg m;
        m.type = type;
        m.line = line;
        m.src = coreNode(p);
        m.dst = l2Node(0);
        m.requester = p;
        l2.handleMsg(m);
    }

    /** Fill set 0 with four lines blocked in B_MT (granted, no Unblock). */
    void
    fillSetWithTransients()
    {
        for (int i = 0; i < 4; ++i)
            deliver(MsgType::GETS, static_cast<Pid>(i), setLine(i));
        eq.runUntilQuiescent();
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(l2.lineState(setLine(i)), MesiL2::StB_MT);
    }
};

} // namespace

TEST(MesiStallWake, ParkedGetsIsServedAtTheUnblockTick)
{
    MesiL2Rig rig;
    rig.fillSetWithTransients();
    rig.deliver(MsgType::GETS, 4, setLine(4));
    EXPECT_EQ(rig.l2.lineState(setLine(4)), MesiL2::StNP);
    EXPECT_EQ(rig.l2.stalls().size(), 1u);

    // A parked request schedules nothing: no polling while it waits.
    const std::uint64_t processed = rig.eq.processed();
    EXPECT_TRUE(rig.eq.empty());
    rig.eq.runUntilQuiescent();
    EXPECT_EQ(rig.eq.processed(), processed);

    // The Unblock makes line 0 a victim (MT); within the same handler
    // the parked GETS recalls it and takes its way.
    const auto tick = rig.eq.now();
    rig.deliver(MsgType::Unblock, 0, setLine(0));
    EXPECT_EQ(rig.eq.now(), tick);
    EXPECT_EQ(rig.l2.lineState(setLine(0)), MesiL2::StMT_I);
    EXPECT_EQ(rig.l2.lineState(setLine(4)), MesiL2::StISS);
    EXPECT_EQ(rig.l2.stalls().size(), 0u);
}

TEST(MesiStallWake, OneVictimServesOneParkedRequestInFifoOrder)
{
    MesiL2Rig rig;
    rig.fillSetWithTransients();
    for (int i = 4; i < 7; ++i)
        rig.deliver(MsgType::GETS, static_cast<Pid>(i), setLine(i));
    EXPECT_EQ(rig.l2.stalls().size(), 3u);

    // Every service attempt of a miss records (NP, GETS): a wake that
    // retried the whole queue would record one per parked request.
    const auto np_gets = rig.cov.registerTransition("MESI-L2", "NP", "GETS");
    for (int v = 0; v < 3; ++v) {
        const std::uint64_t attempts = rig.cov.counts()[np_gets];
        rig.deliver(MsgType::Unblock, static_cast<Pid>(v), setLine(v));
        EXPECT_EQ(rig.cov.counts()[np_gets], attempts + 1);
        // Exactly the oldest parked request got the victim's way.
        for (int i = 4; i < 7; ++i) {
            EXPECT_EQ(rig.l2.lineState(setLine(i)),
                      i <= 4 + v ? MesiL2::StISS : MesiL2::StNP)
                << "victim " << v << ", line " << i;
        }
        EXPECT_EQ(rig.l2.stalls().size(), static_cast<std::size_t>(2 - v));
    }
}

TEST(MesiStallWake, ResetAllDropsParkedRequests)
{
    MesiL2Rig rig;
    rig.fillSetWithTransients();
    rig.deliver(MsgType::GETS, 4, setLine(4));
    ASSERT_EQ(rig.l2.stalls().size(), 1u);
    rig.l2.resetAll();
    EXPECT_EQ(rig.l2.stalls().size(), 0u);
    // The emptied set allocates again at once.
    rig.deliver(MsgType::GETS, 5, setLine(5));
    EXPECT_EQ(rig.l2.lineState(setLine(5)), MesiL2::StISS);
    EXPECT_EQ(rig.l2.stalls().size(), 0u);
}

TEST(MesiStallWake, StrandedStallIsAStallDeadlock)
{
    static_assert(std::is_base_of_v<WatchdogAbort, StallDeadlock>,
                  "the workload abandons a stalled iteration like a "
                  "watchdog abort");
    System sys(SystemConfig{});
    SilentNode silent;
    sys.network().registerNode(kMemNode, &silent);
    // Five fetches into one 4-way set: four wait on memory forever,
    // the fifth parks with nothing left to wake it.
    for (int i = 0; i < 5; ++i)
        sys.l1(static_cast<Pid>(i))->coreLoad(1, setLine(i));
    std::string what;
    try {
        sys.runToQuiescence();
        FAIL() << "quiescence with a parked request must throw";
    } catch (const StallDeadlock &err) {
        what = err.what();
    }
    EXPECT_EQ(sys.mesiL2(0)->stalls().size(), 1u);
    // The message names the controller, the tile and the parked line
    // (whichever request reached the full set last).
    EXPECT_NE(what.find("MESI-L2 tile 0"), std::string::npos) << what;
    int parked = 0;
    for (int i = 0; i < 5; ++i) {
        if (sys.mesiL2(0)->lineState(setLine(i)) != MesiL2::StNP)
            continue;
        ++parked;
        std::ostringstream line;
        line << "line 0x" << std::hex << setLine(i);
        EXPECT_NE(what.find(line.str()), std::string::npos) << what;
    }
    EXPECT_EQ(parked, 1);

    // The workload's abandon path (watchdog abort and streaming early
    // stop) leaves nothing parked behind.
    sys.eventQueue().clearPending();
    sys.resetProtocolState();
    EXPECT_EQ(sys.mesiL2(0)->stalls().size(), 0u);
    EXPECT_NO_THROW(sys.runToQuiescence());
}
