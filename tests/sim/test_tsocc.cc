/**
 * @file
 * White-box tests for the TSO-CC-style lazy protocol.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "sim/fault.hh"
#include "sim/memory.hh"
#include "sim/network.hh"
#include "sim/system.hh"
#include "sim/tsocc/tsocc_l1.hh"
#include "sim/tsocc/tsocc_l2.hh"

using namespace mcversi::sim;
using mcversi::Addr;
using mcversi::kLineBytes;
using mcversi::Pid;
using mcversi::Rng;

namespace {

constexpr Addr kLineA = 0;
constexpr Addr kLineB = 8 * kLineBytes;
constexpr Addr kLineC = 16 * kLineBytes;

struct CoreStub
{
    std::vector<CacheResp> resps;
    std::vector<Addr> invs;
};

struct TsoccFixture
{
    SystemConfig cfg;
    EventQueue eq;
    Network net{eq, Rng(8)};
    MainMemory mem{eq, net, Rng(9)};
    TransitionCoverage cov;
    std::vector<std::unique_ptr<TsoccL2>> l2s;
    std::vector<std::unique_ptr<TsoccL1>> l1s;
    std::vector<CoreStub> stubs;

    explicit TsoccFixture(BugId bug = BugId::None, int cores = 2)
    {
        cfg.numCores = cores;
        cfg.protocol = Protocol::Tsocc;
        cfg.bug = bug;
        cfg.tsoccMaxAccesses = 4;
        cfg.tsoccGroupSize = 2;
        cfg.tsoccMaxTs = 6;
        net.registerNode(kMemNode, &mem);
        for (int t = 0; t < cfg.numL2Tiles(); ++t) {
            l2s.push_back(
                std::make_unique<TsoccL2>(t, cfg, eq, net, cov));
            net.registerNode(l2Node(t), l2s.back().get());
        }
        stubs.resize(static_cast<std::size_t>(cores));
        for (Pid p = 0; p < cores; ++p) {
            l1s.push_back(
                std::make_unique<TsoccL1>(p, cfg, eq, net, cov));
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

TEST(TsoccProtocol, ColdLoadInstallsShared)
{
    TsoccFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 0u);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StS);
    EXPECT_EQ(f.l2s[0]->lineState(kLineA), TsoccL2::StU);
}

TEST(TsoccProtocol, StoreObtainsOwnership)
{
    TsoccFixture f;
    f.l1s[0]->coreStore(1, kLineA, 5);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StM);
    EXPECT_EQ(f.l2s[0]->lineState(kLineA), TsoccL2::StO);
}

TEST(TsoccProtocol, RemoteReadRecallsFromOwner)
{
    TsoccFixture f;
    f.l1s[0]->coreStore(1, kLineA, 5);
    f.run();
    f.l1s[1]->coreLoad(2, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(1).value, 5u);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StI)
        << "owner is recalled and invalidated";
    EXPECT_TRUE(f.gotInv(0, kLineA));
}

TEST(TsoccProtocol, SharersAreNotInvalidatedOnWrite)
{
    // The lazy part: a write does NOT invalidate stale shared copies.
    TsoccFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    f.l1s[1]->coreStore(2, kLineA, 9);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StS)
        << "SWMR is explicitly violated for reads";
    EXPECT_FALSE(f.gotInv(0, kLineA));
}

TEST(TsoccProtocol, MaxAccessesForcesRevalidation)
{
    TsoccFixture f;
    // The fill itself consumes one access (maxAccesses = 4 =>
    // 3 further hits).
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    for (int i = 0; i < 3; ++i) {
        f.l1s[0]->coreLoad(static_cast<ReqId>(10 + i), kLineA);
        f.run();
    }
    // Next load must miss (expiry), notifying the LQ.
    f.stubs[0].invs.clear();
    f.l1s[0]->coreLoad(20, kLineA);
    f.run();
    EXPECT_TRUE(f.gotInv(0, kLineA)) << "expiry must notify the LQ";
    EXPECT_EQ(f.lastResp(0).value, 0u);
}

TEST(TsoccProtocol, StaleReadBoundedByMaxAccesses)
{
    TsoccFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    f.l1s[1]->coreStore(2, kLineA, 9);
    f.run();
    // Stale reads allowed up to the access budget...
    f.l1s[0]->coreLoad(3, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 0u) << "bounded staleness";
    // ...but after expiry the new value must be observed.
    for (int i = 0; i < 5; ++i) {
        f.l1s[0]->coreLoad(static_cast<ReqId>(10 + i), kLineA);
        f.run();
    }
    EXPECT_EQ(f.lastResp(0).value, 9u);
}

TEST(TsoccProtocol, SelfInvalidationOnNewTimestamp)
{
    TsoccFixture f;
    // Core 0 holds a stale shared copy of A.
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    // Core 1 writes A (now stale at core 0) and writes B.
    f.l1s[1]->coreStore(2, kLineA, 9);
    f.run();
    f.l1s[1]->coreStore(3, kLineB, 8);
    f.run();
    // Core 0 reads B: the fill carries core 1's timestamp, which is
    // newer than anything seen => all shared lines self-invalidate.
    f.stubs[0].invs.clear();
    f.l1s[0]->coreLoad(4, kLineB);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 8u);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StI)
        << "stale A must be self-invalidated";
    EXPECT_TRUE(f.gotInv(0, kLineA));
    EXPECT_GT(f.l1s[0]->selfInvalidations(), 0u);
    // A re-read now sees the new value: TSO preserved.
    f.l1s[0]->coreLoad(5, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 9u);
}

TEST(TsoccProtocol, CompareBugMissesEqualTimestamp)
{
    // Two writes in the same timestamp group (groupSize = 2) have equal
    // timestamps. Reading the first then the second must still
    // self-invalidate ('larger or equal'); the compare bug ('larger')
    // misses it.
    auto run_case = [](BugId bug) {
        TsoccFixture f(bug);
        // Core 0 holds stale shared A.
        f.l1s[0]->coreLoad(1, kLineA);
        f.run();
        // Core 1: writes A then B in one timestamp group, then C in...
        f.l1s[1]->coreStore(2, kLineA, 9); // ts t, group slot 1
        f.run();
        f.l1s[1]->coreStore(3, kLineB, 8); // ts t, group slot 2
        f.run();
        // Core 0 reads B first (sets lastSeen[c1] = t)...
        f.l1s[0]->coreLoad(4, kLineB);
        f.run();
        // A self-invalidated here already (first observation). Refetch
        // a *stale-able* copy: core 1 re-writes A in the SAME group? The
        // group advanced; instead reconstruct: core 0 re-reads A (fresh,
        // value 9), then core 1 writes C at the same ts as some line
        // core 0 still holds... Simplify: check the observable rule
        // directly -- after reading B (ts t), reading A (also ts t)
        // must self-invalidate other shared lines under >=, not
        // under >.
        f.l1s[0]->coreLoad(5, kLineC); // some unrelated shared line
        f.run();
        f.stubs[0].invs.clear();
        f.l1s[0]->coreLoad(6, kLineA); // meta ts == lastSeen
        f.run();
        return f.gotInv(0, kLineC);
    };
    EXPECT_TRUE(run_case(BugId::None))
        << "'>=' must self-invalidate on the equal case";
    EXPECT_FALSE(run_case(BugId::TsoccCompare))
        << "'>' must miss the equal case";
}

TEST(TsoccProtocol, TimestampResetBroadcastsEpoch)
{
    TsoccFixture f;
    // groupSize=2, maxTs=6: 14 stores roll the timestamp over.
    for (int i = 0; i < 14; ++i) {
        f.l1s[1]->coreStore(static_cast<ReqId>(i + 1),
                            kLineA + (i % 2) * 8,
                            static_cast<mcversi::WriteVal>(i + 1));
        f.run();
    }
    EXPECT_GT(f.l1s[1]->currentEpoch(), 0u) << "timestamp must reset";
    // The other core learned the new epoch via broadcast.
    EXPECT_EQ(f.l1s[0]->lastSeen(1).epoch, f.l1s[1]->currentEpoch());
}

TEST(TsoccProtocol, NoEpochBugSkipsBroadcast)
{
    TsoccFixture f(BugId::TsoccNoEpochIds);
    for (int i = 0; i < 14; ++i) {
        f.l1s[1]->coreStore(static_cast<ReqId>(i + 1), kLineA,
                            static_cast<mcversi::WriteVal>(i + 1));
        f.run();
    }
    EXPECT_GT(f.l1s[1]->currentEpoch(), 0u);
    EXPECT_FALSE(f.l1s[0]->lastSeen(1).valid)
        << "no broadcast, no observation: table never updated";
}

TEST(TsoccProtocol, RmwAtomicOnOwnedLine)
{
    TsoccFixture f;
    f.l1s[0]->coreStore(1, kLineA, 5);
    f.run();
    f.l1s[0]->coreRmw(2, kLineA, 6);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 5u);
    EXPECT_EQ(f.lastResp(0).overwritten, 5u);
}

TEST(TsoccProtocol, OwnerWritebackKeepsDataAtL2)
{
    TsoccFixture f;
    f.l1s[0]->coreStore(1, kLineA, 5);
    f.run();
    f.l1s[0]->coreFlush(2, kLineA);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StI);
    f.l1s[1]->coreLoad(3, kLineA);
    f.run();
    EXPECT_EQ(f.lastResp(1).value, 5u);
}

TEST(TsoccProtocol, NeverWrittenFetchDoesNotSweep)
{
    // A never-written line carries no metadata; reading only the
    // initial value imposes no ordering, so no self-invalidation.
    TsoccFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    f.stubs[0].invs.clear();
    f.l1s[0]->coreLoad(2, kLineB); // cold, never written
    f.run();
    EXPECT_FALSE(f.gotInv(0, kLineA));
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StS);
}

TEST(TsoccProtocol, MetadataSurvivesL2EvictionViaDirectoryStore)
{
    // The L2 persists per-line timestamp metadata across evictions (as
    // the TSO-CC paper's directory does), so a memory fetch of a
    // previously-written line still carries the writer's timestamp and
    // the self-invalidation rule keeps working.
    TsoccFixture f;
    // Core 0 holds a stale shared copy of A.
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    // Core 1 writes A, then writes B; flush both through the L2 so
    // the data goes to memory, then force B's L2 entry out by filling
    // its set (simplest: resetProtocol-free path -- directly evict via
    // many conflicting lines homed at the same tile/set).
    f.l1s[1]->coreStore(2, kLineA, 9);
    f.run();
    f.l1s[1]->coreStore(3, kLineB, 8);
    f.run();
    f.l1s[1]->coreFlush(4, kLineB);
    f.run();
    // Fill tile 1's set with conflicting lines to evict B from the L2
    // (B is at tile (kLineB/64)%8 = 0; set stride = 8*512*64 bytes).
    const Addr l2_set_stride = 8 * 512 * kLineBytes;
    for (int i = 1; i <= 5; ++i) {
        f.l1s[1]->coreLoad(static_cast<ReqId>(10 + i),
                           kLineB + static_cast<Addr>(i) * l2_set_stride);
        f.run();
    }
    // Core 0 reads B: even though B went through memory, metadata
    // survives and core 1's timestamp triggers self-invalidation of
    // the stale A copy.
    f.stubs[0].invs.clear();
    f.l1s[0]->coreLoad(20, kLineB);
    f.run();
    EXPECT_EQ(f.lastResp(0).value, 8u);
    EXPECT_TRUE(f.gotInv(0, kLineA))
        << "metadata must survive eviction so the rule still fires";
}

TEST(TsoccProtocol, RmwFenceSelfInvalidatesSharedLines)
{
    // An atomic RMW is a full fence: all Shared lines self-invalidate
    // so no stale copy can be read after the fence (the SB+fences
    // guarantee).
    TsoccFixture f;
    f.l1s[0]->coreLoad(1, kLineA);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StS);
    f.stubs[0].invs.clear();
    f.l1s[0]->coreRmw(2, kLineB, 77);
    f.run();
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StI)
        << "fence must drop shared lines";
    EXPECT_TRUE(f.gotInv(0, kLineA));
}

TEST(TsoccProtocol, FenceFlagsLoadWaitingOnFill)
{
    // A load waits on an IS fill when an RMW fence self-invalidates.
    // The fill's data predates the fence, so the load is answered
    // invalidated-in-flight and the line is not installed.
    TsoccFixture f;
    f.l1s[0]->coreStore(1, kLineB, 5);
    f.run();
    ASSERT_EQ(f.l1s[0]->lineState(kLineB), TsoccL1::StM);
    f.l1s[0]->coreLoad(2, kLineA);
    ASSERT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StIS);
    f.l1s[0]->coreRmw(3, kLineB, 6);
    f.run();
    const auto &resps = f.stubs[0].resps;
    const auto load =
        std::find_if(resps.begin(), resps.end(),
                     [](const CacheResp &r) { return r.id == 2; });
    ASSERT_NE(load, resps.end());
    EXPECT_TRUE(load->invalidatedInFlight);
    EXPECT_EQ(f.l1s[0]->lineState(kLineA), TsoccL1::StI);
}

TEST(TsoccProtocol, FetchWithNoStableVictimRetries)
{
    // Five loads to one 4-way L1 set (stride 128 lines): the fifth finds
    // every way in IS, so it retries until a fill turns a line stable
    // and then evicts that line.
    TsoccFixture f(BugId::None, 1);
    const Addr set_stride = 128 * kLineBytes;
    for (int i = 0; i < 5; ++i) {
        f.l1s[0]->coreLoad(static_cast<ReqId>(i + 1),
                           static_cast<Addr>(i) * set_stride);
    }
    EXPECT_EQ(f.l1s[0]->lineState(4 * set_stride), TsoccL1::StI)
        << "no way is free for the fifth fetch";
    f.run();
    ASSERT_EQ(f.stubs[0].resps.size(), 5u);
    EXPECT_EQ(f.l1s[0]->lineState(4 * set_stride), TsoccL1::StS);
    int evicted = 0;
    for (int i = 0; i < 4; ++i) {
        if (f.l1s[0]->lineState(static_cast<Addr>(i) * set_stride) ==
            TsoccL1::StI)
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
struct TsoccL2Rig
{
    SystemConfig cfg;
    EventQueue eq;
    Network net{eq, Rng(8)};
    MainMemory mem{eq, net, Rng(9)};
    TransitionCoverage cov;
    TsoccL2 l2{0, cfg, eq, net, cov};
    std::vector<MsgLog> cores = std::vector<MsgLog>(8);

    TsoccL2Rig()
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

    /** Fill set 0 with four lines blocked in B_O (granted, no Unblock). */
    void
    fillSetWithTransients()
    {
        for (int i = 0; i < 4; ++i)
            deliver(MsgType::GETX, static_cast<Pid>(i), setLine(i));
        eq.runUntilQuiescent();
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(l2.lineState(setLine(i)), TsoccL2::StB_O);
    }
};

} // namespace

TEST(TsoccStallWake, ParkedGetsIsServedAtTheUnblockTick)
{
    TsoccL2Rig rig;
    rig.fillSetWithTransients();
    rig.deliver(MsgType::GETS, 4, setLine(4));
    EXPECT_EQ(rig.l2.lineState(setLine(4)), TsoccL2::StNP);
    EXPECT_EQ(rig.l2.stalls().size(), 1u);

    // A parked request schedules nothing: no polling while it waits.
    const std::uint64_t processed = rig.eq.processed();
    EXPECT_TRUE(rig.eq.empty());
    rig.eq.runUntilQuiescent();
    EXPECT_EQ(rig.eq.processed(), processed);

    // The Unblock makes line 0 a victim (O); within the same handler
    // the parked GETS recalls it and takes its way.
    const auto tick = rig.eq.now();
    rig.deliver(MsgType::Unblock, 0, setLine(0));
    EXPECT_EQ(rig.eq.now(), tick);
    EXPECT_EQ(rig.l2.lineState(setLine(0)), TsoccL2::StO_I);
    EXPECT_EQ(rig.l2.lineState(setLine(4)), TsoccL2::StIU_S);
    EXPECT_EQ(rig.l2.stalls().size(), 0u);
}

TEST(TsoccStallWake, OneVictimServesOneParkedRequestInFifoOrder)
{
    TsoccL2Rig rig;
    rig.fillSetWithTransients();
    for (int i = 4; i < 7; ++i)
        rig.deliver(MsgType::GETX, static_cast<Pid>(i), setLine(i));
    EXPECT_EQ(rig.l2.stalls().size(), 3u);

    // Every service attempt of a miss records (NP, GETX): a wake that
    // retried the whole queue would record one per parked request.
    const auto np_getx = rig.cov.registerTransition("TSOCC-L2", "NP", "GETX");
    for (int v = 0; v < 3; ++v) {
        const std::uint64_t attempts = rig.cov.counts()[np_getx];
        rig.deliver(MsgType::Unblock, static_cast<Pid>(v), setLine(v));
        EXPECT_EQ(rig.cov.counts()[np_getx], attempts + 1);
        // Exactly the oldest parked request got the victim's way.
        for (int i = 4; i < 7; ++i) {
            EXPECT_EQ(rig.l2.lineState(setLine(i)),
                      i <= 4 + v ? TsoccL2::StIU_X : TsoccL2::StNP)
                << "victim " << v << ", line " << i;
        }
        EXPECT_EQ(rig.l2.stalls().size(), static_cast<std::size_t>(2 - v));
    }
}

TEST(TsoccStallWake, ResetAllDropsParkedRequests)
{
    TsoccL2Rig rig;
    rig.fillSetWithTransients();
    rig.deliver(MsgType::GETS, 4, setLine(4));
    ASSERT_EQ(rig.l2.stalls().size(), 1u);
    rig.l2.resetAll();
    EXPECT_EQ(rig.l2.stalls().size(), 0u);
    // The emptied set allocates again at once.
    rig.deliver(MsgType::GETS, 5, setLine(5));
    EXPECT_EQ(rig.l2.lineState(setLine(5)), TsoccL2::StIU_S);
    EXPECT_EQ(rig.l2.stalls().size(), 0u);
}

TEST(TsoccStallWake, StrandedStallIsAStallDeadlock)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::Tsocc;
    System sys(cfg);
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
    EXPECT_EQ(sys.tsoccL2(0)->stalls().size(), 1u);
    // The message names the controller, the tile and the parked line
    // (whichever request reached the full set last).
    EXPECT_NE(what.find("TSOCC-L2 tile 0"), std::string::npos) << what;
    int parked = 0;
    for (int i = 0; i < 5; ++i) {
        if (sys.tsoccL2(0)->lineState(setLine(i)) != TsoccL2::StNP)
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
    EXPECT_EQ(sys.tsoccL2(0)->stalls().size(), 0u);
    EXPECT_NO_THROW(sys.runToQuiescence());
}

TEST(TsoccProtocol, StrayRecallAckIsAProtocolError)
{
    // A RecallAckNoData for a line with no entry, no eviction in
    // flight and no stale ack owed matches no defined transition.
    TsoccL2Rig rig;
    Msg ack;
    ack.type = MsgType::RecallAckNoData;
    ack.line = setLine(0);
    ack.src = coreNode(0);
    ack.dst = l2Node(0);
    EXPECT_THROW(rig.l2.handleMsg(ack), ProtocolError);
}
