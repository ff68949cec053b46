/**
 * @file
 * Core model tests: programs execute to completion with correct
 * functional values, witness recording, forwarding and squash
 * behaviour, on the full System.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/system.hh"

using namespace mcversi::sim;
using mcversi::Addr;
using mcversi::Pid;
using mcversi::WriteVal;

namespace {

Program
makeProgram(std::initializer_list<ProgInstr> instrs)
{
    Program p;
    p.instrs = instrs;
    p.memSize = 1024;
    p.stride = 16;
    p.mapLogical = [](Addr logical) { return 0x1000 + logical; };
    return p;
}

ProgInstr
instr(InstrKind kind, Addr addr, Addr logical = 0)
{
    ProgInstr i;
    i.kind = kind;
    i.addr = addr;
    i.logical = logical;
    return i;
}

/** Run all cores to completion; returns total events processed. */
std::uint64_t
runAll(System &sys)
{
    for (Pid p = 0; p < static_cast<Pid>(sys.numCores()); ++p)
        sys.core(p).start(sys.eventQueue().now() + 5);
    return sys.runToQuiescence();
}

} // namespace

TEST(Core, EmptyProgramCompletesImmediately)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(Program{});
    runAll(sys);
    EXPECT_TRUE(sys.core(0).done());
}

TEST(Core, StoreThenLoadForwardsAndRecords)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
        instr(InstrKind::Load, 0x1000),
    }));
    runAll(sys);
    ASSERT_TRUE(sys.core(0).done());
    EXPECT_GE(sys.core(0).forwardedLoads(), 1u);

    auto &ew = sys.witness();
    ew.finalize();
    // Two events: the write and the read; the read sources the write.
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 2u);
    const auto w = events[0];
    const auto r = events[1];
    EXPECT_TRUE(ew.event(w).isWrite());
    EXPECT_TRUE(ew.event(r).isRead());
    EXPECT_EQ(ew.rfSource(r), w);
}

TEST(Core, LoadOfColdMemoryReadsZero)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Load, 0x2000),
    }));
    runAll(sys);
    auto &ew = sys.witness();
    ew.finalize();
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(ew.event(events[0]).value, mcversi::kInitVal);
}

TEST(Core, UniqueWriteValues)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
        instr(InstrKind::Store, 0x1010),
        instr(InstrKind::Store, 0x1000),
    }));
    sys.core(1).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1020),
    }));
    runAll(sys);
    auto &ew = sys.witness();
    ew.finalize();
    std::set<WriteVal> values;
    for (const auto &ev : ew.events())
        if (ev.isWrite() && !ev.isInit())
            values.insert(ev.value);
    EXPECT_EQ(values.size(), 4u) << "write IDs must be globally unique";
}

TEST(Core, CrossCoreCommunicationVisible)
{
    System sys(SystemConfig{});
    // Core 0 stores; core 1 polls the same address. With one iteration
    // the read may see init or the store; both are fine -- the witness
    // must resolve either way.
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
    }));
    sys.core(1).loadProgram(makeProgram({
        instr(InstrKind::Delay, 0),
        instr(InstrKind::Load, 0x1000),
    }));
    runAll(sys);
    auto &ew = sys.witness();
    ew.finalize();
    EXPECT_EQ(ew.anomaly(), mcversi::mc::WitnessAnomaly::None);
}

TEST(Core, RmwRecordsPairAndSquashes)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
        instr(InstrKind::Rmw, 0x1000),
        instr(InstrKind::Load, 0x1000),
    }));
    runAll(sys);
    auto &ew = sys.witness();
    ew.finalize();
    ASSERT_EQ(ew.rmwPairs().size(), 1u);
    const auto [r, w] = ew.rmwPairs()[0];
    // RMW read the store's value; the final load reads the RMW's.
    EXPECT_EQ(ew.coPredecessor(w), ew.rfSource(r));
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(ew.rfSource(events[3]), w);
}

TEST(Core, FlushAndDelayComplete)
{
    System sys(SystemConfig{});
    ProgInstr delay = instr(InstrKind::Delay, 0);
    delay.delay = 12;
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
        delay,
        instr(InstrKind::Flush, 0x1000),
        instr(InstrKind::Load, 0x1000),
    }));
    runAll(sys);
    EXPECT_TRUE(sys.core(0).done());
    auto &ew = sys.witness();
    ew.finalize();
    // The post-flush load re-fetches and still sees the stored value.
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 2u); // store + load (flush/delay: none)
    EXPECT_EQ(ew.event(events[1]).value, ew.event(events[0]).value);
}

TEST(Core, AddrDepLoadStaysInRegion)
{
    System sys(SystemConfig{});
    Program p;
    p.memSize = 256;
    p.stride = 16;
    p.mapLogical = [](Addr logical) { return 0x4000 + logical; };
    p.instrs.push_back(instr(InstrKind::Load, 0x4000, 0));
    p.instrs.push_back(instr(InstrKind::LoadAddrDep, 0x4010, 16));
    sys.core(0).loadProgram(p);
    runAll(sys);
    auto &ew = sys.witness();
    ew.finalize();
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 2u);
    const Addr dep_addr = ew.event(events[1]).addr;
    EXPECT_GE(dep_addr, 0x4000u);
    EXPECT_LT(dep_addr, 0x4000u + 256u);
    EXPECT_EQ(dep_addr % 16, 0u);
}

TEST(Core, ProgramOrderOfRecordedEventsMatchesSlots)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Load, 0x1000),
        instr(InstrKind::Store, 0x1010),
        instr(InstrKind::Load, 0x1020),
        instr(InstrKind::Store, 0x1030),
    }));
    runAll(sys);
    auto &ew = sys.witness();
    ew.finalize();
    const auto &events = ew.threadEvents(0);
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ew.event(events[i]).iiid.poi,
                  static_cast<std::int32_t>(i));
}

TEST(Core, RestartSupportsNewIteration)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
        instr(InstrKind::Load, 0x1000),
    }));
    runAll(sys);
    const auto first_events = sys.witness().numEvents();
    sys.witness().reset();
    sys.resetProtocolState();
    sys.zeroMemory({0x1000});
    runAll(sys);
    EXPECT_EQ(sys.witness().numEvents(), first_events);
    sys.witness().finalize();
    EXPECT_EQ(sys.witness().anomaly(),
              mcversi::mc::WitnessAnomaly::None);
}

TEST(Core, DebugStateMentionsProgress)
{
    System sys(SystemConfig{});
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Load, 0x1000),
    }));
    runAll(sys);
    const std::string s = sys.core(0).debugState();
    EXPECT_NE(s.find("core0"), std::string::npos);
    EXPECT_NE(s.find("done=1"), std::string::npos);
}

TEST(Core, TsoccSystemRunsPrograms)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::Tsocc;
    System sys(cfg);
    sys.core(0).loadProgram(makeProgram({
        instr(InstrKind::Store, 0x1000),
        instr(InstrKind::Load, 0x1000),
        instr(InstrKind::Rmw, 0x1010),
    }));
    sys.core(1).loadProgram(makeProgram({
        instr(InstrKind::Load, 0x1000),
        instr(InstrKind::Store, 0x1010),
    }));
    runAll(sys);
    EXPECT_TRUE(sys.core(0).done());
    EXPECT_TRUE(sys.core(1).done());
    sys.witness().finalize();
    EXPECT_EQ(sys.witness().anomaly(),
              mcversi::mc::WitnessAnomaly::None);
}

TEST(Core, AddrDepChainAcrossRmwIsWokenAndSquashed)
{
    // Load -> dep -> dep, then an RMW (itself a value producer) -> dep
    // -> dep. Each LoadAddrDep waits on the nearest preceding producer
    // only: the RMW wakes the chain behind it and, as a fence, squashes
    // it when it retires; core 1's stores invalidate the chain's lines
    // and squash it again. Every dependent load must still compute its
    // address from the value its producer finally retired with.
    std::uint64_t squashes = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SystemConfig cfg;
        cfg.seed = seed;
        System sys(cfg);
        // The leading delay holds retirement, so the chain performs
        // speculatively while core 1's stores invalidate its lines.
        ProgInstr hold = instr(InstrKind::Delay, 0);
        hold.delay = 3000;
        const Program chain = makeProgram({
            hold,
            instr(InstrKind::Load, 0x1000, 0x0),
            instr(InstrKind::LoadAddrDep, 0x1010, 0x10),
            instr(InstrKind::Store, 0x1100, 0x100),
            instr(InstrKind::LoadAddrDep, 0x1020, 0x20),
            instr(InstrKind::Rmw, 0x1030, 0x30),
            instr(InstrKind::Delay, 0),
            instr(InstrKind::LoadAddrDep, 0x1040, 0x40),
            instr(InstrKind::LoadAddrDep, 0x1050, 0x50),
        });
        sys.core(0).loadProgram(chain);
        std::vector<ProgInstr> stores;
        for (int round = 0; round < 2; ++round)
            for (Addr off = 0; off < 1024; off += 16)
                stores.push_back(instr(InstrKind::Store, 0x1000 + off, off));
        Program writer = makeProgram({});
        writer.instrs = stores;
        sys.core(1).loadProgram(writer);
        runAll(sys);
        ASSERT_TRUE(sys.core(0).done());
        ASSERT_TRUE(sys.core(1).done());
        squashes += sys.core(0).squashes();

        auto &ew = sys.witness();
        ew.finalize();
        EXPECT_EQ(ew.anomaly(), mcversi::mc::WitnessAnomaly::None);
        // Value each slot produced: a load's read, an RMW's read part.
        std::map<std::int32_t, WriteVal> produced;
        std::map<std::int32_t, Addr> addr;
        for (const auto id : ew.threadEvents(0)) {
            const auto &ev = ew.event(id);
            if (ev.isRead()) {
                produced[ev.iiid.poi] = ev.value;
                addr[ev.iiid.poi] = ev.addr;
            }
        }
        const std::pair<std::int32_t, std::int32_t> deps[] = {
            {2, 1}, {4, 2}, {7, 5}, {8, 7}};
        for (const auto &[slot, producer] : deps) {
            ASSERT_TRUE(addr.count(slot)) << "slot " << slot;
            EXPECT_EQ(addr[slot],
                      chain.depAddr(chain.instrs[static_cast<std::size_t>(
                                        slot)],
                                    produced[producer]))
                << "seed " << seed << " slot " << slot;
        }
    }
    EXPECT_GT(squashes, 0u);
}
