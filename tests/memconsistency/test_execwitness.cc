/**
 * @file
 * Unit tests for the candidate execution object.
 *
 * This binary replaces global operator new/delete with the counting
 * wrappers of tests/counting_new.hh for the ExecWitnessZeroAlloc test.
 */

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "../counting_new.hh"

#include "common/rng.hh"
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

namespace {

/** One recordRead()/recordWrite() call. */
struct Rec
{
    bool write;
    Pid pid;
    std::int32_t poi;
    std::uint8_t sub;
    Addr addr;
    WriteVal value;
    WriteVal overwritten;
    bool rmw;
};

/**
 * A well-formed random execution, in record order: @p threads threads
 * of @p ops instructions each over @p words word addresses. Reads are
 * recorded when they issue and read memory or forward from their own
 * store queue; stores queue up (at most 8 deep) and are recorded when
 * they drain, so they arrive after younger reads of their thread. About
 * one instruction in eight is an RMW (read and write share a poi).
 */
std::vector<Rec>
randomTrace(std::uint64_t seed, int threads, int ops, std::uint64_t words)
{
    Rng rng(seed);
    const Addr base = 0x100000 + rng.below(64) * 4096;
    std::map<Addr, WriteVal> mem;
    WriteVal next_val = 1;
    struct Thread
    {
        std::int32_t next_poi = 0;
        std::deque<Rec> sq;
    };
    std::vector<Thread> ts(static_cast<std::size_t>(threads));
    std::vector<Rec> out;
    for (;;) {
        std::vector<Pid> live;
        for (Pid p = 0; p < threads; ++p) {
            const Thread &t = ts[static_cast<std::size_t>(p)];
            if (t.next_poi < ops || !t.sq.empty())
                live.push_back(p);
        }
        if (live.empty())
            break;
        const Pid pid = live[rng.below(live.size())];
        Thread &t = ts[static_cast<std::size_t>(pid)];
        if (!t.sq.empty() &&
            (t.next_poi == ops || t.sq.size() >= 8 || rng.below(3) == 0)) {
            Rec w = t.sq.front();
            t.sq.pop_front();
            const auto it = mem.find(w.addr);
            w.overwritten = it == mem.end() ? kInitVal : it->second;
            mem[w.addr] = w.value;
            out.push_back(w);
            continue;
        }
        const std::int32_t poi = t.next_poi++;
        const Addr addr = base + rng.below(words) * 8;
        const bool rmw = rng.below(8) == 0;
        const bool read = rmw || rng.below(2) == 0;
        if (read) {
            WriteVal v = kInitVal;
            if (const auto it = mem.find(addr); it != mem.end())
                v = it->second;
            for (const Rec &q : t.sq)
                if (q.addr == addr)
                    v = q.value; // Youngest queued store forwards.
            out.push_back(Rec{false, pid, poi, 0, addr, v, kInitVal, rmw});
        }
        if (rmw || !read) {
            t.sq.push_back(
                Rec{true, pid, poi, 1, addr, next_val++, kInitVal, rmw});
        }
    }
    return out;
}

void
record(ExecWitness &ew, const std::vector<Rec> &trace)
{
    for (const Rec &r : trace) {
        if (r.write) {
            ew.recordWrite(r.pid, r.poi, r.addr, r.value, r.overwritten,
                           r.rmw);
        } else {
            ew.recordRead(r.pid, r.poi, r.addr, r.value, r.rmw);
        }
    }
}

/**
 * Compare @p ew's address and init indexes and per-thread lists with a
 * naive reference computed from @p trace.
 */
void
expectMatchesReference(const ExecWitness &ew, const std::vector<Rec> &trace)
{
    const auto n = static_cast<EventId>(trace.size());
    std::map<Addr, AddrId> ids; // first-touch order
    for (const Rec &r : trace)
        ids.emplace(r.addr, static_cast<AddrId>(ids.size()));
    ASSERT_EQ(ew.numAddrs(), ids.size());
    for (EventId e = 0; e < n; ++e)
        ASSERT_EQ(ew.addrId(e), ids.at(trace[static_cast<std::size_t>(e)].addr))
            << "event " << e;

    // finalize() creates init events in this order: for reads of the
    // init value in id order, then for writes overwriting it.
    std::map<Addr, EventId> inits;
    if (ew.finalized()) {
        EventId next = n;
        for (const bool write : {false, true}) {
            for (const Rec &r : trace) {
                const WriteVal v = write ? r.overwritten : r.value;
                if (r.write == write && v == kInitVal &&
                    inits.emplace(r.addr, next).second) {
                    ++next;
                }
            }
        }
        ASSERT_EQ(ew.numEvents(), static_cast<std::size_t>(next));
    } else {
        ASSERT_EQ(ew.numEvents(), trace.size());
    }
    for (const auto &[addr, id] : ids) {
        const auto it = inits.find(addr);
        const EventId init = ew.initEvent(addr);
        ASSERT_EQ(init, it == inits.end() ? kNoEvent : it->second)
            << "address " << addr;
        if (init != kNoEvent) {
            EXPECT_TRUE(ew.event(init).isInit());
            EXPECT_EQ(ew.addrId(init), id);
        }
    }
    // Addresses no event touched, inside and outside the table's range.
    for (const Addr untouched : {Addr{8}, ids.begin()->first - 8,
                                 ids.rbegin()->first + 8, Addr{1} << 40}) {
        EXPECT_EQ(ew.initEvent(untouched), kNoEvent);
    }

    std::map<Pid, std::vector<EventId>> po;
    for (EventId e = 0; e < n; ++e)
        po[trace[static_cast<std::size_t>(e)].pid].push_back(e);
    for (auto &[pid, ids_of] : po) {
        std::sort(ids_of.begin(), ids_of.end(),
                  [&trace](EventId a, EventId b) {
                      const Rec &ra = trace[static_cast<std::size_t>(a)];
                      const Rec &rb = trace[static_cast<std::size_t>(b)];
                      return std::tuple(ra.poi, ra.sub, a) <
                             std::tuple(rb.poi, rb.sub, b);
                  });
        EXPECT_EQ(ew.threadEvents(pid), ids_of) << "thread " << pid;
    }
}

/** Events recorded after an event that follows them in program order. */
std::size_t
lateEvents(const std::vector<Rec> &trace)
{
    std::map<Pid, std::pair<std::int32_t, std::uint8_t>> latest;
    std::size_t late = 0;
    for (const Rec &r : trace) {
        const auto key = std::pair(r.poi, r.sub);
        const auto [it, fresh] = latest.emplace(r.pid, key);
        if (!fresh && key < it->second)
            ++late;
        else
            it->second = key;
    }
    return late;
}

} // namespace

TEST(ExecWitness, IndexesMatchANaiveReferenceOnRandomWitnesses)
{
    ExecWitness ew;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        // ~2000 distinct words: the address table grows from 16 slots
        // to 4096, relocating every entry each time.
        const auto first = randomTrace(seed, 4, 800, 4096);
        const auto second = randomTrace(seed + 100, 3, 600, 2048);
        ASSERT_GT(lateEvents(first), 100u);
        ASSERT_GT(lateEvents(second), 100u);

        ew.reset();
        record(ew, first);
        ASSERT_GT(ew.numAddrs(), 1000u);
        expectMatchesReference(ew, first);
        ew.finalize();
        EXPECT_EQ(ew.anomaly(), WitnessAnomaly::None);
        expectMatchesReference(ew, first);

        ew.reset();
        record(ew, second);
        ASSERT_GT(ew.numAddrs(), 1000u);
        expectMatchesReference(ew, second);
        ew.finalize();
        EXPECT_EQ(ew.anomaly(), WitnessAnomaly::None);
        expectMatchesReference(ew, second);
    }
}

TEST(ExecWitness, ReverseProgramOrderIsKeptSorted)
{
    // The worst case for placing events at record time: every event of
    // thread 0 arrives before all of its program-order predecessors.
    ExecWitness ew;
    std::vector<EventId> expected(300);
    for (std::int32_t poi = 299; poi >= 0; --poi) {
        const Addr addr = 0x1000 + static_cast<Addr>(poi % 37) * 8;
        expected[static_cast<std::size_t>(poi)] =
            poi % 3 == 0
                ? ew.recordWrite(0, poi, addr, static_cast<WriteVal>(poi + 1),
                                 kInitVal)
                : ew.recordRead(0, poi, addr, kInitVal);
        ew.recordRead(1, 299 - poi, addr, kInitVal);
    }
    EXPECT_EQ(ew.threadEvents(0), expected);
    ASSERT_EQ(ew.threadEvents(1).size(), 300u);
    EXPECT_TRUE(std::is_sorted(ew.threadEvents(1).begin(),
                               ew.threadEvents(1).end()));
    ew.finalize();
    EXPECT_EQ(ew.threadEvents(0), expected);
}

TEST(ExecWitnessZeroAlloc, WarmResetRecordFinalizeAllocatesNothing)
{
#ifdef MCVERSI_ZERO_ALLOC_SKIP
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#else
    const auto trace = randomTrace(7, 4, 400, 1024);
    ExecWitness ew;
    // Warmup sizes every buffer, the address table and the per-thread
    // lists.
    record(ew, trace);
    ew.finalize();
    ASSERT_EQ(ew.anomaly(), WitnessAnomaly::None);

    const std::uint64_t heap_before = g_allocs.load();
    for (int cycle = 0; cycle < 2; ++cycle) {
        ew.reset();
        record(ew, trace);
        ew.finalize();
    }
    const std::uint64_t heap_after = g_allocs.load();
    EXPECT_EQ(ew.anomaly(), WitnessAnomaly::None);
    EXPECT_EQ(heap_after - heap_before, 0u)
        << "a warm reset -> record -> finalize cycle allocated "
        << (heap_after - heap_before) << " times over two cycles";
#endif
}
