/**
 * @file
 * Counting-allocator proof that bounded-window streaming checking is
 * allocation-free in steady state: after a warmup cycle has sized the
 * witness ring, the node/meta arrays, the value map, and the graph
 * adjacency pools, every further begin() -> stream -> verdict cycle
 * performs exactly zero heap allocations, and the live-node high water
 * stays O(window) rather than O(trace).
 *
 * This binary replaces global operator new/delete with the counting
 * wrappers of tests/counting_new.hh. Skipped under ASan/UBSan: the
 * sanitizer runtime interposes and allocates on its own schedule, so
 * the counter is not meaningful.
 */

#include <vector>

#include <gtest/gtest.h>

#include "../counting_new.hh"

#include "memconsistency/execwitness.hh"
#include "memconsistency/models/registry.hh"
#include "memconsistency/streaming_checker.hh"

namespace {

using namespace mcversi;

/** One recordRead()/recordWrite() call. */
struct Rec
{
    bool write;
    Pid pid;
    std::int32_t poi;
    Addr addr;
    WriteVal value;
    WriteVal overwritten;
};

/**
 * Deterministic clean trace with bounded reuse distance (every read
 * observes a write at most 2 * addrs events old), so a window above
 * that distance retires nodes promptly and never truncates. The
 * helpers are [[maybe_unused]]: under sanitizers the test body that
 * calls them compiles out.
 */
[[maybe_unused]] std::vector<Rec>
cyclicTrace(int threads, int ops, int addrs)
{
    std::vector<Rec> trace;
    trace.reserve(static_cast<std::size_t>(ops));
    std::vector<WriteVal> memory(static_cast<std::size_t>(addrs),
                                 kInitVal);
    std::vector<std::int32_t> poi(static_cast<std::size_t>(threads), 0);
    WriteVal next = 1;
    for (int i = 0; i < ops; ++i) {
        const Pid pid = static_cast<Pid>(i % threads);
        // Write/read pairs cycle the address space together, so every
        // address keeps being overwritten (a value that is never
        // overwritten has no fr edge to wait for, but also pins its
        // readers live -- real soak traffic keeps overwriting).
        const auto ai = static_cast<std::size_t>((i / 2) % addrs);
        const Addr addr = 0x100 + 64 * static_cast<Addr>(ai);
        const std::int32_t p = poi[static_cast<std::size_t>(pid)]++;
        if (i % 2 == 0) {
            const WriteVal v = next++;
            trace.push_back({true, pid, p, addr, v, memory[ai]});
            memory[ai] = v;
        } else {
            trace.push_back({false, pid, p, addr, memory[ai], kInitVal});
        }
    }
    return trace;
}

/**
 * One steady-state cycle: reset the witness, stream the whole trace
 * through the checker, and poll the online verdict -- exactly what a
 * soak workload's per-test loop does. (checkStreamed() is not called
 * here: its verdict strings allocate by design; the soak loop only
 * renders them on the rare dirty stream.)
 */
[[maybe_unused]] bool
spin(const std::vector<Rec> &trace, mc::ExecWitness &ew,
     mc::StreamingChecker &sc, std::size_t window)
{
    ew.reset();
    ew.setWindow(window);
    sc.setWindow(window);
    ew.setEventSink(&sc);
    sc.begin();
    for (const Rec &r : trace) {
        if (r.write)
            ew.recordWrite(r.pid, r.poi, r.addr, r.value, r.overwritten);
        else
            ew.recordRead(r.pid, r.poi, r.addr, r.value);
    }
    ew.setEventSink(nullptr);
    return !sc.violationDetected() && sc.streamComplete() &&
           !sc.windowTruncated();
}

TEST(StreamingZeroAlloc, SteadyStateWindowedCyclesDoNotTouchTheHeap)
{
#ifdef MCVERSI_ZERO_ALLOC_SKIP
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#else
    const std::size_t window = 256;
    const auto trace = cyclicTrace(4, 8192, 6);

    mc::ExecWitness ew;
    mc::StreamingChecker sc(mc::modelProfile("tso"));

    // Warmup: the ring, node arrays, value map, retirement FIFO, and
    // graph adjacency pools all reach steady-state capacity here.
    ASSERT_TRUE(spin(trace, ew, sc, window));

    const std::uint64_t heap_before = g_allocs.load();
    const bool clean = spin(trace, ew, sc, window);
    const bool clean2 = spin(trace, ew, sc, window);
    const std::uint64_t heap_after = g_allocs.load();

    EXPECT_TRUE(clean);
    EXPECT_TRUE(clean2);
    EXPECT_EQ(heap_after - heap_before, 0u)
        << "steady-state windowed streaming allocated "
        << (heap_after - heap_before) << " times over two cycles";
    // O(window) live set: unbounded checking of this trace would peak
    // at ~8k live nodes.
    EXPECT_LE(sc.liveNodeHighWater(), window + window / 2 + 64);
#endif
}

} // namespace
