/**
 * @file
 * Counting-allocator proof that a whole test-run is nearly
 * allocation-free in steady state.
 *
 * test_eventq_zero_alloc.cc covers the event kernel alone. This binary
 * drives complete Workload test-runs (emit, simulate on MESI or TSO-CC,
 * record, check) and counts global operator new calls with the
 * wrappers of tests/counting_new.hh. After a warmup over 20 fixed
 * tests has sized every table, FIFO and pool, re-running the same 20
 * tests must average fewer than 0.5 allocations per witness event. The per-line maps and queues of the protocol
 * controllers, main memory and the cores are flat storage that keeps
 * its capacity, so the simulator's share is a small constant per
 * test-run; node-based maps cost many allocations per event.
 *
 * Skipped under ASan/UBSan: the sanitizer runtime interposes and
 * allocates on its own schedule, so the counter is not meaningful.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../counting_new.hh"

#include "gp/randgen.hh"
#include "host/harness.hh"
#include "host/workload.hh"

namespace {

using namespace mcversi;

struct Totals
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
};

/**
 * Run every test in @p tests once; heap allocations and witness events.
 * The helpers are [[maybe_unused]]: under sanitizers the test bodies
 * that call them compile out.
 */
[[maybe_unused]] Totals
runAll(host::Workload &workload, const std::vector<gp::Test> &tests)
{
    Totals t;
    const std::uint64_t before = g_allocs.load();
    for (const gp::Test &test : tests) {
        const host::RunResult r = workload.runTest(test);
        EXPECT_FALSE(r.bugDetected()) << r.describe();
        t.events += r.eventsExecuted;
    }
    t.allocs = g_allocs.load() - before;
    return t;
}

[[maybe_unused]] void
expectFewAllocationsPerEvent(sim::Protocol protocol)
{
    sim::SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.seed = 5;
    gp::GenParams gen;
    gen.testSize = 256;
    gen.iterations = 4;
    gen.memSize = 8192;
    host::Workload::Params params;
    params.iterations = gen.iterations;

    auto system = std::make_unique<sim::System>(cfg);
    auto checker = std::make_unique<mc::Checker>(mc::makeTso());
    host::Workload workload(*system, *checker, host::layoutFor(gen), params);

    gp::RandomTestGen rtg(gen);
    Rng rng(17);
    std::vector<gp::Test> tests;
    for (int i = 0; i < 20; ++i)
        tests.push_back(rtg.randomTest(rng));

    runAll(workload, tests); // Warmup: every capacity grows here.
    const Totals t = runAll(workload, tests);

    ASSERT_GT(t.events, 0u);
    const double per_event = static_cast<double>(t.allocs) /
                             static_cast<double>(t.events);
    EXPECT_LT(per_event, 0.5)
        << t.allocs << " allocations over " << tests.size()
        << " test-runs of " << t.events << " witness events";
}

TEST(SimAlloc, MesiTestRunsAllocateLittlePerEvent)
{
#ifdef MCVERSI_ZERO_ALLOC_SKIP
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#else
    expectFewAllocationsPerEvent(sim::Protocol::Mesi);
#endif
}

TEST(SimAlloc, TsoccTestRunsAllocateLittlePerEvent)
{
#ifdef MCVERSI_ZERO_ALLOC_SKIP
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#else
    expectFewAllocationsPerEvent(sim::Protocol::Tsocc);
#endif
}

} // namespace
