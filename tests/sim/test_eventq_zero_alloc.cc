/**
 * @file
 * Counting-allocator proof that the schedule/dispatch/deliver path is
 * allocation-free in steady state.
 *
 * This binary replaces global operator new/delete with the counting
 * wrappers of tests/counting_new.hh. After a warmup round has sized
 * the wheel buckets, message pool and network routing arrays, a full
 * schedule -> dispatch -> Network::send -> deliver cycle must perform
 * exactly zero heap allocations -- the strongest form of the
 * steady-state property (the structuralAllocations() instrumentation
 * in test_eventq.cc is the portable cross-check that also runs under
 * sanitizers).
 *
 * Skipped under ASan/UBSan: the sanitizer runtime interposes and
 * allocates on its own schedule, so the counter is not meaningful.
 */

#include <gtest/gtest.h>

#include "../counting_new.hh"

#include "sim/network.hh"

namespace {

using namespace mcversi;
using namespace mcversi::sim;

class Sink : public MsgHandler
{
  public:
    void handleMsg(const Msg &msg) override { last = msg.type; }
    MsgType last = MsgType::GETS;
};

/**
 * One steady-state round: typed events, pooled sends, deliveries.
 * [[maybe_unused]]: under sanitizers the test body compiles out.
 */
[[maybe_unused]] void
spin(EventQueue &eq, Network &net, Sink & /*sink*/)
{
    // Phase-align the wheel so warmup and measurement hit the same
    // buckets (the steady state a test-iteration loop reaches), and
    // clear FIFO floors exactly like the per-iteration protocol reset.
    eq.reset();
    net.resetOrdering();
    for (int round = 0; round < 20; ++round) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            eq.scheduleFnIn(
                i % 61,
                [](void *, std::uint64_t, std::uint64_t, std::uint64_t,
                   std::uint64_t) {},
                nullptr);
        }
        for (int i = 0; i < 8; ++i) {
            Msg &m = net.stage();
            m.type = i % 2 == 0 ? MsgType::GETS : MsgType::Inv;
            m.src = 0;
            m.dst = i % 4;
            m.vnet = i % 2 == 0 ? Vnet::Request : Vnet::Fwd;
            net.send(&m);
        }
        // Far-future pooled delivery exercises the overflow path.
        eq.scheduleNetSend(eq.now() + 400, &net,
                           eq.msgPool().acquireCopy([&] {
                               Msg m;
                               m.type = MsgType::Data;
                               m.src = 4;
                               m.dst = 1;
                               m.vnet = Vnet::Response;
                               return m;
                           }()));
        eq.runUntilQuiescent();
    }
}

TEST(EventQueueZeroAlloc, SteadyStateDoesNotTouchTheHeap)
{
#ifdef MCVERSI_ZERO_ALLOC_SKIP
    GTEST_SKIP() << "allocation counting is not meaningful under "
                    "sanitizers";
#else
    EventQueue eq;
    // Zero jitter so warmup and measurement see identical delivery
    // ticks (the RNG stream advances across rounds; jitter only shifts
    // which bucket an event lands in, never whether paths allocate).
    Network::Params params;
    params.maxJitter = 0;
    Network net(eq, Rng(7), params);
    Sink sinks[8];
    for (NodeId n = 0; n < 8; ++n)
        net.registerNode(n, &sinks[n]);

    spin(eq, net, sinks[0]); // Warmup: all capacities grow here.

    const std::uint64_t heap_before = g_allocs.load();
    const std::uint64_t structural_before = eq.structuralAllocations();
    spin(eq, net, sinks[0]);
    const std::uint64_t heap_after = g_allocs.load();

    EXPECT_EQ(heap_after - heap_before, 0u)
        << "steady-state schedule/dispatch/deliver allocated "
        << (heap_after - heap_before) << " times";
    // The portable instrumentation must agree with the raw counter.
    EXPECT_EQ(eq.structuralAllocations(), structural_before);
#endif
}

} // namespace
