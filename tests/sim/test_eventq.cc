/** @file Discrete-event kernel tests. */

#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/eventq.hh"
#include "sim/message.hh"

using namespace mcversi::sim;
using mcversi::Tick;

namespace {

/**
 * Closure events for tests, built on the kernel's typed events: each
 * closure is kept alive here (a deque keeps addresses stable) and run
 * by a trampoline scheduled with scheduleFn().
 */
class Closures
{
  public:
    explicit Closures(EventQueue &eq) : eq_(eq) {}

    void
    at(Tick when, std::function<void()> fn)
    {
        fns_.push_back(std::move(fn));
        eq_.scheduleFn(when, &run, &fns_.back());
    }

    void
    in(Tick delta, std::function<void()> fn)
    {
        at(eq_.now() + delta, std::move(fn));
    }

  private:
    static void
    run(void *obj, std::uint64_t, std::uint64_t, std::uint64_t,
        std::uint64_t)
    {
        (*static_cast<std::function<void()> *>(obj))();
    }

    EventQueue &eq_;
    std::deque<std::function<void()>> fns_;
};

} // namespace

TEST(EventQueue, OrdersByTick)
{
    EventQueue eq;
    Closures ev(eq);
    std::vector<int> order;
    ev.at(10, [&]() { order.push_back(2); });
    ev.at(5, [&]() { order.push_back(1); });
    ev.at(20, [&]() { order.push_back(3); });
    eq.runUntilQuiescent();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue eq;
    Closures ev(eq);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        ev.at(7, [&order, i]() { order.push_back(i); });
    eq.runUntilQuiescent();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    Closures ev(eq);
    int fired = 0;
    ev.at(1, [&]() {
        ++fired;
        ev.in(5, [&]() { ++fired; });
    });
    EXPECT_EQ(eq.runUntilQuiescent(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, PastTickClampedToNow)
{
    // Scheduling in the past hides protocol latency bugs: debug and
    // sanitizer builds make it a hard error, release builds keep the
    // historical clamp-to-now behavior.
    EventQueue eq;
    Closures ev(eq);
    if (EventQueue::strictPastScheduling()) {
        bool threw = false;
        ev.at(10, [&]() {
            try {
                ev.at(3, []() {}); // in the past
            } catch (const std::logic_error &) {
                threw = true;
            }
        });
        eq.runUntilQuiescent();
        EXPECT_TRUE(threw);
    } else {
        Tick seen = 0;
        ev.at(10, [&]() {
            ev.at(3, [&]() { seen = eq.now(); }); // in the past
        });
        eq.runUntilQuiescent();
        EXPECT_EQ(seen, 10u);
    }
}

TEST(EventQueue, MaxEventsGuard)
{
    EventQueue eq;
    Closures ev(eq);
    std::function<void()> loop = [&]() { ev.in(1, loop); };
    ev.at(0, loop);
    EXPECT_THROW(eq.runUntilQuiescent(1000), std::runtime_error);
}

TEST(EventQueue, ResetClears)
{
    EventQueue eq;
    Closures ev(eq);
    int fired = 0;
    ev.at(5, [&]() { ++fired; });
    eq.reset();
    EXPECT_TRUE(eq.empty());
    eq.runUntilQuiescent();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, ProcessedCounter)
{
    EventQueue eq;
    Closures ev(eq);
    for (int i = 0; i < 5; ++i)
        ev.at(static_cast<Tick>(i), []() {});
    eq.runUntilQuiescent();
    EXPECT_EQ(eq.processed(), 5u);
}

TEST(EventQueue, TypedFnEventCarriesArgs)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    eq.scheduleFn(
        5,
        [](void *obj, std::uint64_t a, std::uint64_t b, std::uint64_t c,
           std::uint64_t d) {
            *static_cast<std::uint64_t *>(obj) = a + b + c + d;
        },
        &sum, 1, 2, 3, 4);
    eq.runUntilQuiescent();
    EXPECT_EQ(sum, 10u);
    EXPECT_EQ(eq.now(), 5u);
}

/**
 * Same-tick insertion-order golden: a fixed schedule pattern mixing
 * near (wheel), far (overflow) and same-tick nested insertions must
 * fire in exactly (tick, insertion-seq) order -- the determinism
 * contract every witness golden builds on.
 */
TEST(EventQueue, SameTickInsertionOrderGolden)
{
    EventQueue eq;
    Closures ev(eq);
    std::vector<int> order;
    auto mark = [&order](int id) { return [&order, id]() { order.push_back(id); }; };

    // Far-future first (overflow path), interleaved with near ticks,
    // with several events sharing each tick in scrambled insert order.
    ev.at(1000, mark(0)); // overflow
    ev.at(7, mark(1));
    ev.at(1000, mark(2)); // overflow, same far tick
    ev.at(7, mark(3));
    ev.at(300, mark(4));  // overflow (>= wheel horizon)
    ev.at(0, mark(5));
    ev.at(7, [&ev, &order]() {
        order.push_back(6);
        // Nested same-tick: must run this tick, after already-queued
        // tick-7 events.
        ev.in(0, [&order]() { order.push_back(7); });
        // Nested far: crosses the wheel horizon from tick 7.
        ev.at(1000, [&order]() { order.push_back(8); });
    });
    ev.at(300, mark(9));

    eq.runUntilQuiescent();

    const std::vector<int> golden{5, 1, 3, 6, 7, 4, 9, 0, 2, 8};
    EXPECT_EQ(order, golden);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, SeqMonotonicityAcrossReset)
{
    // Determinism relies on the insertion sequence being monotonic,
    // never on its absolute value: reset() deliberately does not
    // rewind the counter, and same-tick ordering after a reset is
    // still pure insertion order.
    EventQueue eq;
    Closures ev(eq);
    for (int i = 0; i < 100; ++i)
        ev.at(static_cast<Tick>(i % 3), []() {});
    eq.runUntilQuiescent();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);

    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        ev.at(4, [&order, i]() { order.push_back(i); });
    eq.runUntilQuiescent();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ClearPendingReclaimsPooledPayloads)
{
    // Dropped Deliver/NetSend events must return their messages to the
    // pool (the livelock watchdog clears mid-flight state every time
    // it fires); repeated clear cycles must not grow the pool.
    EventQueue eq;
    Closures ev(eq);

    struct Sink : MsgHandler
    {
        void handleMsg(const Msg &) override {}
    } sink;

    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 20; ++i)
            eq.scheduleDeliver(static_cast<Tick>(eq.now() + 5), &sink,
                               eq.msgPool().acquire());
        eq.clearPending();
        EXPECT_TRUE(eq.empty());
    }
    // One slab (64 messages) covers the 20 in flight; reclamation
    // keeps it that way across 50 clear cycles.
    EXPECT_EQ(eq.msgPool().slabsAllocated(), 1u);

    // And clearing must not disturb time or subsequent scheduling.
    int fired = 0;
    ev.at(eq.now() + 3, [&]() { ++fired; });
    eq.runUntilQuiescent();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SteadyStateSchedulingIsAllocationFree)
{
    // After a warmup round sizes the wheel buckets and the message
    // pool, further schedule/dispatch cycles -- including
    // overflow ticks and pooled deliveries -- must not grow any
    // kernel-internal structure.
    EventQueue eq;

    struct Sink : MsgHandler
    {
        void handleMsg(const Msg &) override {}
    } sink;

    auto spin = [&eq, &sink]() {
        // Phase-align: identical tick patterns hit identical buckets,
        // the steady state a test-iteration loop reaches.
        eq.reset();
        for (int round = 0; round < 40; ++round) {
            for (std::uint64_t i = 0; i < 32; ++i) {
                eq.scheduleFnIn(
                    i % 97,
                    [](void *, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint64_t) {},
                    nullptr);
            }
            for (std::uint64_t i = 0; i < 8; ++i)
                eq.scheduleDeliver(eq.now() + 300 + i, &sink,
                                   eq.msgPool().acquire());
            eq.runUntilQuiescent();
        }
    };

    spin(); // Warmup: capacities grow here.
    const std::uint64_t baseline = eq.structuralAllocations();
    spin();
    EXPECT_EQ(eq.structuralAllocations(), baseline)
        << "steady-state scheduling grew a kernel structure";
}
