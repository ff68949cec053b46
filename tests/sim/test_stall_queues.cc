/** @file Per-set stall queue (stall-and-wake) tests. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/stall_queues.hh"

using namespace mcversi::sim;
using mcversi::Addr;
using mcversi::kNoAddr;

namespace {

Msg
request(Addr line)
{
    Msg m;
    m.type = MsgType::GETS;
    m.line = line;
    return m;
}

/** Wake @p set with a way always available; returns the served lines. */
std::vector<Addr>
wakeAll(SetStallQueues &q, std::size_t set)
{
    std::vector<Addr> served;
    q.wake(
        set, [] { return true; },
        [&](const Msg &m) { served.push_back(m.line); });
    return served;
}

} // namespace

TEST(SetStallQueues, WakeServesOnlyWhileTheSetCanAllocate)
{
    SetStallQueues q;
    for (Addr a = 1; a <= 3; ++a)
        q.park(0, request(a));
    std::vector<Addr> served;
    int ways = 1;
    q.wake(
        0, [&] { return ways > 0; },
        [&](const Msg &m) {
            served.push_back(m.line);
            --ways;
        });
    EXPECT_EQ(served, std::vector<Addr>{1});
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.firstParkedLine(), 2u);
}

TEST(SetStallQueues, FifoOrderSurvivesReclaimingTheServedPrefix)
{
    SetStallQueues q;
    std::vector<Addr> expected;
    Addr next = 1;
    // Interleave parks and partial wakes so the FIFO never drains and
    // its buffer has to reclaim served entries while growing.
    for (int round = 0; round < 20; ++round) {
        for (int k = 0; k < 5; ++k)
            q.park(0, request(next++));
        int ways = 3;
        q.wake(
            0, [&] { return ways > 0; },
            [&](const Msg &m) {
                expected.push_back(m.line);
                --ways;
            });
    }
    EXPECT_EQ(q.size(), 40u);
    const std::vector<Addr> rest = wakeAll(q, 0);
    expected.insert(expected.end(), rest.begin(), rest.end());
    ASSERT_EQ(expected.size(), 100u);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(expected[i], static_cast<Addr>(i + 1));
    EXPECT_EQ(q.size(), 0u);
}

TEST(SetStallQueues, SetsAreIndependentAndClearDropsAll)
{
    SetStallQueues q;
    EXPECT_EQ(q.firstParkedLine(), kNoAddr);
    q.park(7, request(70));
    q.park(3, request(30));
    q.park(7, request(71));
    EXPECT_EQ(q.firstParkedLine(), 70u);
    EXPECT_EQ(wakeAll(q, 3), std::vector<Addr>{30});
    EXPECT_TRUE(wakeAll(q, 5).empty());
    EXPECT_EQ(q.size(), 2u);
    q.clear();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.firstParkedLine(), kNoAddr);
    EXPECT_TRUE(wakeAll(q, 7).empty());
}
