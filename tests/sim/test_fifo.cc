/** @file Vector-backed FIFO tests. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/fifo.hh"

using mcversi::sim::Fifo;

namespace {

std::vector<int>
drain(Fifo<int> &q)
{
    std::vector<int> out;
    while (!q.empty()) {
        out.push_back(q.front());
        q.pop_front();
    }
    return out;
}

} // namespace

TEST(Fifo, DrainsInOrderToEmpty)
{
    Fifo<int> q;
    EXPECT_TRUE(q.empty());
    for (int i = 1; i <= 5; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    // Reusable after draining.
    q.push_back(6);
    EXPECT_EQ(q.front(), 6);
    EXPECT_EQ(q.size(), 1u);
}

TEST(Fifo, OrderSurvivesReclaimingThePoppedPrefix)
{
    // Interleave pushes and pops so the queue never drains and every
    // push into a full vector first reclaims the popped prefix.
    Fifo<int> q;
    std::vector<int> popped;
    int next = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 3; ++i)
            q.push_back(next++);
        for (int i = 0; i < 2; ++i) {
            popped.push_back(q.front());
            q.pop_front();
        }
    }
    const std::vector<int> rest = drain(q);
    popped.insert(popped.end(), rest.begin(), rest.end());
    ASSERT_EQ(popped.size(), static_cast<std::size_t>(next));
    for (int i = 0; i < next; ++i)
        EXPECT_EQ(popped[static_cast<std::size_t>(i)], i);
}

TEST(Fifo, EraseIfRemovesFromTheMiddleInOrder)
{
    // answerQueuedLoads: visit oldest first, drop the loads, keep the
    // rest in order -- also behind a popped prefix.
    Fifo<int> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(i);
    q.pop_front();
    std::vector<int> visited;
    q.eraseIf([&](int v) {
        visited.push_back(v);
        return v % 2 == 0;
    });
    EXPECT_EQ(visited, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 3, 5, 7}));
}

TEST(Fifo, EraseIfCanEmptyTheQueue)
{
    Fifo<int> q;
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    q.eraseIf([](int) { return true; });
    EXPECT_TRUE(q.empty());
    q.push_back(9);
    EXPECT_EQ(drain(q), (std::vector<int>{9}));
}

TEST(Fifo, ClearEmptiesTheQueue)
{
    Fifo<int> q;
    q.push_back(1);
    q.push_back(2);
    q.pop_front();
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(3);
    EXPECT_EQ(drain(q), (std::vector<int>{3}));
}
