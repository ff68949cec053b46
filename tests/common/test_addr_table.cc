/**
 * @file
 * AddrTable tests with line-address keys, the simulator's use. The
 * suite keeps the name LineTable it had while the table lived in sim/.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/addr_table.hh"
#include "sim/fifo.hh"

using namespace mcversi::sim;
using mcversi::Addr;
using mcversi::AddrTable;
using mcversi::kLineBytes;

namespace {

/** Line address @p i; consecutive lines share their low zero bits. */
Addr
line(std::uint64_t i)
{
    return 0x40000 + i * kLineBytes;
}

} // namespace

TEST(LineTable, EmptyTableAllocatesNothing)
{
    AddrTable<int> t;
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_EQ(t.find(line(0)), nullptr);
    EXPECT_FALSE(t.contains(line(0)));
    EXPECT_FALSE(t.erase(line(0)));
    t.clear();
    EXPECT_EQ(t.capacity(), 0u);
}

TEST(LineTable, InsertFindErase)
{
    AddrTable<int> t;
    t[line(1)] = 10;
    t[line(2)] = 20;
    EXPECT_EQ(t.size(), 2u);
    ASSERT_NE(t.find(line(1)), nullptr);
    EXPECT_EQ(*t.find(line(1)), 10);
    EXPECT_EQ(*t.find(line(2)), 20);
    EXPECT_EQ(t.find(line(3)), nullptr);
    ++t[line(1)]; // operator[] on a present key finds it
    EXPECT_EQ(*t.find(line(1)), 11);
    EXPECT_EQ(t.size(), 2u);

    EXPECT_TRUE(t.erase(line(1)));
    EXPECT_FALSE(t.erase(line(1)));
    EXPECT_EQ(t.find(line(1)), nullptr);
    EXPECT_EQ(*t.find(line(2)), 20);
    EXPECT_EQ(t.size(), 1u);
}

TEST(LineTable, ErasedSlotIsReusedWithAClearedValue)
{
    AddrTable<int> t;
    t[line(7)] = 99;
    const std::size_t cap = t.capacity();
    EXPECT_TRUE(t.erase(line(7)));
    // The same key lands in the same slot; its value is re-initialised.
    EXPECT_EQ(t[line(7)], 0);
    EXPECT_EQ(t.capacity(), cap);

    // A value with clear() is cleared, not replaced: it keeps capacity.
    AddrTable<Fifo<int>> q;
    for (int i = 0; i < 100; ++i)
        q[line(3)].push_back(i);
    EXPECT_TRUE(q.erase(line(3)));
    Fifo<int> &again = q[line(3)];
    EXPECT_TRUE(again.empty());
}

TEST(LineTable, GrowthKeepsEveryEntry)
{
    AddrTable<std::uint64_t> t;
    for (std::uint64_t i = 0; i < 1000; ++i)
        t[line(i)] = i * 3;
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_GE(t.capacity(), 1000u);
    EXPECT_EQ(t.capacity() & (t.capacity() - 1), 0u); // power of two
    for (std::uint64_t i = 0; i < 1000; ++i) {
        ASSERT_NE(t.find(line(i)), nullptr) << i;
        EXPECT_EQ(*t.find(line(i)), i * 3);
    }
}

TEST(LineTable, EraseKeepsProbeRunsIntact)
{
    // Random inserts and erases against std::map as the model: the
    // backward shift after each erase must keep every survivor
    // reachable.
    AddrTable<std::uint64_t> t;
    std::map<Addr, std::uint64_t> model;
    std::uint64_t x = 12345;
    for (int step = 0; step < 20000; ++step) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr key = line((x >> 33) % 200);
        if ((x >> 20) % 3 == 0) {
            EXPECT_EQ(t.erase(key), model.erase(key) == 1);
        } else {
            t[key] = x;
            model[key] = x;
        }
        ASSERT_EQ(t.size(), model.size());
    }
    for (const auto &[key, value] : model) {
        ASSERT_NE(t.find(key), nullptr);
        EXPECT_EQ(*t.find(key), value);
    }
}

TEST(LineTable, ClearKeepsCapacity)
{
    AddrTable<int> t;
    for (std::uint64_t i = 0; i < 100; ++i)
        t[line(i)] = 1;
    const std::size_t cap = t.capacity();
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), cap);
    EXPECT_EQ(t.find(line(5)), nullptr);
    for (std::uint64_t i = 0; i < 100; ++i)
        t[line(i)] = 2;
    EXPECT_EQ(t.capacity(), cap);
}

TEST(LineTable, ForEachVisitsEveryEntryOnce)
{
    AddrTable<std::uint64_t> t;
    for (std::uint64_t i = 0; i < 50; ++i)
        t[line(i)] = i;
    t.erase(line(10));
    std::map<Addr, std::uint64_t> seen;
    t.forEach([&](Addr key, std::uint64_t &value) {
        EXPECT_TRUE(seen.emplace(key, value).second);
        ++value;
    });
    EXPECT_EQ(seen.size(), 49u);
    EXPECT_EQ(seen.count(line(10)), 0u);
    for (const auto &[key, value] : seen)
        EXPECT_EQ(*t.find(key), value + 1);
}
