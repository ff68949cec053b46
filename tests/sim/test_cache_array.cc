/** @file Set-associative cache array tests. */

#include <gtest/gtest.h>

#include "sim/cache_array.hh"

using namespace mcversi::sim;
using mcversi::Addr;
using mcversi::kLineBytes;

namespace {

/** Addresses mapping to the same set of a 4-set array. */
Addr
sameSetAddr(int k)
{
    return static_cast<Addr>(k) * 4 * kLineBytes;
}

} // namespace

TEST(CacheArray, FindMissOnEmpty)
{
    CacheArray arr(4, 2);
    EXPECT_EQ(arr.find(0x0), nullptr);
    // No entry exists before the first allocate(): every way is free.
    const auto none = [](const CacheEntry &) { return false; };
    EXPECT_EQ(arr.victim(0x0, none), nullptr);
    EXPECT_TRUE(arr.canAllocate(0x0, none));
}

TEST(CacheArray, AllocateAndFind)
{
    CacheArray arr(4, 2);
    CacheEntry *e = arr.allocate(0x40);
    ASSERT_NE(e, nullptr);
    e->state = 3;
    CacheEntry *f = arr.find(0x40);
    ASSERT_EQ(f, e);
    EXPECT_EQ(f->state, 3);
}

TEST(CacheArray, SetConflictsExhaustWays)
{
    CacheArray arr(4, 2);
    EXPECT_NE(arr.allocate(sameSetAddr(0)), nullptr);
    EXPECT_NE(arr.allocate(sameSetAddr(1)), nullptr);
    EXPECT_EQ(arr.allocate(sameSetAddr(2)), nullptr)
        << "set full: allocation must fail";
    // A different set still has room.
    EXPECT_NE(arr.allocate(sameSetAddr(0) + kLineBytes), nullptr);
}

TEST(CacheArray, VictimPicksLruAmongEvictable)
{
    CacheArray arr(4, 2);
    CacheEntry *a = arr.allocate(sameSetAddr(0));
    CacheEntry *b = arr.allocate(sameSetAddr(1));
    a->state = 1;
    b->state = 1;
    arr.touch(*a, 100);
    arr.touch(*b, 50);
    CacheEntry *v = arr.victim(sameSetAddr(2),
                               [](const CacheEntry &) { return true; });
    EXPECT_EQ(v, b) << "older lastUse must be chosen";
}

TEST(CacheArray, VictimRespectsPredicate)
{
    CacheArray arr(4, 2);
    CacheEntry *a = arr.allocate(sameSetAddr(0));
    CacheEntry *b = arr.allocate(sameSetAddr(1));
    a->state = 7; // "transient"
    b->state = 1;
    CacheEntry *v =
        arr.victim(sameSetAddr(2), [](const CacheEntry &e) {
            return e.state == 1;
        });
    EXPECT_EQ(v, b);
    b->state = 7;
    EXPECT_EQ(arr.victim(sameSetAddr(2),
                         [](const CacheEntry &e) {
                             return e.state == 1;
                         }),
              nullptr);
}

TEST(CacheArray, FreeMakesWayAvailable)
{
    CacheArray arr(1, 1);
    CacheEntry *e = arr.allocate(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(arr.allocate(kLineBytes), nullptr);
    arr.free(*e);
    EXPECT_EQ(arr.find(0x0), nullptr);
    EXPECT_NE(arr.allocate(kLineBytes), nullptr);
}

TEST(CacheArray, ResetDropsEverything)
{
    CacheArray arr(4, 2);
    arr.allocate(0x0);
    arr.allocate(0x40);
    arr.reset();
    EXPECT_EQ(arr.find(0x0), nullptr);
    EXPECT_EQ(arr.find(0x40), nullptr);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray arr(4, 2);
    arr.allocate(0x0);
    arr.allocate(0x40);
    arr.allocate(0x80);
    int count = 0;
    arr.forEachValid([&](CacheEntry &) { ++count; });
    EXPECT_EQ(count, 3);
}

TEST(CacheArray, LineDataWordAccess)
{
    LineData data;
    data.setWord(0x108, 77); // word 1 of its line
    EXPECT_EQ(data.word(0x108), 77u);
    EXPECT_EQ(data.word(0x100), 0u);
    EXPECT_EQ(data.words[1], 77u);
}

TEST(CacheArray, ClearMetaKeepsTag)
{
    CacheEntry e;
    e.line = 0x40;
    e.sharers = 5;
    e.owner = 2;
    e.dirty = true;
    e.clearMeta();
    EXPECT_EQ(e.line, 0x40u);
    EXPECT_EQ(e.sharers, 0u);
    EXPECT_EQ(e.owner, mcversi::kInitPid);
    EXPECT_FALSE(e.dirty);
}
