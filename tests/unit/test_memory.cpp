/** @file Unit tests for sparse memory, cache tags, and the directory. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/sparse_memory.hpp"

using namespace retcon;
using namespace retcon::mem;

// ---------------------------------------------------------------------
// SparseMemory
// ---------------------------------------------------------------------

TEST(SparseMemory, UnwrittenWordsReadZero)
{
    SparseMemory m;
    EXPECT_EQ(m.readWord(0x1000), 0u);
    EXPECT_EQ(m.read(0x1234, 4), 0u);
}

TEST(SparseMemory, WordRoundTrip)
{
    SparseMemory m;
    m.writeWord(0x40, 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.readWord(0x40), 0xdeadbeefcafef00dull);
    // Unaligned address resolves to the containing word.
    EXPECT_EQ(m.readWord(0x44), 0xdeadbeefcafef00dull);
}

TEST(SparseMemory, SubWordExtraction)
{
    SparseMemory m;
    m.writeWord(0x40, 0x8877665544332211ull);
    EXPECT_EQ(m.read(0x40, 1), 0x11u);
    EXPECT_EQ(m.read(0x41, 1), 0x22u);
    EXPECT_EQ(m.read(0x40, 2), 0x2211u);
    EXPECT_EQ(m.read(0x44, 4), 0x88776655u);
}

TEST(SparseMemory, SubWordWritePreservesNeighbours)
{
    SparseMemory m;
    m.writeWord(0x40, 0xffffffffffffffffull);
    m.write(0x42, 0xab, 1);
    EXPECT_EQ(m.readWord(0x40), 0xffffffffffabffffull);
}

TEST(SparseMemory, FootprintCountsDistinctWords)
{
    SparseMemory m;
    m.writeWord(0x40, 1);
    m.writeWord(0x48, 2);
    m.writeWord(0x40, 3);
    EXPECT_EQ(m.footprintWords(), 2u);
}

// ---------------------------------------------------------------------
// SetAssocCache
// ---------------------------------------------------------------------

TEST(SetAssocCache, GeometryMatchesTable1L1)
{
    // 64KB, 4-way, 64B blocks -> 256 sets.
    SetAssocCache c({64 * 1024, 4});
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.ways(), 4u);
}

TEST(SetAssocCache, InsertThenContains)
{
    SetAssocCache c({4 * 1024, 4});
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.insert(0x1000).has_value());
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(SetAssocCache, EvictsLruWhenSetFull)
{
    // 1 set, 2 ways: third insert evicts the least recently used.
    SetAssocCache c({128, 2});
    ASSERT_EQ(c.numSets(), 1u);
    c.insert(0x000);
    c.insert(0x040);
    c.touch(0x000); // 0x040 is now LRU.
    auto evicted = c.insert(0x080);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0x040u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x040));
}

TEST(SetAssocCache, ReinsertRefreshesRecency)
{
    SetAssocCache c({128, 2});
    c.insert(0x000);
    c.insert(0x040);
    c.insert(0x000); // Refresh, no eviction.
    auto evicted = c.insert(0x080);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0x040u);
}

TEST(SetAssocCache, InvalidateFreesWay)
{
    SetAssocCache c({128, 2});
    c.insert(0x000);
    EXPECT_TRUE(c.invalidate(0x000));
    EXPECT_FALSE(c.invalidate(0x000));
    EXPECT_EQ(c.occupancy(), 0u);
    c.insert(0x040);
    EXPECT_FALSE(c.insert(0x080).has_value()); // Room for both.
}

TEST(SetAssocCache, FourWayVictimsFollowTrueLru)
{
    // 1 set, 4 ways. Touches, a mid-set invalidate, re-inserts and the
    // refill of the freed way all move recency; every eviction must
    // take the least recently used block.
    SetAssocCache c({256, 4});
    ASSERT_EQ(c.numSets(), 1u);
    const Addr a = 0x000, b = 0x040, cc = 0x080, d = 0x0c0, e = 0x100,
               f = 0x140;
    std::vector<Addr> victims;
    auto put = [&](Addr block) {
        if (auto v = c.insert(block))
            victims.push_back(*v);
    };
    for (Addr block : {a, b, cc, d})
        put(block); // MRU first: d c b a
    EXPECT_EQ(c.occupancy(), 4u);
    c.touch(a); // a d c b
    put(e); // evicts b: e a d c
    EXPECT_TRUE(c.invalidate(d)); // e a c -
    EXPECT_FALSE(c.invalidate(d));
    EXPECT_EQ(c.occupancy(), 3u);
    put(f); // fills the free way: f e a c
    EXPECT_EQ(c.occupancy(), 4u);
    put(a); // resident, refreshed: a f e c
    put(b); // evicts c: b a f e
    put(d); // evicts e: d b a f
    c.touch(f); // f d b a
    put(cc); // evicts a: cc f d b
    EXPECT_EQ(victims, (std::vector<Addr>{b, cc, e, a}));
    EXPECT_EQ(c.occupancy(), 4u);
    for (Addr block : {cc, f, d, b})
        EXPECT_TRUE(c.contains(block)) << block;
    for (Addr block : {a, e})
        EXPECT_FALSE(c.contains(block)) << block;
}

TEST(SetAssocCache, DifferentSetsDoNotInterfere)
{
    SetAssocCache c({256, 2}); // 2 sets.
    c.insert(0x000);
    c.insert(0x080); // Different set (bit 6 toggles set 1).
    c.insert(0x040);
    c.insert(0x0c0);
    EXPECT_EQ(c.occupancy(), 4u);
}

TEST(SetAssocCache, SetsDoNotShareWays)
{
    // 4 sets of 2 ways: blocks sets * 64B apart share a set. Overfill
    // the first and last sets; sets 1 and 2 keep their lines.
    SetAssocCache c({512, 2});
    ASSERT_EQ(c.numSets(), 4u);
    constexpr Addr kStride = 4 * kBlockBytes;
    for (Addr set = 1; set <= 2; ++set)
        for (Addr i = 0; i < 2; ++i)
            c.insert(set * kBlockBytes + i * kStride);
    for (Addr set : {Addr(0), Addr(3)})
        for (Addr i = 0; i < 5; ++i)
            c.insert(set * kBlockBytes + i * kStride);
    EXPECT_EQ(c.occupancy(), 8u);
    for (Addr set = 1; set <= 2; ++set)
        for (Addr i = 0; i < 2; ++i)
            EXPECT_TRUE(c.contains(set * kBlockBytes + i * kStride))
                << "set " << set << " way " << i;
    // The overfilled sets hold only their two newest blocks.
    for (Addr set : {Addr(0), Addr(3)}) {
        EXPECT_FALSE(c.contains(set * kBlockBytes + 2 * kStride));
        EXPECT_TRUE(c.contains(set * kBlockBytes + 3 * kStride));
        EXPECT_TRUE(c.contains(set * kBlockBytes + 4 * kStride));
    }
}

TEST(SetAssocCache, ClearEmptiesEverything)
{
    SetAssocCache c({4 * 1024, 4});
    for (Addr b = 0; b < 16; ++b)
        c.insert(b * kBlockBytes);
    c.clear();
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_FALSE(c.contains(0));
}

// ---------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------

TEST(Directory, DefaultStateInvalid)
{
    Directory d;
    EXPECT_EQ(d.lookup(0x1000).state, DirState::Invalid);
    EXPECT_FALSE(d.hasReadPerm(0x1000, 0));
    EXPECT_FALSE(d.hasWritePerm(0x1000, 0));
}

TEST(Directory, SharedGrantsReadToSharersOnly)
{
    Directory d;
    DirEntry &e = d.entry(0x1000);
    e.state = DirState::Shared;
    e.sharers = 0b101; // Cores 0 and 2.
    EXPECT_TRUE(d.hasReadPerm(0x1000, 0));
    EXPECT_FALSE(d.hasReadPerm(0x1000, 1));
    EXPECT_TRUE(d.hasReadPerm(0x1000, 2));
    EXPECT_FALSE(d.hasWritePerm(0x1000, 0));
}

TEST(Directory, ModifiedGrantsBothToOwner)
{
    Directory d;
    DirEntry &e = d.entry(0x1000);
    e.state = DirState::Modified;
    e.owner = 3;
    EXPECT_TRUE(d.hasReadPerm(0x1000, 3));
    EXPECT_TRUE(d.hasWritePerm(0x1000, 3));
    EXPECT_FALSE(d.hasReadPerm(0x1000, 1));
}

TEST(Directory, DropCoreRemovesSharer)
{
    Directory d;
    DirEntry &e = d.entry(0x1000);
    e.state = DirState::Shared;
    e.sharers = 0b11;
    d.dropCore(0x1000, 0);
    EXPECT_FALSE(d.hasReadPerm(0x1000, 0));
    EXPECT_TRUE(d.hasReadPerm(0x1000, 1));
    d.dropCore(0x1000, 1);
    EXPECT_EQ(d.lookup(0x1000).state, DirState::Invalid);
}

TEST(Directory, DropOwnerInvalidates)
{
    Directory d;
    DirEntry &e = d.entry(0x1000);
    e.state = DirState::Modified;
    e.owner = 2;
    d.dropCore(0x1000, 2);
    EXPECT_EQ(d.lookup(0x1000).state, DirState::Invalid);
}
