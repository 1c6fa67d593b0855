/**
 * @file
 * Tests for the coherent memory hierarchy: Table 1 latencies, directory
 * transitions, invalidation/eviction notifications.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/memory_system.hpp"

using namespace retcon;
using namespace retcon::mem;

namespace {

struct Recorder : CoherenceListener {
    struct Take {
        CoreId victim;
        Addr block;
        CoreId by;
        bool byWrite;
    };
    std::vector<Take> takes;
    std::vector<std::pair<CoreId, Addr>> evicts;

    void
    onRemoteTake(CoreId victim, Addr block, CoreId by,
                 bool by_write) override
    {
        takes.push_back({victim, block, by, by_write});
    }

    void
    onCapacityEvict(CoreId victim, Addr block) override
    {
        evicts.emplace_back(victim, block);
    }
};

constexpr Addr kB = 0x10000; // A block-aligned test address.

} // namespace

TEST(MemorySystem, ColdReadGoesToDram)
{
    MemorySystem ms(4);
    // 1 (L1) + 10 (L2) + 20 (hop) + 100 (DRAM) + 20 (hop back) = 151.
    EXPECT_EQ(ms.access(0, kB, false), 151u);
    EXPECT_EQ(ms.stats().get("dram_accesses"), 1.0);
    EXPECT_EQ(ms.stats().get("cache_to_cache"), 0.0);
}

TEST(MemorySystem, SecondReadHitsL1)
{
    MemorySystem ms(4);
    ms.access(0, kB, false);
    EXPECT_EQ(ms.access(0, kB, false), 1u);
    EXPECT_EQ(ms.stats().get("l1_hits"), 1.0);
}

TEST(MemorySystem, ReadFromRemoteModifiedIsCacheToCache)
{
    MemorySystem ms(4);
    ms.access(1, kB, true); // Core 1 takes M.
    // 31 (to dir) + 20 (fwd) + 10 (owner L2) + 20 (data) = 81.
    EXPECT_EQ(ms.access(0, kB, false), 81u);
    EXPECT_EQ(ms.stats().get("cache_to_cache"), 1.0);
    // Both are sharers afterwards.
    EXPECT_TRUE(ms.hasReadPerm(0, kB));
    EXPECT_TRUE(ms.hasReadPerm(1, kB));
    EXPECT_FALSE(ms.hasWritePerm(1, kB));
}

TEST(MemorySystem, WriteInvalidatesSharers)
{
    MemorySystem ms(4);
    Recorder rec;
    ms.access(0, kB, false);
    ms.access(1, kB, false);
    ms.setListener(&rec);
    ms.access(2, kB, true);
    EXPECT_TRUE(ms.hasWritePerm(2, kB));
    EXPECT_FALSE(ms.hasReadPerm(0, kB));
    EXPECT_FALSE(ms.hasReadPerm(1, kB));
    ASSERT_EQ(rec.takes.size(), 2u);
    for (const auto &t : rec.takes) {
        EXPECT_EQ(t.by, 2u);
        EXPECT_TRUE(t.byWrite);
        EXPECT_EQ(t.block, kB);
    }
}

TEST(MemorySystem, WriteStealsFromRemoteOwner)
{
    MemorySystem ms(4);
    Recorder rec;
    ms.access(1, kB, true);
    ms.setListener(&rec);
    EXPECT_EQ(ms.access(0, kB, true), 81u);
    EXPECT_EQ(ms.stats().get("cache_to_cache"), 1.0);
    EXPECT_TRUE(ms.hasWritePerm(0, kB));
    EXPECT_FALSE(ms.hasReadPerm(1, kB));
    ASSERT_EQ(rec.takes.size(), 1u);
    EXPECT_EQ(rec.takes[0].victim, 1u);
}

TEST(MemorySystem, RemoteReadDowngradesOwnerWithNonWriteTake)
{
    MemorySystem ms(4);
    Recorder rec;
    ms.access(1, kB, true);
    ms.setListener(&rec);
    ms.access(0, kB, false);
    ASSERT_EQ(rec.takes.size(), 1u);
    EXPECT_EQ(rec.takes[0].victim, 1u);
    EXPECT_FALSE(rec.takes[0].byWrite);
    EXPECT_TRUE(ms.hasReadPerm(1, kB)); // Still a sharer.
}

TEST(MemorySystem, UpgradeFromSharedCostsInvalidationRound)
{
    MemorySystem ms(4);
    ms.access(0, kB, false);
    ms.access(1, kB, false);
    double dram = ms.stats().get("dram_accesses");
    // Requester already shares the data: 31 + 2 hops (inval+ack) = 71.
    EXPECT_EQ(ms.access(0, kB, true), 71u);
    EXPECT_EQ(ms.stats().get("dram_accesses"), dram);
}

TEST(MemorySystem, WriteHitInOwnModifiedIsOneCycle)
{
    MemorySystem ms(4);
    ms.access(0, kB, true);
    EXPECT_EQ(ms.access(0, kB, true), 1u);
    EXPECT_EQ(ms.stats().get("l1_hits"), 1.0);
}

TEST(MemorySystem, WriteMissToRemoteSharedBlockInvalidatesAndFetches)
{
    MemorySystem ms(4);
    ms.access(1, kB, false);
    // 31 (to dir) + 2 hops (inval+ack) + 100 (DRAM: requester holds
    // no copy) = 171.
    EXPECT_EQ(ms.access(0, kB, true), 171u);
    EXPECT_EQ(ms.stats().get("dram_accesses"), 2.0);
    EXPECT_EQ(ms.stats().get("cache_to_cache"), 0.0);
}

TEST(MemorySystem, ReadMissOfSharedBlockComesFromMemory)
{
    MemorySystem ms(4);
    ms.access(1, kB, false);
    // Clean data from memory: 31 + 100 (DRAM) + 20 (hop back) = 151.
    EXPECT_EQ(ms.access(0, kB, false), 151u);
    EXPECT_EQ(ms.stats().get("dram_accesses"), 2.0);
    EXPECT_TRUE(ms.hasReadPerm(0, kB));
    EXPECT_TRUE(ms.hasReadPerm(1, kB));
}

TEST(MemorySystem, ColdReadHomedOnRemoteClusterPaysTheWire)
{
    // Two clusters of two cores and one bank each, crossbar wire.
    net::FleetTopology topo;
    topo.clusters = 2;
    topo.threadsPerCluster = 2;
    topo.banksPerCluster = 1;
    net::Interconnect wire(2, net::NetConfig{});
    MemorySystem ms(4, MemTimingConfig{}, 2, topo);
    ms.setNet(&wire);
    Addr remote = net::FleetTopology::regionBase(1);
    // 151 (cold read) + one 50-cycle hop each way = 251.
    EXPECT_EQ(ms.access(0, remote, false), 251u);
    EXPECT_EQ(ms.stats().get("xc_accesses"), 1.0);
    EXPECT_EQ(ms.stats().get("dram_accesses"), 1.0);
}

TEST(MemorySystem, L1EvictionStillHitsL2)
{
    // L1 is 64KB 4-way => 256 sets; 5 blocks mapping to the same set
    // overflow the L1 but stay in the 1MB L2.
    MemorySystem ms(1);
    std::vector<Addr> blocks;
    for (int i = 0; i < 5; ++i)
        blocks.push_back(kB + i * 64 * 1024); // Same L1 set.
    for (Addr b : blocks)
        ms.access(0, b, false);
    EXPECT_EQ(ms.access(0, blocks[0], false), 11u); // L1 miss, L2 hit.
    EXPECT_EQ(ms.stats().get("l2_hits"), 1.0);
}

TEST(MemorySystem, L2CapacityEvictionNotifiesListener)
{
    // The L2 is 1MB 4-way => 4096 sets, so blocks 256KB apart share
    // a set: the fifth evicts the first.
    MemorySystem ms(1);
    Recorder rec;
    ms.setListener(&rec);
    for (int i = 0; i < 5; ++i)
        ms.access(0, kB + i * 256 * 1024, false);
    EXPECT_FALSE(rec.evicts.empty());
    EXPECT_EQ(rec.evicts[0].second, kB);
    // Evicted block lost its directory permissions.
    EXPECT_FALSE(ms.hasReadPerm(0, kB));
}

TEST(MemorySystem, IndependentBlocksDoNotInterfere)
{
    MemorySystem ms(2);
    ms.access(0, kB, true);
    ms.access(1, kB + kBlockBytes, true);
    EXPECT_TRUE(ms.hasWritePerm(0, kB));
    EXPECT_TRUE(ms.hasWritePerm(1, kB + kBlockBytes));
}

TEST(MemorySystem, StatsCountHitsAndMisses)
{
    MemorySystem ms(1);
    ms.access(0, kB, false);
    ms.access(0, kB, false);
    ms.access(0, kB, false);
    EXPECT_EQ(ms.stats().get("read_misses"), 1.0);
    EXPECT_EQ(ms.stats().get("l1_hits"), 2.0);
}
