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
    AccessResult r = ms.access(0, kB, false);
    // 1 (L1) + 10 (L2) + 20 (hop) + 100 (DRAM) + 20 (hop back) = 151.
    EXPECT_EQ(r.latency, 151u);
    EXPECT_TRUE(r.dramAccess);
    EXPECT_FALSE(r.remoteTransfer);
}

TEST(MemorySystem, SecondReadHitsL1)
{
    MemorySystem ms(4);
    ms.access(0, kB, false);
    AccessResult r = ms.access(0, kB, false);
    EXPECT_EQ(r.latency, 1u);
    EXPECT_TRUE(r.l1Hit);
}

TEST(MemorySystem, ReadFromRemoteModifiedIsCacheToCache)
{
    MemorySystem ms(4);
    ms.access(1, kB, true); // Core 1 takes M.
    AccessResult r = ms.access(0, kB, false);
    // 31 (to dir) + 20 (fwd) + 10 (owner L2) + 20 (data) = 81.
    EXPECT_EQ(r.latency, 81u);
    EXPECT_TRUE(r.remoteTransfer);
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
    AccessResult r = ms.access(0, kB, true);
    EXPECT_TRUE(r.remoteTransfer);
    EXPECT_EQ(r.latency, 81u);
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
    AccessResult r = ms.access(0, kB, true);
    // Requester already shares the data: 31 + 2 hops (inval+ack) = 71.
    EXPECT_EQ(r.latency, 71u);
    EXPECT_FALSE(r.dramAccess);
}

TEST(MemorySystem, WriteHitInOwnModifiedIsOneCycle)
{
    MemorySystem ms(4);
    ms.access(0, kB, true);
    AccessResult r = ms.access(0, kB, true);
    EXPECT_EQ(r.latency, 1u);
    EXPECT_TRUE(r.l1Hit);
}

TEST(MemorySystem, WriteMissToRemoteSharedBlockInvalidatesAndFetches)
{
    MemorySystem ms(4);
    ms.access(1, kB, false);
    AccessResult r = ms.access(0, kB, true);
    // 31 (to dir) + 2 hops (inval+ack) + 100 (DRAM: requester holds
    // no copy) = 171.
    EXPECT_EQ(r.latency, 171u);
    EXPECT_TRUE(r.dramAccess);
    EXPECT_FALSE(r.remoteTransfer);
}

TEST(MemorySystem, ReadMissOfSharedBlockComesFromMemory)
{
    MemorySystem ms(4);
    ms.access(1, kB, false);
    AccessResult r = ms.access(0, kB, false);
    // Clean data from memory: 31 + 100 (DRAM) + 20 (hop back) = 151.
    EXPECT_EQ(r.latency, 151u);
    EXPECT_TRUE(r.dramAccess);
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
    MemorySystem ms(4, MemTimingConfig{}, CacheConfig{}, 2, topo);
    ms.setNet(&wire);
    Addr remote = net::FleetTopology::regionBase(1);
    AccessResult r = ms.access(0, remote, false);
    // 151 (cold read) + one 50-cycle hop each way = 251.
    EXPECT_EQ(r.latency, 251u);
    EXPECT_TRUE(r.remoteCluster);
    EXPECT_TRUE(r.dramAccess);
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
    AccessResult r = ms.access(0, blocks[0], false);
    EXPECT_EQ(r.latency, 11u); // L1 miss, L2 hit.
    EXPECT_TRUE(r.l2Hit);
}

TEST(MemorySystem, L2CapacityEvictionNotifiesListener)
{
    // Shrink the caches so evictions are easy to provoke.
    CacheConfig small;
    small.l1 = {256, 2};  // 2 sets.
    small.l2 = {512, 2};  // 4 sets.
    MemorySystem ms(1, MemTimingConfig{}, small);
    Recorder rec;
    ms.setListener(&rec);
    // Three blocks mapping to the same L2 set (set stride 4 blocks).
    for (int i = 0; i < 3; ++i)
        ms.access(0, kB + i * 4 * 64, false);
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
