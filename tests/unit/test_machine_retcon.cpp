/**
 * @file
 * Behavioural tests for the RETCON mechanism: symbolic tracking,
 * commit-time repair (Figure 7), constraint checking, fallbacks, and
 * the lazy-vb variant.
 */

#include <gtest/gtest.h>

#include "htm/machine.hpp"
#include "sim/sharded_queue.hpp"

using namespace retcon;
using namespace retcon::htm;

namespace {

constexpr Addr kA = 0x10000; // Tracked block.
constexpr Addr kB = 0x20000;

struct Rig {
    ShardedEventQueue eq;
    mem::MemorySystem ms{4};
    TMMachine tm;
    int remoteAborts = 0;

    explicit Rig(TMMode mode = TMMode::Retcon) : tm(eq, ms, cfg(mode))
    {
        tm.setRemoteAbortHandler(
            [this](CoreId, AbortCause) { ++remoteAborts; });
        // Pre-train the predictor for block A.
        tm.predictor().observeConflict(blockAddr(kA));
    }

    static TMConfig
    cfg(TMMode mode)
    {
        TMConfig c;
        c.mode = mode;
        return c;
    }

    void
    begin(CoreId c)
    {
        ASSERT_EQ(tm.txBegin(c, false).status, OpStatus::Ok);
    }

    /** Run the commit to completion. @return true if committed. */
    bool
    commit(CoreId c)
    {
        for (int i = 0; i < 200; ++i) {
            CommitStepOutcome out = tm.commitStep(c, false);
            if (out.status == OpStatus::AbortSelf)
                return false;
            EXPECT_NE(out.status, OpStatus::Nack);
            if (out.done)
                return true;
        }
        ADD_FAILURE() << "commit did not converge";
        return false;
    }
};

} // namespace

TEST(Retcon, SymbolicLoadReturnsTagAndTracksBlock)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome out = rig.tm.txLoad(0, kA);
    EXPECT_EQ(out.value, 5u);
    ASSERT_TRUE(out.sym.has_value());
    EXPECT_EQ(out.sym->root, kA);
    EXPECT_EQ(out.sym->delta, 0);
    EXPECT_EQ(rig.tm.coreState(0).ivb.size(), 1u);
    // Symbolic loads do not set the block's speculatively-read bit.
    EXPECT_TRUE(rig.tm.coreState(0).touched.empty());
}

TEST(Retcon, RepairAppliesRemoteUpdateAtCommit)
{
    // The Figure 2(a) scenario at machine level: core 0 computes
    // counter+1 from value 5; core 1 commits 5->7 meanwhile; core 0's
    // commit must repair its store to 8 without aborting.
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rtc::SymTag plus1 = *ld.sym;
    plus1.delta = 1;
    ASSERT_EQ(rig.tm.txStore(0, kA, ld.value + 1, plus1).status,
              OpStatus::Ok);

    // Remote transaction commits two increments.
    rig.begin(1);
    MemOpOutcome ld1 = rig.tm.txLoad(1, kA);
    rtc::SymTag plus2 = *ld1.sym;
    plus2.delta = 2;
    ASSERT_EQ(rig.tm.txStore(1, kA, ld1.value + 2, plus2).status,
              OpStatus::Ok);
    ASSERT_TRUE(rig.commit(1));
    EXPECT_EQ(rig.ms.memory().readWord(kA), 7u);

    // Core 0 lost the block but repairs: final value 7 + 1 = 8, in
    // memory and in the returned register it handed over.
    rig.tm.setReturnSym(0, plus1);
    ASSERT_TRUE(rig.commit(0));
    EXPECT_EQ(rig.ms.memory().readWord(kA), 8u);
    EXPECT_EQ(rig.remoteAborts, 0);
    EXPECT_EQ(rig.tm.returnValue(0), 8u);
}

TEST(Retcon, SatisfiedIntervalConstraintCommits)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    // Branch: value < 100 taken -> constraint [A] < 100.
    rig.tm.recordBranchConstraint(0, *ld.sym, rtc::CmpOp::LT, 100,
                                  true);
    // Remote write within the interval.
    rig.tm.plainStore(1, kA, 50);
    EXPECT_TRUE(rig.commit(0));
}

TEST(Retcon, ViolatedIntervalConstraintAborts)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rig.tm.recordBranchConstraint(0, *ld.sym, rtc::CmpOp::LT, 100,
                                  true);
    rig.tm.plainStore(1, kA, 200); // Outside [..99].
    EXPECT_FALSE(rig.commit(0));
    EXPECT_EQ(rig.tm.stats()
                  .abortsByCause[static_cast<int>(
                      AbortCause::ConstraintViolation)],
              1u);
    // Violation trains the predictor down.
    EXPECT_FALSE(rig.tm.predictor().shouldTrack(blockAddr(kA)));
}

TEST(Retcon, EqualityPinAbortsOnAnyChange)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rig.tm.pinEquality(0, ld.sym->root);
    rig.tm.plainStore(1, kA, 6);
    EXPECT_FALSE(rig.commit(0));
}

TEST(Retcon, EqualityPinSurvivesUnchangedValue)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rig.tm.pinEquality(0, ld.sym->root);
    // Temporally-silent remote update: 5 -> 9 -> 5.
    rig.tm.plainStore(1, kA, 9);
    rig.tm.plainStore(1, kA, 5);
    EXPECT_TRUE(rig.commit(0));
}

TEST(Retcon, StoreToLoadBypassCopiesSymbolicValue)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rtc::SymTag plus3 = *ld.sym;
    plus3.delta = 3;
    rig.tm.txStore(0, kA, 8, plus3);
    MemOpOutcome ld2 = rig.tm.txLoad(0, kA);
    EXPECT_EQ(ld2.value, 8u);
    ASSERT_TRUE(ld2.sym.has_value());
    EXPECT_EQ(ld2.sym->delta, 3);
    EXPECT_EQ(ld2.latency, 1u); // SSB hit, no cache access.
}

TEST(Retcon, SymbolicStoreToUntrackedAddressDrainsAtCommit)
{
    // Figure 8: a symbolic value stored to B (B not in the IVB).
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rtc::SymTag plus1 = *ld.sym;
    plus1.delta = 1;
    rig.tm.txStore(0, kB, 6, plus1);
    rig.tm.plainStore(1, kA, 10); // Steal + change A.
    ASSERT_TRUE(rig.commit(0));
    EXPECT_EQ(rig.ms.memory().readWord(kB), 11u); // Repaired: 10+1.
}

TEST(Retcon, NonSymbolicStoreInvalidatesSsbEntry)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    rtc::SymTag plus1 = *ld.sym;
    plus1.delta = 1;
    rig.tm.txStore(0, kA, 6, plus1);
    EXPECT_EQ(rig.tm.coreState(0).ssb.size(), 1u);
    // Concrete overwrite (Figure 8 time 10).
    rig.tm.txStore(0, kA, 42, std::nullopt);
    EXPECT_EQ(rig.tm.coreState(0).ssb.size(), 0u);
    ASSERT_TRUE(rig.commit(0));
    EXPECT_EQ(rig.ms.memory().readWord(kA), 42u);
}

TEST(Retcon, OwnEagerStoreVisibleToOwnLoads)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    rig.tm.txLoad(0, kA);
    rig.tm.txStore(0, kA, 42, std::nullopt);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    EXPECT_EQ(ld.value, 42u);
    EXPECT_FALSE(ld.sym.has_value()); // Frozen word: no longer input.
}

TEST(Retcon, SubWordLoadFallsBackToEqualityBit)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 0x1234);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA, 4);
    EXPECT_EQ(ld.value, 0x1234u);
    EXPECT_FALSE(ld.sym.has_value());
    rtc::IvbEntry *e = rig.tm.coreState(0).ivb.find(blockAddr(kA));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->eqMask & 1);
}

TEST(Retcon, IvbCapacityFallsBackToEagerPath)
{
    Rig rig;
    rig.begin(0);
    // Train and touch 17 blocks; the 17th load must go eager.
    for (int i = 0; i < 17; ++i) {
        Addr block = 0x100000 + Addr(i) * kBlockBytes;
        rig.tm.predictor().observeConflict(block);
        rig.tm.txLoad(0, block);
    }
    EXPECT_EQ(rig.tm.coreState(0).ivb.size(), 16u);
    EXPECT_EQ(rig.tm.coreState(0).touched.size(), 1u);
    EXPECT_TRUE(rig.tm.reads(0, 0x100000 + 16 * kBlockBytes));
}

TEST(Retcon, SsbCapacityFallsBackToEagerStoreWithPin)
{
    TMConfig cfg;
    cfg.mode = TMMode::Retcon;
    ShardedEventQueue eq;
    mem::MemorySystem ms(2);
    TMMachine tm(eq, ms, cfg);
    tm.predictor().observeConflict(blockAddr(kA));
    ASSERT_EQ(tm.txBegin(0, false).status, OpStatus::Ok);
    MemOpOutcome ld = tm.txLoad(0, kA);
    rtc::SymTag t = *ld.sym;
    t.delta = 1;
    // Fill the 32-entry SSB (one entry per word), then a 33rd
    // symbolic store must fall back to an eager store and pin the root.
    for (Addr w = 0; w < kSsbEntries; ++w)
        tm.txStore(0, kB + w * kWordBytes, 1, t);
    Addr spill = kB + kSsbEntries * kWordBytes;
    tm.txStore(0, spill, 1, t);
    EXPECT_EQ(tm.coreState(0).ssb.size(), kSsbEntries);
    EXPECT_TRUE(tm.writes(0, blockAddr(spill)));
    rtc::IvbEntry *e = tm.coreState(0).ivb.find(blockAddr(kA));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->eqMask & 1);
}

TEST(Retcon, BlocksLostStatCountsSteals)
{
    Rig rig;
    rig.begin(0);
    rig.tm.txLoad(0, kA);
    rig.tm.plainStore(1, kA, 1);
    EXPECT_TRUE(rig.commit(0));
    EXPECT_DOUBLE_EQ(rig.tm.stats().blocksLost.max(), 1.0);
}

TEST(LazyVb, ValueChangeAborts)
{
    Rig rig(TMMode::LazyVB);
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    MemOpOutcome ld = rig.tm.txLoad(0, kA);
    EXPECT_EQ(ld.value, 5u);
    EXPECT_FALSE(ld.sym.has_value()); // lazy-vb never tracks symbolically.
    rig.tm.plainStore(1, kA, 6);
    EXPECT_FALSE(rig.commit(0));
}

TEST(LazyVb, SilentAndFalseSharingCommit)
{
    Rig rig(TMMode::LazyVB);
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0);
    rig.tm.txLoad(0, kA);
    // False sharing: remote writes a *different word* of the block.
    rig.tm.plainStore(1, kA + 8, 99);
    // Silent sharing: remote rewrites the same value.
    rig.tm.plainStore(1, kA, 5);
    EXPECT_TRUE(rig.commit(0));
    EXPECT_EQ(rig.remoteAborts, 0);
}

TEST(Retcon, UntrackedBlocksStillConflictEagerly)
{
    Rig rig; // Only kA is trained; kB is untracked.
    rig.begin(0);
    rig.begin(1);
    ASSERT_EQ(rig.tm.txLoad(0, kB).status, OpStatus::Ok);
    EXPECT_EQ(rig.tm.txStore(1, kB, 1, std::nullopt).status,
              OpStatus::Nack);
}

TEST(Retcon, CommitPriorityProtectsCommitterFromOlderActive)
{
    Rig rig;
    rig.ms.memory().writeWord(kA, 5);
    rig.begin(0); // Older.
    rig.begin(1); // Younger; will commit first.
    MemOpOutcome ld = rig.tm.txLoad(1, kA);
    rtc::SymTag t = *ld.sym;
    t.delta = 1;
    rig.tm.txStore(1, kA, 6, t);
    // Drive core 1 into its commit (phase transitions), then have the
    // older core 0 access the block core 1 holds mid-commit.
    CommitStepOutcome s = rig.tm.commitStep(1, false);
    ASSERT_EQ(s.status, OpStatus::Ok);
    while (!rig.tm.writes(1, blockAddr(kA)) && !s.done)
        s = rig.tm.commitStep(1, false);
    MemOpOutcome out = rig.tm.txStore(0, kA, 9, std::nullopt);
    EXPECT_EQ(out.status, OpStatus::Nack); // Waits, does not abort.
    EXPECT_EQ(rig.remoteAborts, 0);
}
