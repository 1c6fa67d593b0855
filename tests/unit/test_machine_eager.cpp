/**
 * @file
 * Behavioural tests for the baseline eager HTM (§2): conflict
 * detection matrix, contention management policies, version
 * management, OneTM overflow.
 */

#include <gtest/gtest.h>

#include "htm/machine.hpp"
#include "sim/sharded_queue.hpp"

using namespace retcon;
using namespace retcon::htm;

namespace {

constexpr Addr kA = 0x10000;
constexpr Addr kB = 0x20000;
/// Address distance between blocks that share an L2 set.
constexpr Addr kL2SetStride = mem::kL2Geometry.numSets() * kBlockBytes;

struct EagerRig {
    ShardedEventQueue eq;
    mem::MemorySystem ms{4};
    TMMachine tm;
    std::vector<std::pair<CoreId, AbortCause>> remoteAborts;

    explicit EagerRig(TMConfig cfg = makeCfg())
        : tm(eq, ms, cfg)
    {
        tm.setRemoteAbortHandler([this](CoreId c, AbortCause a) {
            remoteAborts.emplace_back(c, a);
        });
    }

    static TMConfig
    makeCfg()
    {
        TMConfig cfg;
        cfg.mode = TMMode::Eager;
        return cfg;
    }

    void
    begin(CoreId c)
    {
        ASSERT_EQ(tm.txBegin(c, false).status, OpStatus::Ok);
    }

    /** Drive commitStep until done; expects success. */
    void
    commit(CoreId c)
    {
        for (int i = 0; i < 100; ++i) {
            CommitStepOutcome out = tm.commitStep(c, false);
            ASSERT_EQ(out.status, OpStatus::Ok);
            if (out.done)
                return;
        }
        FAIL() << "commit did not converge";
    }
};

} // namespace

TEST(EagerHtm, ReadReadDoesNotConflict)
{
    EagerRig rig;
    rig.begin(0);
    rig.begin(1);
    EXPECT_EQ(rig.tm.txLoad(0, kA).status, OpStatus::Ok);
    EXPECT_EQ(rig.tm.txLoad(1, kA).status, OpStatus::Ok);
    EXPECT_TRUE(rig.remoteAborts.empty());
    EXPECT_EQ(rig.tm.stats().conflicts, 0u);
}

TEST(EagerHtm, WriteAfterRemoteReadStallsYoungerRequester)
{
    EagerRig rig;
    rig.begin(0); // Older.
    rig.begin(1); // Younger.
    EXPECT_EQ(rig.tm.txLoad(0, kA).status, OpStatus::Ok);
    // Core 1 (younger) writes the block core 0 read: NACK.
    MemOpOutcome out = rig.tm.txStore(1, kA, 7, std::nullopt);
    EXPECT_EQ(out.status, OpStatus::Nack);
    EXPECT_TRUE(rig.remoteAborts.empty());
    EXPECT_EQ(rig.tm.stats().nacks, 1u);
}

TEST(EagerHtm, OlderWriterAbortsYoungerReader)
{
    EagerRig rig;
    rig.begin(0); // Older.
    rig.begin(1); // Younger.
    EXPECT_EQ(rig.tm.txLoad(1, kA).status, OpStatus::Ok);
    // Core 0 (older) writes: the younger holder aborts.
    MemOpOutcome out = rig.tm.txStore(0, kA, 7, std::nullopt);
    EXPECT_EQ(out.status, OpStatus::Ok);
    ASSERT_EQ(rig.remoteAborts.size(), 1u);
    EXPECT_EQ(rig.remoteAborts[0].first, 1u);
    EXPECT_EQ(rig.tm.status(1), TxStatus::Idle);
}

TEST(EagerHtm, ReadAfterRemoteWriteConflicts)
{
    EagerRig rig;
    rig.begin(0);
    rig.begin(1);
    EXPECT_EQ(rig.tm.txStore(0, kA, 7, std::nullopt).status,
              OpStatus::Ok);
    EXPECT_EQ(rig.tm.txLoad(1, kA).status, OpStatus::Nack);
}

TEST(EagerHtm, WriteWriteConflicts)
{
    EagerRig rig;
    rig.begin(0);
    rig.begin(1);
    EXPECT_EQ(rig.tm.txStore(0, kA, 1, std::nullopt).status,
              OpStatus::Ok);
    EXPECT_EQ(rig.tm.txStore(1, kA, 2, std::nullopt).status,
              OpStatus::Nack);
}

TEST(EagerHtm, DifferentBlocksDoNotConflict)
{
    EagerRig rig;
    rig.begin(0);
    rig.begin(1);
    EXPECT_EQ(rig.tm.txStore(0, kA, 1, std::nullopt).status,
              OpStatus::Ok);
    EXPECT_EQ(rig.tm.txStore(1, kB, 2, std::nullopt).status,
              OpStatus::Ok);
}

TEST(EagerHtm, AbortRollsBackAllSpeculativeStores)
{
    EagerRig rig;
    rig.ms.memory().writeWord(kA, 100);
    rig.ms.memory().writeWord(kB, 200);
    rig.begin(1);
    rig.tm.txStore(1, kA, 111, std::nullopt);
    rig.tm.txStore(1, kB, 222, std::nullopt);
    rig.tm.txStore(1, kA, 112, std::nullopt);
    rig.tm.abortSelf(1, AbortCause::Explicit);
    EXPECT_EQ(rig.ms.memory().readWord(kA), 100u);
    EXPECT_EQ(rig.ms.memory().readWord(kB), 200u);
    EXPECT_EQ(rig.tm.status(1), TxStatus::Idle);
}

TEST(EagerHtm, CommitMakesStoresDurable)
{
    EagerRig rig;
    rig.begin(0);
    rig.tm.txStore(0, kA, 42, std::nullopt);
    rig.commit(0);
    EXPECT_EQ(rig.ms.memory().readWord(kA), 42u);
    EXPECT_EQ(rig.tm.stats().commits, 1u);
    // The block is no longer speculative: another txn may write it.
    rig.begin(1);
    EXPECT_EQ(rig.tm.txStore(1, kA, 43, std::nullopt).status,
              OpStatus::Ok);
}

TEST(EagerHtm, TimestampRetainedAcrossRetrySoVictimAges)
{
    EagerRig rig;
    rig.begin(0); // ts 1.
    rig.begin(1); // ts 2.
    rig.tm.txLoad(1, kA);
    rig.tm.txStore(0, kA, 1, std::nullopt); // Aborts core 1.
    ASSERT_EQ(rig.tm.status(1), TxStatus::Idle);
    // Core 1 retries, keeping ts 2; core 0 commits; a *new* txn on
    // core 0 gets ts 3 and now loses to core 1.
    ASSERT_EQ(rig.tm.txBegin(1, true).status, OpStatus::Ok);
    rig.commit(0);
    rig.begin(0); // ts 3.
    rig.tm.txLoad(1, kA);
    MemOpOutcome out = rig.tm.txStore(0, kA, 2, std::nullopt);
    EXPECT_EQ(out.status, OpStatus::Nack); // Core 1 is older now.
}

TEST(EagerHtm, RequesterLosesPolicyAbortsSelf)
{
    TMConfig cfg;
    cfg.mode = TMMode::Eager;
    cfg.cmPolicy = CMPolicy::RequesterLoses;
    EagerRig rig(cfg);
    rig.begin(0);
    rig.begin(1);
    rig.tm.txLoad(0, kA);
    MemOpOutcome out = rig.tm.txStore(1, kA, 7, std::nullopt);
    EXPECT_EQ(out.status, OpStatus::AbortSelf);
    EXPECT_EQ(rig.tm.status(1), TxStatus::Idle);
    EXPECT_EQ(rig.tm.status(0), TxStatus::Active);
}

TEST(EagerHtm, RequesterWinsPolicyAbortsHolderEvenIfOlder)
{
    TMConfig cfg;
    cfg.mode = TMMode::Eager;
    cfg.cmPolicy = CMPolicy::RequesterWins;
    EagerRig rig(cfg);
    rig.begin(0); // Older holder.
    rig.begin(1);
    rig.tm.txLoad(0, kA);
    MemOpOutcome out = rig.tm.txStore(1, kA, 7, std::nullopt);
    EXPECT_EQ(out.status, OpStatus::Ok);
    ASSERT_EQ(rig.remoteAborts.size(), 1u);
    EXPECT_EQ(rig.remoteAborts[0].first, 0u);
}

TEST(EagerHtm, NonTransactionalStoreWinsAgainstTransaction)
{
    EagerRig rig;
    rig.begin(0);
    rig.tm.txLoad(0, kA);
    MemOpOutcome out = rig.tm.plainStore(1, kA, 9);
    EXPECT_EQ(out.status, OpStatus::Ok);
    ASSERT_EQ(rig.remoteAborts.size(), 1u);
    EXPECT_EQ(rig.remoteAborts[0].first, 0u);
    EXPECT_EQ(rig.ms.memory().readWord(kA), 9u);
}

TEST(EagerHtm, SubWordStoresRoundTrip)
{
    EagerRig rig;
    rig.ms.memory().writeWord(kA, 0xffffffffffffffffull);
    rig.begin(0);
    rig.tm.txStore(0, kA, 0x12, std::nullopt, 1);
    MemOpOutcome out = rig.tm.txLoad(0, kA, 1);
    EXPECT_EQ(out.value, 0x12u);
    out = rig.tm.txLoad(0, kA + 1, 1);
    EXPECT_EQ(out.value, 0xffu);
    rig.commit(0);
    EXPECT_EQ(rig.ms.memory().readWord(kA), 0xffffffffffffff12ull);
}

TEST(EagerHtm, OverflowTakesOneTmTokenAndWins)
{
    ShardedEventQueue eq;
    mem::MemorySystem ms(2);
    TMConfig cfg;
    cfg.mode = TMMode::Eager;
    TMMachine tm(eq, ms, cfg);
    int aborted = 0;
    tm.setRemoteAbortHandler([&](CoreId, AbortCause) { ++aborted; });

    ASSERT_EQ(tm.txBegin(0, false).status, OpStatus::Ok);
    // Blocks 256KB apart share one L2 set (4096 sets) and one
    // permissions-only set (16 sets). Loads 5-8 evict speculative
    // blocks from the L2 into the 4 permissions-only ways; the 9th
    // evicts one from there too and overflows.
    for (int i = 0; i < 12; ++i) {
        MemOpOutcome out =
            tm.txLoad(0, 0x100000 + Addr(i) * kL2SetStride);
        ASSERT_NE(out.status, OpStatus::AbortSelf);
    }
    EXPECT_EQ(tm.stats().overflows, 1u);
    EXPECT_EQ(aborted, 0);

    // A second transaction that also overflows must wait for the
    // token (NACK), implementing OneTM serialization.
    ASSERT_EQ(tm.txBegin(1, false).status, OpStatus::Ok);
    bool nacked = false;
    for (int i = 0; i < 12 && !nacked; ++i) {
        MemOpOutcome out =
            tm.txLoad(1, 0x900000 + Addr(i) * kL2SetStride);
        nacked = out.status == OpStatus::Nack;
    }
    EXPECT_TRUE(nacked);
}

TEST(LazyHtm, PlainStoreMidDrainRollsBackDrainedWords)
{
    // A plain store that hits a Lazy committer's write set mid-drain
    // aborts the committer (committer-wins treats the store as a
    // committed transaction). The words already drained must be rolled
    // back with it, or memory keeps half the write buffer.
    TMConfig cfg;
    cfg.mode = TMMode::Lazy;
    EagerRig rig(cfg);
    rig.ms.memory().writeWord(kA, 1);
    rig.ms.memory().writeWord(kB, 2);
    rig.begin(0);
    rig.tm.txStore(0, kA, 10, std::nullopt);
    rig.tm.txStore(0, kB, 20, std::nullopt);
    ASSERT_EQ(rig.tm.commitStep(0).status, OpStatus::Ok); // Token.
    ASSERT_EQ(rig.tm.commitStep(0).status, OpStatus::Ok); // Drain kA.
    ASSERT_EQ(rig.ms.memory().readWord(kA), 10u);

    EXPECT_EQ(rig.tm.plainStore(1, kB, 99).status, OpStatus::Ok);
    EXPECT_EQ(rig.tm.status(0), TxStatus::Idle);
    EXPECT_EQ(rig.ms.memory().readWord(kA), 1u);
    EXPECT_EQ(rig.ms.memory().readWord(kB), 99u);
}

TEST(DatmHtm, PlainStoreAbortsCascadedHoldersOnce)
{
    // Core 1 reads core 0's speculative store (a dataflow edge), so
    // aborting core 0 cascades to core 1. A plain store to the block
    // wins against both holders and must not abort core 1 a second
    // time once the cascade retired it.
    TMConfig cfg;
    cfg.mode = TMMode::DATM;
    EagerRig rig(cfg);
    rig.begin(0);
    rig.begin(1);
    ASSERT_EQ(rig.tm.txStore(0, kA, 7, std::nullopt).status, OpStatus::Ok);
    ASSERT_EQ(rig.tm.txLoad(1, kA).value, 7u);
    EXPECT_EQ(rig.tm.plainStore(2, kA, 9).status, OpStatus::Ok);
    EXPECT_EQ(rig.tm.status(0), TxStatus::Idle);
    EXPECT_EQ(rig.tm.status(1), TxStatus::Idle);
    EXPECT_EQ(rig.tm.stats().aborts, 2u);
    EXPECT_EQ(rig.ms.memory().readWord(kA), 9u);
}
