/**
 * @file
 * Tests for the banked memory system and commit-token arbitration:
 * the directory bank count must never change simulated results while
 * bank contention is unmodeled (bit-identical RunResults across
 * memBanks in {1,2,4}), modeled contention (bank occupancy + per-bank
 * commit tokens) must stay audit-clean at every shard x bank point,
 * banking must actually relieve the modeled bottleneck (4 banks beat
 * 1 bank under contention), and the reenactment oracle must still
 * catch deliberately corrupted repairs and forwards at the full
 * 4 shards x 4 banks scale-out point.
 */

#include <gtest/gtest.h>

#include "api/metrics.hpp"
#include "exec/cluster.hpp"
#include "mem/directory.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

#include "counter_harness.hpp"

using namespace retcon;
using namespace retcon::exec;
using namespace retcon::test;

namespace {

/**
 * Contended-counter run on a 4-shard x 4-bank cluster with full
 * contention modeling and the reenactment oracle attached. The
 * synthetic body only adds, so fault-injected (corrupted) values can
 * never feed an address computation or divisor — the standard harness
 * for negative controls (cf. test_sharded_exec).
 */
trace::ReenactReport
runBankedCounter(htm::TMMode mode, Word repair_xor, Word fwd_xor)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = 4;
    cfg.memBanks = 4;
    cfg.timing.bankOccupancy = 8;
    cfg.tm.mode = mode;
    cfg.tm.commitTokenArbitration = true;
    cfg.tm.faultInjectRepairXor = repair_xor;
    cfg.tm.faultInjectForwardXor = fwd_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    trace::ShardMux mux(
        4, [&cluster](CoreId c) { return cluster.shardOf(c); });
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    mux.addDownstream(&validator);
    cluster.setTraceSink(&mux);

    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    cluster.run();
    // Injected faults corrupt committed state by design; only clean
    // runs must land the exact count.
    if (repair_xor == 0 && fwd_xor == 0) {
        EXPECT_EQ(cluster.memory().readWord(kCounter),
                  Word(kThreads * kIters));
    }
    return validator.report();
}

api::RunConfig
serviceConfig()
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.1;
    cfg.tm = api::retconConfig();
    return cfg;
}

} // namespace

TEST(DirectoryBanks, PartitionIsExhaustiveAndStable)
{
    mem::Directory dir(4);
    EXPECT_EQ(dir.numBanks(), 4u);
    for (Addr block = 0; block < 512 * kBlockBytes;
         block += kBlockBytes) {
        unsigned b = dir.bankOf(block);
        ASSERT_LT(b, 4u);
        EXPECT_EQ(b, dir.bankOf(block)); // Pure function of address.
    }

    // dropCore finds the block whatever its home bank.
    dir.entry(0).state = mem::DirState::Modified;
    dir.entry(0).owner = 3;
    dir.dropCore(0, 3);
    EXPECT_EQ(dir.lookup(0).state, mem::DirState::Invalid);
}

TEST(DirectoryBanks, HashSpreadsDenseRange)
{
    // The mixed bank hash must not camp a dense block range (the
    // natural layout of a hashtable's bucket array) on few banks.
    mem::Directory dir(4);
    unsigned perBank[4] = {};
    constexpr unsigned kBlocks = 4096;
    for (Addr i = 0; i < kBlocks; ++i)
        ++perBank[dir.bankOf(i * kBlockBytes)];
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_GT(perBank[b], kBlocks / 8) << "bank " << b;
        EXPECT_LT(perBank[b], kBlocks / 2) << "bank " << b;
    }
}

TEST(MemBanks, BitIdenticalAcrossBankCountsWhenUnmodeled)
{
    // With occupancy and token arbitration unmodeled the bank count
    // must be invisible: identical cycles, commits, aborts, NACKs.
    api::RunConfig cfg = serviceConfig();
    cfg.shards = 2;
    api::RunResult base = api::runOnce(cfg);
    ASSERT_TRUE(base.validation.ok);
    for (unsigned banks : {2u, 4u, 64u}) {
        api::RunConfig c = cfg;
        c.memBanks = banks;
        api::RunResult got = api::runOnce(c);
        EXPECT_EQ(api::fingerprint(got), api::fingerprint(base))
            << banks << " banks diverged: first difference "
            << api::firstDifference(got, base);
    }
}

TEST(MemBanks, BitIdenticalAcrossBankCountsEagerMode)
{
    api::RunConfig cfg = serviceConfig();
    cfg.tm = api::eagerConfig();
    api::RunResult base = api::runOnce(cfg);
    ASSERT_TRUE(base.validation.ok);
    for (unsigned banks : {2u, 4u}) {
        api::RunConfig c = cfg;
        c.memBanks = banks;
        api::RunResult got = api::runOnce(c);
        EXPECT_EQ(api::fingerprint(got), api::fingerprint(base))
            << banks << " banks diverged: first difference "
            << api::firstDifference(got, base);
    }
}

TEST(MemBanks, AuditCleanWithContentionModeled)
{
    // Full modeling on: directory occupancy + per-bank commit tokens.
    // Every (shards x banks) point must validate and reenact cleanly.
    for (unsigned n : {1u, 2u, 4u}) {
        api::RunConfig cfg = serviceConfig();
        cfg.shards = n;
        cfg.memBanks = n;
        cfg.memBankOccupancy = 8;
        cfg.tm.commitTokenArbitration = true;
        cfg.trace.enabled = true;
        api::RunResult r = api::runOnce(cfg);
        EXPECT_TRUE(r.validation.ok) << n << "x" << n;
        EXPECT_TRUE(r.reenact.ok()) << n << "x" << n << ": "
                                    << r.reenact.summary();
        EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u);
        EXPECT_GT(r.reenact.commitsChecked, 0u);
        // The contention model must actually engage: directory
        // requests are accounted per bank, and commits acquired
        // tokens.
        EXPECT_GT(api::metric(r, "mem.bank_requests"), 0);
        EXPECT_GT(api::metric(r, "mem.bank_token_acquires"), 0);
        EXPECT_EQ(r.banks.size(), n);
    }
}

TEST(MemBanks, DatmChainsValidateUnderBankedMemory)
{
    // DATM forwarding chains must re-derive with zero skips on a
    // banked, contention-modeled memory system (the PR-3 oracle
    // guards this refactor).
    api::RunConfig cfg = serviceConfig();
    cfg.tm.mode = htm::TMMode::DATM;
    cfg.scale = 0.2;
    cfg.shards = 4;
    cfg.memBanks = 4;
    cfg.memBankOccupancy = 8;
    cfg.tm.commitTokenArbitration = true;
    cfg.trace.enabled = true;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok);
    EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
    EXPECT_GT(r.reenact.forwardedCommitsChecked, 0u)
        << "vacuous: no forwarding chains re-derived";
    EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u);
}

TEST(MemBanks, BankingRelievesModeledContention)
{
    // The tentpole claim: with the monolithic spine modeled (occupied
    // directory + commit tokens), adding banks must shorten the run.
    api::RunConfig cfg = serviceConfig();
    cfg.nthreads = 16;
    cfg.scale = 0.2;
    cfg.shards = 4;
    cfg.memBankOccupancy = 8;
    cfg.tm.commitTokenArbitration = true;

    api::RunConfig one = cfg;
    one.memBanks = 1;
    api::RunConfig four = cfg;
    four.memBanks = 4;
    api::RunResult r1 = api::runOnce(one);
    api::RunResult r4 = api::runOnce(four);
    ASSERT_TRUE(r1.validation.ok);
    ASSERT_TRUE(r4.validation.ok);
    EXPECT_LT(r4.cycles, r1.cycles)
        << "4 banks should beat 1 bank under modeled contention";
    // And the single bank must show the queueing the banks remove.
    EXPECT_GT(r1.banks[0].stallCycles, 0u);
}

TEST(MemBanks, CleanCounterReenactsAt4x4)
{
    // Positive control for the negative controls below: the same
    // harness with no fault injection must reenact cleanly.
    trace::ReenactReport r =
        runBankedCounter(htm::TMMode::Retcon, 0, 0);
    EXPECT_EQ(r.mismatches, 0u) << r.summary();
    EXPECT_GT(r.repairsChecked, 0u) << "vacuous: no repairs audited";
}

TEST(MemBanks, FaultInjectedRepairCaughtAt4x4)
{
    // Negative control: a corrupted commit-time repair must be
    // flagged by the reenactment oracle at the full scale-out point
    // (4 shards x 4 banks, contention modeled).
    trace::ReenactReport r =
        runBankedCounter(htm::TMMode::Retcon, 0x4, 0);
    EXPECT_GT(r.mismatches, 0u)
        << "corrupted repairs escaped the audit on banked memory";
}

TEST(MemBanks, FaultInjectedForwardCaughtAt4x4)
{
    trace::ReenactReport r =
        runBankedCounter(htm::TMMode::DATM, 0, 0x10);
    EXPECT_GT(r.mismatches, 0u)
        << "corrupted forwards escaped the audit on banked memory";
}

TEST(MemBanks, TokenStatsOnlyWithArbitration)
{
    // Arbitration off: no token traffic, no waits, any bank count.
    api::RunConfig cfg = serviceConfig();
    cfg.memBanks = 4;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_EQ(api::metric(r, "mem.bank_token_acquires"), 0);
    EXPECT_EQ(api::metric(r, "mem.bank_token_waits"), 0);
    EXPECT_EQ(api::metric(r, "htm.token_waits"), 0);
}
