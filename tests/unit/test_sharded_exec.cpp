/**
 * @file
 * End-to-end tests for the sharded cluster: shard count must never
 * change committed architectural state (bit-identical runs for a
 * fixed seed), the mux's live downstream must see one globally
 * ordered trace whose records match the per-shard counters, the
 * ReenactmentValidator must stay sound over the merged stream with
 * N > 1 shards — including catching deliberately corrupted repairs
 * (faultInjectRepairXor) — and the service workload must conserve
 * its invariants under sharding and dispatch-bandwidth modeling.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "api/metrics.hpp"
#include "exec/cluster.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

#include "counter_harness.hpp"

using namespace retcon;
using namespace retcon::exec;
using namespace retcon::test;

namespace {

struct ShardedRun {
    Cycle cycles = 0;
    Word counter = 0;
    std::uint64_t commits = 0;
    trace::ReenactReport report;
    std::vector<trace::Record> captured; ///< The mux's live output.
    std::uint64_t muxEvents = 0;
    std::uint64_t muxRepairs = 0;
};

/** Contended-counter run on a sharded cluster with mux + validator. */
ShardedRun
runSharded(unsigned nshards, Word fault_xor = 0, unsigned bandwidth = 0,
           htm::TMMode mode = htm::TMMode::Retcon,
           Word fwd_fault_xor = 0)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = nshards;
    cfg.shardBandwidth = bandwidth;
    cfg.tm.mode = mode;
    cfg.tm.faultInjectRepairXor = fault_xor;
    cfg.tm.faultInjectForwardXor = fwd_fault_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    ShardedRun out;
    trace::ShardMux mux(
        nshards, [&cluster](CoreId c) { return cluster.shardOf(c); });
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    trace::CaptureSink capture(out.captured);
    mux.addDownstream(&validator);
    mux.addDownstream(&capture);
    cluster.setTraceSink(&mux);

    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    out.cycles = cluster.run();
    out.counter = cluster.memory().readWord(kCounter);
    out.commits = cluster.aggregateStats().commits;
    out.report = validator.report();
    out.muxEvents = mux.totalEvents();
    for (unsigned s = 0; s < nshards; ++s)
        out.muxRepairs += mux.counters(s).repairs;
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Determinism across shard counts
// ---------------------------------------------------------------------

TEST(ShardedExec, ShardCountDoesNotChangeCommittedState)
{
    ShardedRun one = runSharded(1);
    EXPECT_EQ(one.counter, Word(kThreads * kIters));
    for (unsigned n : {2u, 4u, 8u}) {
        ShardedRun sharded = runSharded(n);
        // Bit-identical simulation: same makespan, same architectural
        // state, same commit count, same provenance stream length.
        EXPECT_EQ(sharded.cycles, one.cycles) << n << " shards";
        EXPECT_EQ(sharded.counter, one.counter) << n << " shards";
        EXPECT_EQ(sharded.commits, one.commits) << n << " shards";
        EXPECT_EQ(sharded.muxEvents, one.muxEvents) << n << " shards";
    }
}

TEST(ShardedExec, ServiceWorkloadStateIdenticalAcrossShardCounts)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    api::RunResult one = api::runOnce(cfg);
    EXPECT_TRUE(one.validation.ok) << one.validation.note;
    for (unsigned n : {2u, 4u}) {
        cfg.shards = n;
        api::RunResult r = api::runOnce(cfg);
        EXPECT_TRUE(r.validation.ok) << r.validation.note;
        EXPECT_EQ(api::fingerprint(r), api::fingerprint(one))
            << n << " shards: first difference "
            << api::firstDifference(r, one);
    }
}

TEST(ShardedExec, BandwidthModelChangesTimingButPreservesCorrectness)
{
    ShardedRun free = runSharded(4);
    ShardedRun limited = runSharded(4, 0, /*bandwidth=*/1);
    // Dispatch serialization slows the run but every invariant holds.
    EXPECT_GT(limited.cycles, free.cycles);
    EXPECT_EQ(limited.counter, Word(kThreads * kIters));
    EXPECT_EQ(limited.report.mismatches, 0u);
    EXPECT_EQ(limited.report.commitsChecked,
              std::uint64_t(kThreads * kIters));
}

// ---------------------------------------------------------------------
// Merged per-shard traces + the audit oracle at N > 1
// ---------------------------------------------------------------------

TEST(ShardedExec, MergedShardTracesPassReenactmentValidator)
{
    ShardedRun out = runSharded(4);
    EXPECT_EQ(out.report.mismatches, 0u) << out.report.summary();
    EXPECT_EQ(out.report.commitsChecked,
              std::uint64_t(kThreads * kIters));
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.muxRepairs, 0u);
}

TEST(ShardedExec, CapturedStreamIsGloballyOrderedAndComplete)
{
    ShardedRun out = runSharded(4);
    // A downstream of the 4-shard mux sees every event exactly once,
    // in strictly increasing machine order.
    ASSERT_EQ(out.captured.size(), out.muxEvents);
    for (std::size_t i = 1; i < out.captured.size(); ++i) {
        EXPECT_LT(out.captured[i - 1].seq, out.captured[i].seq);
        EXPECT_LE(out.captured[i - 1].cycle, out.captured[i].cycle);
    }
}

TEST(ShardedExec, ShardCountersMatchTheirCoresRecords)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = 4;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    trace::ShardMux mux(
        4, [&cluster](CoreId c) { return cluster.shardOf(c); });
    std::vector<trace::Record> captured;
    trace::CaptureSink capture(captured);
    mux.addDownstream(&capture);
    cluster.setTraceSink(&mux);
    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    cluster.run();
    // Each shard counts exactly the records its own cores emitted.
    std::vector<std::uint64_t> homed(4, 0);
    for (const trace::Record &r : captured)
        ++homed[cluster.shardOf(r.core)];
    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_GT(homed[s], 0u) << "shard " << s;
        EXPECT_EQ(mux.counters(s).events, homed[s]) << "shard " << s;
    }
}

TEST(ShardedExec, CorruptedRepairIsCaughtWithFourShards)
{
    // The negative control must survive sharding: a fault-injected
    // repair shows up as a mismatch in the merged audit stream.
    ShardedRun out = runSharded(4, /*fault_xor=*/0x10);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::RepairValue);
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x10));
}

TEST(ShardedExec, CorruptedRepairIsCaughtUnderBandwidthAndStealing)
{
    ShardedRun out = runSharded(4, /*fault_xor=*/0x4, /*bandwidth=*/1);
    EXPECT_GT(out.report.mismatches, 0u);
}

// ---------------------------------------------------------------------
// DATM forwarding chains across shard boundaries
// ---------------------------------------------------------------------

TEST(ShardedExec, DatmForwardingChainsValidateAcrossShards)
{
    // Forward records resolve against the producer's logged store on
    // the *merged* live stream: a consumer on one shard must find the
    // producing store a different shard recorded, in global order.
    ShardedRun out = runSharded(4, 0, 0, htm::TMMode::DATM);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.forwardedCommitsChecked, 0u);
    EXPECT_EQ(out.report.forwardedCommitsSkipped, 0u);
    EXPECT_EQ(out.report.mismatches, 0u) << out.report.summary();
}

TEST(ShardedExec, DatmChainsActuallyCrossShardBoundaries)
{
    // The contended counter bounces between all 8 cores, which map
    // round-robin onto 4 shards: resolve each Forward record's
    // producer (via its TxBegin uid) and require at least one link
    // whose consumer and producer live on different shards.
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = 4;
    cfg.tm.mode = htm::TMMode::DATM;
    Cluster cluster(cfg);
    trace::ShardMux mux(
        4, [&cluster](CoreId c) { return cluster.shardOf(c); });
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    std::vector<trace::Record> captured;
    trace::CaptureSink capture(captured);
    mux.addDownstream(&validator);
    mux.addDownstream(&capture);
    cluster.setTraceSink(&mux);
    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    cluster.run();

    std::unordered_map<std::uint64_t, CoreId> uid_core;
    std::uint64_t cross_shard = 0, forwards = 0;
    for (const trace::Record &r : captured) {
        if (r.kind == trace::EventKind::TxBegin) {
            uid_core[r.b] = r.core;
        } else if (r.kind == trace::EventKind::Forward) {
            ++forwards;
            auto it = uid_core.find(r.b);
            ASSERT_NE(it, uid_core.end());
            if (cluster.shardOf(it->second) != cluster.shardOf(r.core))
                ++cross_shard;
        }
    }
    EXPECT_GT(forwards, 0u);
    EXPECT_GT(cross_shard, 0u);
    EXPECT_EQ(validator.report().mismatches, 0u)
        << validator.report().summary();
}

TEST(ShardedExec, CorruptedForwardIsCaughtWithFourShards)
{
    // The DATM negative control must survive sharding too: a
    // corrupted forwarded value shows up as a chain mismatch in the
    // merged audit stream.
    ShardedRun out = runSharded(4, 0, 0, htm::TMMode::DATM,
                                /*fwd_fault_xor=*/0x40);
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::ForwardValue);
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x40));
}
