/**
 * @file
 * Differential determinism suite for the host-parallel engine.
 *
 * The sequential engine is the reference; the parallel engine must be
 * bit-identical at every tested grid point: same RunResult
 * fingerprints, byte-identical merged traces, same audit verdicts
 * (zero mismatches, zero skipped forward chains), and the
 * fault-injection negative controls must still be *caught* when the
 * engine runs on real host threads. A repeated-run harness
 * (ParallelDeterminism.*, registered separately in ctest as
 * test_parallel_determinism) runs one parallel config 20x in-process:
 * a real race may survive one lucky run, but not twenty.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "exec/cluster.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIters = 25;
constexpr unsigned kThreads = 8;

Task<TxValue>
incrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kIters; ++i) {
        co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
        co_await ctx.work(20);
    }
    co_await ctx.barrier();
}

/** Serialize every field of every record: byte equality, not "close". */
std::string
traceBytes(const std::vector<trace::Record> &records)
{
    std::ostringstream os;
    for (const trace::Record &r : records) {
        os << r.cycle << '|' << unsigned(r.core) << '|'
           << unsigned(r.kind) << '|' << r.addr << '|' << r.a << '|'
           << r.b << '|' << r.hasSym << '|' << unsigned(r.cmp) << '|'
           << unsigned(r.aux) << '|' << r.seq << '|' << r.vid << '\n';
    }
    return os.str();
}

struct CounterRun {
    Cycle cycles = 0;
    Word counter = 0;
    std::uint64_t commits = 0;
    std::uint64_t executed = 0;
    trace::ReenactReport report;
    std::string trace;
    std::uint64_t muxEvents = 0;
    std::vector<std::uint64_t> deferred; ///< Per-shard slips.
};

/** Contended-counter run with mux + validator on N host threads. */
CounterRun
runCounter(unsigned nshards, unsigned host_threads,
           unsigned bandwidth = 0, htm::TMMode mode = htm::TMMode::Retcon,
           Word fault_xor = 0, Word fwd_fault_xor = 0, bool stealing = true)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = nshards;
    cfg.shardBandwidth = bandwidth;
    cfg.shardWorkStealing = stealing;
    cfg.hostThreads = host_threads;
    cfg.tm.mode = mode;
    cfg.tm.faultInjectRepairXor = fault_xor;
    cfg.tm.faultInjectForwardXor = fwd_fault_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    trace::ShardMux mux(
        nshards, [&cluster](CoreId c) { return cluster.shardOf(c); },
        /*ring_capacity=*/1 << 16);
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    mux.addDownstream(&validator);
    cluster.setTraceSink(&mux);

    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    CounterRun out;
    out.cycles = cluster.run();
    out.counter = cluster.memory().readWord(kCounter);
    out.commits = cluster.aggregateStats().commits;
    out.executed = cluster.eventQueue().executed();
    out.report = validator.report();
    out.trace = traceBytes(mux.mergedSnapshot());
    out.muxEvents = mux.totalEvents();
    for (unsigned s = 0; s < nshards; ++s)
        out.deferred.push_back(cluster.shardQueueStats(s).deferred);
    return out;
}

/** FNV-1a over every simulated observable of a RunResult. */
std::uint64_t
fingerprint(const api::RunResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(r.cycles);
    mix(r.coreStats.txns);
    mix(r.coreStats.commits);
    mix(r.coreStats.aborts);
    mix(r.coreStats.finishCycle);
    mix(r.validation.ok);
    mix(r.traceEvents);
    mix(r.reenact.commitsChecked);
    mix(r.reenact.repairsChecked);
    mix(r.reenact.forwardsChecked);
    mix(r.reenact.forwardedCommitsChecked);
    mix(r.reenact.forwardedCommitsSkipped);
    mix(r.reenact.mismatches);
    for (const api::ShardSummary &s : r.shards) {
        mix(s.txns);
        mix(s.commits);
        mix(s.aborts);
        mix(s.queueScheduled);
        mix(s.queueExecuted);
        mix(s.queueStolen);
        mix(s.queueDeferred);
        mix(s.traceEvents);
        mix(s.repairs);
        mix(s.forwards);
        mix(s.tokenWaits);
        mix(s.schedObserved);
        mix(s.schedDefers);
        mix(s.schedDeferCycles);
        mix(s.schedRepairableSkips);
    }
    for (const api::BankSummary &b : r.banks) {
        mix(b.requests);
        mix(b.stalled);
        mix(b.stallCycles);
        mix(b.tokenAcquires);
        mix(b.tokenWaits);
    }
    mix(r.net.messages);
    mix(r.net.payloadWords);
    mix(r.net.queueCycles);
    return h;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** runOnce with the trace exported, returning (fingerprint, bytes). */
std::pair<std::uint64_t, std::string>
runApi(api::RunConfig cfg, const std::string &tag)
{
    cfg.trace.enabled = true;
    std::string path = "pe_trace_" + tag + ".json";
    cfg.trace.exportJsonPath = path;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << tag << ": " << r.validation.note;
    EXPECT_EQ(r.reenact.mismatches, 0u)
        << tag << ": " << r.reenact.summary();
    EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u) << tag;
    std::string bytes = slurp(path);
    EXPECT_FALSE(bytes.empty()) << tag;
    std::remove(path.c_str());
    return {fingerprint(r), bytes};
}

} // namespace

// ---------------------------------------------------------------------
// Differential grid: counter workload at the cluster level
// ---------------------------------------------------------------------

TEST(ParallelEngine, CounterGridBitIdenticalToSequential)
{
    for (unsigned shards : {1u, 4u}) {
        CounterRun ref = runCounter(shards, /*host_threads=*/0);
        ASSERT_EQ(ref.counter, Word(kThreads * kIters));
        ASSERT_EQ(ref.report.mismatches, 0u) << ref.report.summary();
        for (unsigned ht : {1u, 2u, 4u}) {
            CounterRun par = runCounter(shards, ht);
            SCOPED_TRACE(std::to_string(shards) + " shards, " +
                         std::to_string(ht) + " host threads");
            EXPECT_EQ(par.cycles, ref.cycles);
            EXPECT_EQ(par.counter, ref.counter);
            EXPECT_EQ(par.commits, ref.commits);
            EXPECT_EQ(par.executed, ref.executed);
            EXPECT_EQ(par.muxEvents, ref.muxEvents);
            EXPECT_EQ(par.report.mismatches, 0u)
                << par.report.summary();
            EXPECT_EQ(par.report.forwardedCommitsSkipped, 0u);
            EXPECT_EQ(par.trace, ref.trace)
                << "merged trace bytes diverged";
        }
    }
}

TEST(ParallelEngine, BandwidthAndStealingBitIdenticalOnHostThreads)
{
    // Dispatch-bandwidth slip and work stealing consult foreign-shard
    // horizons: the settle-before-steal path must reproduce the
    // sequential decisions exactly. With stealing off, slips are
    // batched and mailed cancels carry the position that keeps the
    // slip count per-event exact.
    for (bool stealing : {true, false}) {
        CounterRun ref = runCounter(4, 0, /*bandwidth=*/1,
                                    htm::TMMode::Retcon, 0, 0, stealing);
        for (unsigned ht : {2u, 4u}) {
            CounterRun par = runCounter(4, ht, /*bandwidth=*/1,
                                        htm::TMMode::Retcon, 0, 0, stealing);
            SCOPED_TRACE(std::to_string(ht) + " host threads, stealing " +
                         std::to_string(stealing));
            EXPECT_EQ(par.cycles, ref.cycles);
            EXPECT_EQ(par.counter, ref.counter);
            EXPECT_EQ(par.executed, ref.executed);
            EXPECT_EQ(par.deferred, ref.deferred);
            EXPECT_EQ(par.trace, ref.trace);
            EXPECT_EQ(par.report.mismatches, 0u) << par.report.summary();
        }
    }
}

TEST(ParallelEngine, DatmForwardingBitIdenticalOnHostThreads)
{
    CounterRun ref = runCounter(4, 0, 0, htm::TMMode::DATM);
    ASSERT_GT(ref.report.forwardsChecked, 0u);
    ASSERT_EQ(ref.report.forwardedCommitsSkipped, 0u);
    for (unsigned ht : {2u, 4u}) {
        CounterRun par = runCounter(4, ht, 0, htm::TMMode::DATM);
        SCOPED_TRACE(std::to_string(ht) + " host threads");
        EXPECT_EQ(par.cycles, ref.cycles);
        EXPECT_EQ(par.trace, ref.trace);
        EXPECT_EQ(par.report.forwardsChecked, ref.report.forwardsChecked);
        EXPECT_EQ(par.report.forwardedCommitsSkipped, 0u);
        EXPECT_EQ(par.report.mismatches, 0u) << par.report.summary();
    }
}

// ---------------------------------------------------------------------
// Negative controls: corruption must still be CAUGHT on host threads
// ---------------------------------------------------------------------

TEST(ParallelEngine, CorruptedRepairCaughtUnderParallelEngine)
{
    CounterRun out =
        runCounter(4, /*host_threads=*/4, 0, htm::TMMode::Retcon,
                   /*fault_xor=*/0x10);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::RepairValue);
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x10));
}

TEST(ParallelEngine, CorruptedForwardCaughtUnderParallelEngine)
{
    CounterRun out =
        runCounter(4, /*host_threads=*/4, 0, htm::TMMode::DATM,
                   /*fault_xor=*/0, /*fwd_fault_xor=*/0x40);
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::ForwardValue);
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x40));
}

// ---------------------------------------------------------------------
// Differential grid: real workloads through the public API
// ---------------------------------------------------------------------

TEST(ParallelEngine, WorkloadGridBitIdenticalToSequential)
{
    for (const char *workload : {"service", "intruder"}) {
        for (unsigned shards : {1u, 4u}) {
            for (unsigned banks : {1u, 4u}) {
                api::RunConfig cfg;
                cfg.workload = workload;
                cfg.nthreads = 8;
                cfg.scale = 0.05;
                cfg.tm = api::retconConfig();
                cfg.shards = shards;
                cfg.memBanks = banks;
                std::string base = std::string(workload) + "_s" +
                                   std::to_string(shards) + "_b" +
                                   std::to_string(banks);
                auto ref = runApi(cfg, base + "_ref");
                for (unsigned ht : {1u, 2u, 4u}) {
                    cfg.hostThreads = ht;
                    auto par =
                        runApi(cfg, base + "_h" + std::to_string(ht));
                    SCOPED_TRACE(base + " hostThreads=" +
                                 std::to_string(ht));
                    EXPECT_EQ(par.first, ref.first)
                        << "RunResult fingerprint diverged";
                    EXPECT_EQ(par.second, ref.second)
                        << "exported trace bytes diverged";
                }
            }
        }
    }
}

TEST(ParallelEngine, PartitionsClustersAndSchedulingBitIdentical)
{
    // The remaining tentpole axes: service partitions, a 2-cluster
    // fleet with cross-cluster routing, modeled contention (bandwidth,
    // bank occupancy, commit tokens) and the contention-aware
    // scheduler — all under host threads.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.tm.commitTokenArbitration = true;
    cfg.shards = 4;
    cfg.shardBandwidth = 1;
    cfg.memBanks = 4;
    cfg.memBankOccupancy = 8;
    cfg.servicePartitions = 4;
    cfg.contentionSched = true;
    auto ref = runApi(cfg, "svc_part_ref");
    for (unsigned ht : {2u, 4u}) {
        cfg.hostThreads = ht;
        auto par = runApi(cfg, "svc_part_h" + std::to_string(ht));
        SCOPED_TRACE("partitions hostThreads=" + std::to_string(ht));
        EXPECT_EQ(par.first, ref.first);
        EXPECT_EQ(par.second, ref.second);
    }

    api::RunConfig fcfg;
    fcfg.workload = "service";
    fcfg.nthreads = 4;
    fcfg.scale = 0.05;
    fcfg.tm = api::retconConfig();
    fcfg.shards = 2;
    fcfg.memBanks = 2;
    fcfg.clusters = 2;
    fcfg.crossClusterFraction = 0.1;
    auto fref = runApi(fcfg, "svc_fleet_ref");
    for (unsigned ht : {2u, 4u}) {
        fcfg.hostThreads = ht;
        auto fpar = runApi(fcfg, "svc_fleet_h" + std::to_string(ht));
        SCOPED_TRACE("fleet hostThreads=" + std::to_string(ht));
        EXPECT_EQ(fpar.first, fref.first);
        EXPECT_EQ(fpar.second, fref.second);
    }
}

TEST(ParallelEngine, HostParallelSummaryReportsEngineShape)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.shards = 4;

    api::RunResult seq = api::runOnce(cfg);
    EXPECT_EQ(seq.hostParallel.threads, 1u);
    EXPECT_EQ(seq.hostParallel.barrierStalls, 0u);
    EXPECT_GT(seq.hostParallel.wallMs, 0.0);

    cfg.hostThreads = 4;
    api::RunResult par = api::runOnce(cfg);
    EXPECT_EQ(par.hostParallel.threads, 4u);
    EXPECT_GT(par.hostParallel.wallMs, 0.0);
    // Host metadata must not leak into simulated results.
    EXPECT_EQ(par.cycles, seq.cycles);

    // hostThreads beyond the shard count clamps to one worker per
    // shard group.
    cfg.hostThreads = 16;
    api::RunResult clamped = api::runOnce(cfg);
    EXPECT_EQ(clamped.hostParallel.threads, 4u);
    EXPECT_EQ(clamped.cycles, seq.cycles);
}

// ---------------------------------------------------------------------
// Repeated-run flakiness harness (ctest: test_parallel_determinism)
// ---------------------------------------------------------------------

TEST(ParallelDeterminism, RepeatedRunsIdentical)
{
    // One lucky run hides a real race; twenty runs of the same config
    // on 4 host threads do not. Fingerprints AND trace bytes must all
    // be identical.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.shards = 4;
    cfg.memBanks = 4;
    cfg.hostThreads = 4;
    auto first = runApi(cfg, "det_0");
    for (int i = 1; i < 20; ++i) {
        auto rep = runApi(cfg, "det_" + std::to_string(i));
        ASSERT_EQ(rep.first, first.first) << "run " << i;
        ASSERT_EQ(rep.second, first.second) << "run " << i;
    }
}

TEST(ParallelDeterminism, RepeatedCounterRunsIdentical)
{
    CounterRun first = runCounter(4, 4, /*bandwidth=*/1);
    for (int i = 1; i < 20; ++i) {
        CounterRun rep = runCounter(4, 4, /*bandwidth=*/1);
        ASSERT_EQ(rep.cycles, first.cycles) << "run " << i;
        ASSERT_EQ(rep.trace, first.trace) << "run " << i;
        ASSERT_EQ(rep.report.mismatches, 0u) << "run " << i;
    }
}
