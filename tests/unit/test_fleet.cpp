/**
 * @file
 * Tests for the fleet layer (exec::Fleet + src/net/): the topology
 * partition and interconnect model in isolation, bit-identity of a
 * 1-cluster fleet with the plain machine regardless of net knobs,
 * same-seed determinism at clusters in {2, 4}, conservation plus an
 * audit-clean merged provenance stream on a cross-routed 2-cluster
 * service run, and the reenactment oracle catching corrupted repairs
 * and forwards whose conflicts span a cluster boundary.
 */

#include <gtest/gtest.h>

#include "api/metrics.hpp"
#include "exec/fleet.hpp"
#include "net/interconnect.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

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

/** The ISSUE's fleet scale-out point: 2 x (2 shards x 2 banks). */
api::RunConfig
fleetServiceConfig()
{
    api::RunConfig cfg = serviceConfig();
    cfg.nthreads = 4; // Per cluster; 8 fleet-wide.
    cfg.clusters = 2;
    cfg.shards = 2;
    cfg.memBanks = 2;
    cfg.memBankOccupancy = 8;
    cfg.tm.commitTokenArbitration = true;
    cfg.crossClusterFraction = 0.3;
    return cfg;
}

/** Commits on cluster @p c's shards (shards are cluster-contiguous). */
std::uint64_t
clusterCommits(const api::RunResult &r, unsigned clusters, unsigned c)
{
    std::size_t per = r.shards.size() / clusters;
    std::uint64_t n = 0;
    for (std::size_t s = c * per; s < (c + 1) * per; ++s)
        n += r.shards[s].commits;
    return n;
}

// Two contended counters, one homed in each cluster's heap region:
// every transaction increments both, so every commit needs tokens from
// both clusters' bank slices and every conflict can span the wire.
const Addr kCtrHome = net::FleetTopology::regionBase(0) + 0x40;
const Addr kCtrAway = net::FleetTopology::regionBase(1) + 0x40;
constexpr int kIters = 25;

Task<TxValue>
incrementBoth(Tx &tx)
{
    TxValue a = co_await tx.load(kCtrHome);
    co_await tx.store(kCtrHome, tx.add(a, 1));
    TxValue b = co_await tx.load(kCtrAway);
    co_await tx.store(kCtrAway, tx.add(b, 1));
    co_return b;
}

Task<void>
fleetThreadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kIters; ++i) {
        co_await ctx.txn([](Tx &tx) { return incrementBoth(tx); });
        co_await ctx.work(20);
    }
    co_await ctx.barrier();
}

/**
 * Contended-counter run on a 2-cluster fleet (2 x (4 cores, 2 shards,
 * 2 banks)) with contention modeling and the reenactment oracle on the
 * merged stream. The synthetic body only adds, so fault-injected
 * (corrupted) values can never feed an address computation or divisor
 * — the standard negative-control harness (cf. test_mem_banks), here
 * with every transaction's footprint straddling the cluster boundary.
 */
trace::ReenactReport
runFleetCounter(htm::TMMode mode, Word repair_xor, Word fwd_xor)
{
    ClusterConfig cfg;
    cfg.numThreads = 4; // Per cluster; the fleet doubles this.
    cfg.numShards = 2;
    cfg.memBanks = 2;
    cfg.timing.bankOccupancy = 8;
    cfg.tm.mode = mode;
    cfg.tm.commitTokenArbitration = true;
    cfg.tm.faultInjectRepairXor = repair_xor;
    cfg.tm.faultInjectForwardXor = fwd_xor;
    Fleet fleet(cfg, 2);
    Cluster &cluster = fleet.cluster();
    cluster.machine().predictor().observeConflict(blockAddr(kCtrHome));
    cluster.machine().predictor().observeConflict(blockAddr(kCtrAway));

    trace::ShardMux mux(
        cluster.numShards(),
        [&cluster](CoreId c) { return cluster.shardOf(c); });
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    mux.addDownstream(&validator);
    cluster.setTraceSink(&mux);

    cluster.start([](WorkerCtx &ctx) { return fleetThreadMain(ctx); });
    cluster.run();

    // Every commit crossed the wire for the remote counter's token.
    EXPECT_GT(fleet.net()->totalMessages(), 0u);
    EXPECT_GT(cluster.machine().stats().xcTokenMsgs, 0u);

    // Injected faults corrupt committed state by design; only clean
    // runs must land the exact counts.
    if (repair_xor == 0 && fwd_xor == 0) {
        Word want = Word(cluster.numThreads()) * kIters;
        EXPECT_EQ(cluster.memory().readWord(kCtrHome), want);
        EXPECT_EQ(cluster.memory().readWord(kCtrAway), want);
    }
    return validator.report();
}

} // namespace

TEST(FleetTopology, MappingsPartitionTheMachine)
{
    net::FleetTopology t;
    t.clusters = 2;
    t.threadsPerCluster = 4;
    t.banksPerCluster = 2;
    EXPECT_TRUE(t.fleet());
    EXPECT_EQ(t.clusterOfCore(0), 0u);
    EXPECT_EQ(t.clusterOfCore(3), 0u);
    EXPECT_EQ(t.clusterOfCore(4), 1u);
    EXPECT_EQ(t.clusterOfBank(1), 0u);
    EXPECT_EQ(t.clusterOfBank(2), 1u);
    // Region-based address homing; scaffolding below the heap base and
    // anything past the last region home on cluster 0.
    EXPECT_EQ(t.clusterOfAddr(net::FleetTopology::regionBase(0)), 0u);
    EXPECT_EQ(t.clusterOfAddr(net::FleetTopology::regionBase(1)), 1u);
    EXPECT_EQ(t.clusterOfAddr(0x1000), 0u);
    EXPECT_EQ(t.clusterOfAddr(net::FleetTopology::regionBase(2)), 0u);

    // The degenerate descriptor is the single-cluster identity.
    net::FleetTopology one;
    EXPECT_FALSE(one.fleet());
    EXPECT_EQ(one.clusterOfCore(63), 0u);
    EXPECT_EQ(one.clusterOfAddr(net::FleetTopology::regionBase(3)), 0u);
}

TEST(Interconnect, CrossbarIsOneHopEachWay)
{
    net::NetConfig cfg;
    cfg.linkLatency = 50;
    net::Interconnect net(4, cfg);
    EXPECT_EQ(net.numLinks(), 12u);
    // Unlimited bandwidth: every pair is one hop, on a fresh
    // interconnect so no message queues behind another.
    for (unsigned s = 0; s < 4; ++s)
        for (unsigned d = 0; d < 4; ++d) {
            net::Interconnect fresh(4, cfg);
            EXPECT_EQ(fresh.deliver(s, d, net::kCtrlMsgWords, 0),
                      s == d ? 0u : 50u);
        }
    // A round trip is two hops with no queueing.
    EXPECT_EQ(net.deliver(0, 2, net::kDataMsgWords, 0), 50u);
    EXPECT_EQ(net.roundTrip(1, 3, net::kCtrlMsgWords,
                            net::kDataMsgWords, 0),
              100u);
    EXPECT_EQ(net.totalQueueCycles(), 0u);
    EXPECT_EQ(net.totalMessages(), 3u);
}

TEST(Interconnect, RingPaysPerHopAndTakesShortcut)
{
    net::NetConfig cfg;
    cfg.topology = net::Topology::Ring;
    cfg.linkLatency = 10;
    net::Interconnect net(4, cfg);
    EXPECT_EQ(net.numLinks(), 8u);
    // Unlimited bandwidth: deliver is hops x linkLatency. 0 -> 1 is
    // one hop clockwise, 0 -> 2 two (tie -> cw), 0 -> 3 one hop on
    // the counter-clockwise shortcut.
    const Cycle want[] = {0, 10, 20, 10};
    for (unsigned d = 1; d < 4; ++d) {
        net::Interconnect fresh(4, cfg);
        EXPECT_EQ(fresh.deliver(0, d, 2, 0), want[d]) << "0 -> " << d;
    }
    EXPECT_EQ(net.deliver(0, 2, 2, 0), 20u);
}

TEST(Interconnect, BandwidthQueuesBehindEarlierTraffic)
{
    net::NetConfig cfg;
    cfg.linkLatency = 50;
    cfg.linkBandwidth = 2; // kDataMsgWords = 2 + block -> drains > 1cy.
    net::Interconnect net(2, cfg);
    Cycle drain = (net::kDataMsgWords + 1) / 2;
    EXPECT_EQ(net.deliver(0, 1, net::kDataMsgWords, 0), 50u + drain);
    // Same cycle, same link: the second message waits the full drain.
    EXPECT_EQ(net.deliver(0, 1, net::kDataMsgWords, 0),
              50u + 2 * drain);
    EXPECT_EQ(net.totalQueueCycles(), drain);
    // The reverse link is independent — no queueing there.
    EXPECT_EQ(net.deliver(1, 0, net::kDataMsgWords, 0), 50u + drain);
}

TEST(Fleet, OneClusterIsBitIdenticalRegardlessOfNetKnobs)
{
    // A 1-cluster fleet builds no interconnect and must be invisible:
    // net knobs and the cross-cluster fraction cannot perturb results.
    api::RunConfig cfg = serviceConfig();
    cfg.shards = 2;
    cfg.memBanks = 2;
    api::RunResult base = api::runOnce(cfg);
    ASSERT_TRUE(base.validation.ok);
    EXPECT_EQ(base.net.messages, 0u);
    EXPECT_TRUE(base.net.links.empty());
    EXPECT_EQ(base.machineStats.xcTokenMsgs, 0u);

    api::RunConfig knobs = cfg;
    knobs.netTopology = "ring";
    knobs.netLatency = 500;
    knobs.netBandwidth = 1;
    knobs.crossClusterFraction = 0.9;
    api::RunResult got = api::runOnce(knobs);
    EXPECT_EQ(api::fingerprint(got), api::fingerprint(base))
        << "net knobs perturbed a 1-cluster run: first difference "
        << api::firstDifference(got, base);
}

TEST(Fleet, SameSeedSameResultAtTwoAndFourClusters)
{
    for (unsigned clusters : {2u, 4u}) {
        api::RunConfig cfg = fleetServiceConfig();
        cfg.clusters = clusters;
        cfg.nthreads = clusters == 4 ? 2 : 4; // Stay inside 64 cores.
        api::RunResult a = api::runOnce(cfg);
        api::RunResult b = api::runOnce(cfg);
        ASSERT_TRUE(a.validation.ok) << clusters << " clusters";
        EXPECT_EQ(api::fingerprint(a), api::fingerprint(b))
            << clusters << " clusters diverged across identical runs: "
            << "first difference " << api::firstDifference(a, b);
        for (unsigned c = 0; c < clusters; ++c) {
            EXPECT_EQ(clusterCommits(a, clusters, c),
                      clusterCommits(b, clusters, c));
            EXPECT_GT(clusterCommits(a, clusters, c), 0u)
                << "cluster " << c << " idle";
        }
    }
}

TEST(Fleet, CrossRoutedServiceIsConservedAndAuditClean)
{
    // The ISSUE's acceptance point: 2 x (2 shards x 2 banks) service
    // run with cross-cluster routing, full contention modeling, and
    // the merged provenance stream audited. Conservation (workload
    // validation) must hold fleet-wide, the reenactment must re-derive
    // every repaired commit with zero skips, and the run must actually
    // exercise the wire and the two-level commit protocol.
    api::RunConfig cfg = fleetServiceConfig();
    // Hot enough that some commit loses a remote bank token to an
    // older holder (the xcTokenWaits assertion below is vacuous at
    // the smaller determinism-test point).
    cfg.nthreads = 8;
    cfg.scale = 0.2;
    cfg.crossClusterFraction = 0.5;
    cfg.trace.enabled = true;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << r.validation.note;
    EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
    EXPECT_GT(r.reenact.commitsChecked, 0u);
    EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u);

    // The wire saw traffic and hot links are accounted per direction.
    EXPECT_GT(r.net.messages, 0u);
    EXPECT_GT(r.net.payloadWords, 0u);
    ASSERT_EQ(r.net.links.size(), 2u);
    for (const api::NetLinkSummary &l : r.net.links)
        EXPECT_GT(l.messages, 0u)
            << "link " << l.src << "->" << l.dst << " idle";

    // Two-level commit engaged: remote clusters were contacted for
    // tokens, and some acquisitions lost to an older remote holder.
    EXPECT_GT(r.machineStats.xcTokenMsgs, 0u);
    EXPECT_GT(r.machineStats.xcTokenCycles, 0u);
    EXPECT_GT(r.machineStats.xcTokenWaits, 0u);

    // Both clusters carried load.
    for (unsigned c = 0; c < 2; ++c)
        EXPECT_GT(clusterCommits(r, 2, c), 0u) << "cluster " << c;
}

TEST(Fleet, DatmChainsValidateAcrossClusters)
{
    // DATM forwarding chains must re-derive with zero skips when the
    // conflicting transactions live in different clusters.
    api::RunConfig cfg = fleetServiceConfig();
    cfg.tm.mode = htm::TMMode::DATM;
    cfg.scale = 0.2;
    cfg.trace.enabled = true;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << r.validation.note;
    EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
    EXPECT_GT(r.reenact.forwardedCommitsChecked, 0u)
        << "vacuous: no forwarding chains re-derived";
    EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u);
    EXPECT_GT(r.net.messages, 0u);
}

TEST(Fleet, CleanCounterReenactsAcrossTheBoundary)
{
    // Positive control for the negative controls below.
    trace::ReenactReport r = runFleetCounter(htm::TMMode::Retcon, 0, 0);
    EXPECT_EQ(r.mismatches, 0u) << r.summary();
    EXPECT_GT(r.repairsChecked, 0u) << "vacuous: no repairs audited";
}

TEST(Fleet, FaultInjectedRepairCaughtAcrossTheBoundary)
{
    // Negative control: a corrupted commit-time repair must be flagged
    // when the repaired conflict spans the cluster boundary.
    trace::ReenactReport r =
        runFleetCounter(htm::TMMode::Retcon, 0x4, 0);
    EXPECT_GT(r.mismatches, 0u)
        << "corrupted repairs escaped the audit across clusters";
}

TEST(Fleet, FaultInjectedForwardCaughtAcrossTheBoundary)
{
    trace::ReenactReport r = runFleetCounter(htm::TMMode::DATM, 0, 0x10);
    EXPECT_GT(r.mismatches, 0u)
        << "corrupted forwards escaped the audit across clusters";
}
