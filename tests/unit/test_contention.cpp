/**
 * @file
 * Tests for the PR-5 conflict-time knobs: partitioned service state
 * (WorkloadParams::servicePartitions), NACK/abort retry backoff
 * (htm::BackoffConfig), and contention-aware re-dispatch
 * (exec/scheduler.hpp).
 *
 * The contract under test is three-sided:
 *  - conservation: the service workload's validation holds at every
 *    partitions x shards x banks point (the invariant is a sum, so
 *    it is interleaving-independent by construction);
 *  - determinism: backoff jitter comes from per-core streams seeded
 *    by RunConfig::seed, so the same seed must reproduce a run
 *    bit-for-bit, and all-knobs-off must reproduce the pre-PR-5
 *    behaviour bit-for-bit;
 *  - auditability: the knobs change timing only, so the reenactment
 *    oracle must stay green (and catch injected corruption) with
 *    every knob engaged.
 */

#include <gtest/gtest.h>

#include "api/metrics.hpp"
#include "exec/cluster.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

/** Service run under RETCON with audit on. */
api::RunConfig
serviceConfig(unsigned partitions, unsigned shards, unsigned banks)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.shards = shards;
    cfg.memBanks = banks;
    cfg.servicePartitions = partitions;
    cfg.trace.enabled = true;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Partitioned service conservation across the full knob grid
// ---------------------------------------------------------------------

TEST(Contention, PartitionedServiceConservesAcrossPartitionsShardsBanks)
{
    for (unsigned parts : {1u, 2u, 8u}) {
        for (unsigned shards : {1u, 4u}) {
            for (unsigned banks : {1u, 4u}) {
                api::RunConfig cfg = serviceConfig(parts, shards, banks);
                api::RunResult r = api::runOnce(cfg);
                EXPECT_TRUE(r.validation.ok)
                    << parts << " partitions, " << shards << " shards, "
                    << banks << " banks: " << r.validation.note;
                EXPECT_TRUE(r.reenact.ok())
                    << parts << "p/" << shards << "s/" << banks
                    << "b: " << r.reenact.summary();
                EXPECT_GT(r.reenact.commitsChecked, 0u);
            }
        }
    }
}

TEST(Contention, PartitioningChangesTimingButNotRequestTotals)
{
    api::RunResult mono = api::runOnce(serviceConfig(1, 1, 1));
    api::RunResult part = api::runOnce(serviceConfig(8, 1, 1));
    // Same request stream (partition selection draws no randomness),
    // so the committed transaction count is identical; only the
    // conflict structure — and therefore timing — may differ.
    EXPECT_EQ(part.coreStats.commits, mono.coreStats.commits);
    EXPECT_TRUE(part.validation.ok) << part.validation.note;
}

// ---------------------------------------------------------------------
// All-knobs-off bit-identity and backoff determinism
// ---------------------------------------------------------------------

TEST(Contention, AllKnobsOffIsBitIdenticalToDefaults)
{
    api::RunConfig plain = serviceConfig(1, 1, 1);
    api::RunConfig knobs = plain;
    knobs.servicePartitions = 1;
    knobs.tm.backoff.policy = htm::BackoffPolicy::None;
    knobs.contentionSched = false;
    api::RunResult a = api::runOnce(plain);
    api::RunResult b = api::runOnce(knobs);
    EXPECT_EQ(api::fingerprint(a), api::fingerprint(b))
        << "first difference: " << api::firstDifference(a, b);
    EXPECT_EQ(a.machineStats.backoffCycles, 0u);
}

TEST(Contention, BackoffSameSeedSameResult)
{
    for (htm::BackoffPolicy pol :
         {htm::BackoffPolicy::Linear, htm::BackoffPolicy::ExpCapped}) {
        api::RunConfig cfg = serviceConfig(2, 4, 4);
        cfg.tm.backoff.policy = pol;
        cfg.seed = 7;
        api::RunResult a = api::runOnce(cfg);
        api::RunResult b = api::runOnce(cfg);
        EXPECT_EQ(api::fingerprint(a), api::fingerprint(b))
            << "policy " << htm::backoffPolicyName(pol)
            << " is not deterministic for a fixed seed: first "
               "difference "
            << api::firstDifference(a, b);
    }
}

TEST(Contention, BackoffPoliciesImposeDelayAndStayValid)
{
    for (htm::BackoffPolicy pol :
         {htm::BackoffPolicy::Linear, htm::BackoffPolicy::ExpCapped}) {
        api::RunConfig cfg = serviceConfig(1, 1, 1);
        cfg.tm.backoff.policy = pol;
        api::RunResult r = api::runOnce(cfg);
        EXPECT_TRUE(r.validation.ok)
            << htm::backoffPolicyName(pol) << ": " << r.validation.note;
        EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
        EXPECT_GT(r.machineStats.backoffNacks +
                      r.machineStats.backoffRestarts,
                  0u)
            << htm::backoffPolicyName(pol) << " never backed off";
        EXPECT_GT(r.machineStats.backoffCycles, 0u);
    }
}

TEST(Contention, BackoffSeedChangesJitterSchedule)
{
    // Different run seeds must (a) still validate and (b) feed
    // different jitter streams. Equal makespans for two seeds are
    // possible in principle, so assert only on validity plus the
    // backoff totals of a contended run actually responding to the
    // seed somewhere in a small sample.
    api::RunConfig cfg = serviceConfig(1, 1, 1);
    cfg.tm.backoff.policy = htm::BackoffPolicy::ExpCapped;
    bool any_difference = false;
    std::uint64_t first = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        cfg.seed = seed;
        api::RunResult r = api::runOnce(cfg);
        EXPECT_TRUE(r.validation.ok) << r.validation.note;
        if (seed == 1)
            first = r.machineStats.backoffCycles;
        else if (r.machineStats.backoffCycles != first)
            any_difference = true;
    }
    EXPECT_TRUE(any_difference)
        << "three seeds produced identical runs — jitter looks dead";
}

// ---------------------------------------------------------------------
// Contention-aware scheduling
// ---------------------------------------------------------------------

TEST(Contention, SchedulerEngagedStaysAuditCleanAndDefers)
{
    // Eager mode on the contended service mix aborts plenty, so the
    // hot-block tables heat up and deferrals actually fire; the
    // reenactment oracle must stay green throughout.
    api::RunConfig cfg = serviceConfig(1, 4, 4);
    cfg.tm = api::eagerConfig();
    cfg.contentionSched = true;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << r.validation.note;
    EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
    EXPECT_GT(api::metric(r, "exec.sched_observed"), 0)
        << "no contention events reached the tables";
    EXPECT_GT(api::metric(r, "exec.sched_defers"), 0)
        << "scheduler never deferred a restart";
    EXPECT_GT(api::metric(r, "exec.sched_defer_cycles"), 0);
}

TEST(Contention, SchedulerOffReportsZeroDefers)
{
    api::RunConfig cfg = serviceConfig(1, 4, 4);
    cfg.tm = api::eagerConfig();
    api::RunResult r = api::runOnce(cfg);
    EXPECT_EQ(api::metric(r, "exec.sched_observed"), 0);
    EXPECT_EQ(api::metric(r, "exec.sched_defers"), 0);
    EXPECT_EQ(api::metric(r, "exec.sched_defer_cycles"), 0);
}

TEST(Contention, SchedulerEngagedCatchesCorruptedRepair)
{
    // The negative control must survive the new timing: a fault-
    // injected repair still shows up as an audit mismatch with the
    // scheduler and backoff both engaged.
    api::RunConfig cfg = serviceConfig(2, 4, 4);
    cfg.contentionSched = true;
    cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
    cfg.tm.faultInjectRepairXor = 0x20;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_GT(r.reenact.mismatches, 0u)
        << "corrupted repairs escaped the audit under the new knobs";
}

TEST(Contention, FullKnobStackMatchesTheBenchGateShape)
{
    // The service_scalability scaled point in miniature: partitions +
    // backoff + scheduler + modeled contention all on. Everything
    // must validate, audit clean, and record knob activity.
    api::RunConfig cfg = serviceConfig(4, 4, 4);
    cfg.shardBandwidth = 1;
    cfg.memBankOccupancy = 8;
    cfg.tm.commitTokenArbitration = true;
    cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
    cfg.tm.backoff.base = 1;
    cfg.tm.backoff.cap = 16;
    cfg.contentionSched = true;
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << r.validation.note;
    EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
    EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u);
    EXPECT_GT(r.machineStats.backoffCycles, 0u);
}
