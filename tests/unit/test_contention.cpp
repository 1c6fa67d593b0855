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

#include "api/runner.hpp"
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

struct Fingerprint {
    Cycle cycles;
    std::uint64_t commits;
    std::uint64_t aborts;
    std::uint64_t nacks;
    std::uint64_t backoffCycles;

    bool
    operator==(const Fingerprint &o) const
    {
        return cycles == o.cycles && commits == o.commits &&
               aborts == o.aborts && nacks == o.nacks &&
               backoffCycles == o.backoffCycles;
    }
};

Fingerprint
fingerprint(const api::RunResult &r)
{
    return {r.cycles, r.coreStats.commits, r.coreStats.aborts,
            r.machineStats.nacks, r.machineStats.backoffCycles};
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
    Fingerprint a = fingerprint(api::runOnce(plain));
    Fingerprint b = fingerprint(api::runOnce(knobs));
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.backoffCycles, 0u);
}

TEST(Contention, BackoffSameSeedSameResult)
{
    for (htm::BackoffPolicy pol :
         {htm::BackoffPolicy::Linear, htm::BackoffPolicy::ExpCapped,
          htm::BackoffPolicy::ConflictProportional}) {
        api::RunConfig cfg = serviceConfig(2, 4, 4);
        cfg.tm.backoff.policy = pol;
        cfg.tm.backoff.jitter = true;
        cfg.seed = 7;
        Fingerprint a = fingerprint(api::runOnce(cfg));
        Fingerprint b = fingerprint(api::runOnce(cfg));
        EXPECT_TRUE(a == b)
            << "policy " << htm::backoffPolicyName(pol)
            << " is not deterministic for a fixed seed";
    }
}

TEST(Contention, BackoffPoliciesImposeDelayAndStayValid)
{
    for (htm::BackoffPolicy pol :
         {htm::BackoffPolicy::Linear, htm::BackoffPolicy::ExpCapped,
          htm::BackoffPolicy::ConflictProportional}) {
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
    Fingerprint first{};
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        cfg.seed = seed;
        api::RunResult r = api::runOnce(cfg);
        EXPECT_TRUE(r.validation.ok) << r.validation.note;
        Fingerprint f = fingerprint(r);
        if (seed == 1)
            first = f;
        else if (!(f == first))
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
    std::uint64_t observed = 0, defers = 0, defer_cycles = 0;
    for (const api::ShardSummary &s : r.shards) {
        observed += s.schedObserved;
        defers += s.schedDefers;
        defer_cycles += s.schedDeferCycles;
    }
    EXPECT_GT(observed, 0u) << "no contention events reached the tables";
    EXPECT_GT(defers, 0u) << "scheduler never deferred a restart";
    EXPECT_GT(defer_cycles, 0u);
}

TEST(Contention, SchedulerOffReportsZeroDefers)
{
    api::RunConfig cfg = serviceConfig(1, 4, 4);
    cfg.tm = api::eagerConfig();
    api::RunResult r = api::runOnce(cfg);
    for (const api::ShardSummary &s : r.shards) {
        EXPECT_EQ(s.schedObserved, 0u);
        EXPECT_EQ(s.schedDefers, 0u);
        EXPECT_EQ(s.schedDeferCycles, 0u);
    }
}

TEST(Contention, RepairableBlameSkipDropsDefersOnServiceMix)
{
    // skipRepairableBlame: a restart whose last abort blamed a
    // tracked (repairable-class) block needs no de-phasing — RETCON's
    // pre-commit repair absorbs that conflict — so waiving those
    // deferrals must record skips, lower the defer count, and cost
    // nothing in validity or audit cleanliness.
    api::RunConfig base = serviceConfig(1, 4, 4);
    base.contentionSched = true;
    api::RunResult defer = api::runOnce(base);

    api::RunConfig waive = base;
    waive.sched.skipRepairableBlame = true;
    api::RunResult skip = api::runOnce(waive);

    std::uint64_t defers = 0, skips = 0;
    for (const api::ShardSummary &s : defer.shards) {
        defers += s.schedDefers;
        EXPECT_EQ(s.schedRepairableSkips, 0u) << "skips without knob";
    }
    std::uint64_t skipDefers = 0;
    for (const api::ShardSummary &s : skip.shards) {
        skipDefers += s.schedDefers;
        skips += s.schedRepairableSkips;
    }
    EXPECT_GT(defers, 0u) << "vacuous: scheduler never deferred";
    EXPECT_GT(skips, 0u) << "no repairable-class blame was waived";
    EXPECT_LT(skipDefers, defers)
        << "waiving repairable blame did not drop deferrals";
    EXPECT_TRUE(skip.validation.ok) << skip.validation.note;
    EXPECT_TRUE(skip.reenact.ok()) << skip.reenact.summary();
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
