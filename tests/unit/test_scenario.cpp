/**
 * @file
 * Scenario registry + differential scenario-grid suite.
 *
 * Every registered scenario must behave like any other run under the
 * repo's core contracts: bit-identical results across shard counts,
 * audit-clean under the reenactment oracle (zero skipped
 * DATM forwarding chains), and a conserving arrival ledger
 * (injected == completed + dropped). The suite also pins the DATM
 * support envelope table (api/datm_envelope.hpp) and proves the
 * widened points really run audited, and keeps the audit honest with a
 * fault-injection negative control under the burstiest scenario.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "api/datm_envelope.hpp"
#include "api/metrics.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"

using namespace retcon;

namespace {

/** Quick-sized audited service run of @p scenarioName. */
api::RunConfig
scenarioConfig(const std::string &scenarioName)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.scenario = scenarioName;
    cfg.scale = 0.05;
    cfg.nthreads = 4;
    cfg.tm = api::retconConfig();
    cfg.trace.enabled = true;
    return cfg;
}

api::RunResult
runClean(const api::RunConfig &cfg, const std::string &tag)
{
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << tag << ": " << r.validation.note;
    EXPECT_EQ(r.reenact.mismatches, 0u)
        << tag << ": " << r.reenact.summary();
    EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u) << tag;
    return r;
}

} // namespace

TEST(ScenarioRegistry, EnumerationRoundTripAndUniqueness)
{
    const auto &table = scenario::registry();
    ASSERT_GE(table.size(), 8u);
    std::set<std::string> names;
    for (const scenario::Scenario &s : table) {
        ASSERT_NE(s.name, nullptr);
        ASSERT_NE(s.description, nullptr);
        EXPECT_FALSE(std::string(s.name).empty());
        EXPECT_FALSE(std::string(s.description).empty());
        ASSERT_NE(s.setup, nullptr) << s.name;
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate scenario name " << s.name;
        EXPECT_EQ(scenario::scenarioByName(s.name), &s) << s.name;
    }
    EXPECT_EQ(scenario::scenarioByName("no-such-scenario"), nullptr);
    EXPECT_EQ(scenario::scenarioByName(""), nullptr);
}

TEST(ScenarioRegistry, PlansAreDeterministicInTheSeed)
{
    scenario::Env env;
    env.seed = 42;
    env.scale = 0.25;
    env.nthreads = 8;
    for (const scenario::Scenario &s : scenario::registry()) {
        scenario::Plan a, b;
        s.setup(a, env);
        s.setup(b, env);
        EXPECT_EQ(a.arrival.kind, b.arrival.kind) << s.name;
        EXPECT_EQ(a.arrival.period, b.arrival.period) << s.name;
        EXPECT_EQ(a.fault.stallOffset, b.fault.stallOffset) << s.name;
        EXPECT_EQ(a.fault.bankOffset, b.fault.bankOffset) << s.name;
    }
}

/**
 * The tentpole contract: for every registered scenario, the simulated
 * outcome — cycles, validation, audit counters, and the scenario
 * ledger itself — is bit-identical across shard counts {1, 4}, and
 * both variants are audit-clean.
 */
TEST(ScenarioGrid, BitIdenticalAcrossShards)
{
    for (const scenario::Scenario &s : scenario::registry()) {
        api::RunConfig base = scenarioConfig(s.name);
        api::RunResult ref = runClean(base, s.name);
        api::RunConfig cfg = base;
        cfg.shards = 4;
        std::string tag = std::string(s.name) + " shards 4";
        api::RunResult got = runClean(cfg, tag);
        EXPECT_EQ(api::fingerprint(got), api::fingerprint(ref))
            << tag << " diverged from shards 1: first difference "
            << api::firstDifference(got, ref);
    }
}

/** Arrival ledgers conserve, and each family's mechanism engages. */
TEST(ScenarioGrid, ArrivalConservationAndEngagement)
{
    for (const scenario::Scenario &s : scenario::registry()) {
        api::RunConfig cfg = scenarioConfig(s.name);
        api::RunResult r = runClean(cfg, s.name);
        const api::ScenarioSummary &sum = r.scenario;
        EXPECT_EQ(sum.name, s.name);

        scenario::Env env;
        env.seed = cfg.seed;
        env.scale = 0.05;
        env.nthreads = 4;
        scenario::Plan plan;
        s.setup(plan, env);

        EXPECT_EQ(sum.openLoop, plan.arrival.open()) << s.name;
        if (plan.arrival.open()) {
            EXPECT_GT(sum.injected, 0u) << s.name;
            EXPECT_EQ(sum.injected, sum.completed + sum.dropped)
                << s.name << ": arrival ledger does not conserve";
        } else {
            EXPECT_EQ(sum.injected, 0u) << s.name;
        }
        if (plan.shift.phases > 1) {
            EXPECT_GT(sum.phaseMarks, 0u) << s.name;
        }
        if (plan.fault.coreStall) {
            EXPECT_GT(sum.stallHits, 0u) << s.name;
            EXPECT_GT(sum.stallCycles, 0u) << s.name;
        }
        if (plan.fault.bankSlow) {
            EXPECT_GT(sum.bankFaultStalls, 0u) << s.name;
            EXPECT_GT(sum.bankFaultCycles, 0u) << s.name;
        }
    }
}

/** The burstiest source must actually overload its backlog bound. */
TEST(ScenarioGrid, BurstyTailDropsOccur)
{
    api::RunResult r =
        runClean(scenarioConfig("bursty-onoff"), "bursty-onoff");
    EXPECT_GT(r.scenario.dropped, 0u)
        << "bursty-onoff never overloaded the backlog bound — the "
           "drop path is untested";
    EXPECT_GT(r.scenario.peakBacklog, 1u);
    EXPECT_GT(r.scenario.latencyMax, 0u);
}

/** Every scenario also runs audit-clean under DATM (forwarding on). */
TEST(ScenarioGrid, DatmAuditCleanForEveryScenario)
{
    for (const scenario::Scenario &s : scenario::registry()) {
        api::RunConfig cfg = scenarioConfig(s.name);
        cfg.tm = api::eagerConfig();
        cfg.tm.mode = htm::TMMode::DATM;
        runClean(cfg, std::string("datm ") + s.name);
    }
}

/**
 * Negative control: the grid's "audit-clean" verdict must be capable
 * of failing. Corrupt commit-time repairs under the burstiest
 * scenario and require the reenactment oracle to flag mismatches.
 */
TEST(ScenarioGrid, FaultInjectionNegativeControl)
{
    api::RunConfig cfg = scenarioConfig("bursty-onoff");
    cfg.tm.faultInjectRepairXor = 0x5a5a;
    api::RunResult r = api::runOnce(cfg);
    ASSERT_GT(r.reenact.repairsChecked, 0u)
        << "no repairs happened; the control is vacuous";
    EXPECT_GT(r.reenact.mismatches, 0u)
        << "corrupted repairs sailed through the audit";
}

/** link-degrade is inert at one cluster, engaged on a fleet. */
TEST(ScenarioGrid, LinkDegradeEngagesOnAFleet)
{
    api::RunResult solo =
        runClean(scenarioConfig("link-degrade"), "link-degrade@1");
    EXPECT_EQ(solo.scenario.linkFaultMessages, 0u);

    api::RunConfig cfg = scenarioConfig("link-degrade");
    cfg.clusters = 2;
    cfg.crossClusterFraction = 0.25;
    cfg.tm.commitTokenArbitration = true;
    api::RunResult fleet = runClean(cfg, "link-degrade@2");
    EXPECT_GT(fleet.scenario.linkFaultMessages, 0u)
        << "degraded link never touched a message";
    EXPECT_GT(fleet.scenario.linkFaultCycles, 0u);
}

/** The envelope table itself: pinned so it cannot drift silently. */
TEST(DatmEnvelope, TableIsPinned)
{
    const auto &rows = api::datmEnvelope();
    ASSERT_EQ(rows.size(), 4u);
    for (const api::DatmEnvelopeEntry &e : rows)
        EXPECT_FALSE(std::string(e.reason).empty()) << e.workload;

    EXPECT_FALSE(api::datmSupported("python", 0.01, 1));
    EXPECT_FALSE(api::datmSupported("python_opt", 0.01, 1));
    EXPECT_TRUE(api::datmSupported("intruder", 0.25, 1));
    EXPECT_FALSE(api::datmSupported("intruder", 0.3, 1));
    EXPECT_FALSE(api::datmSupported("intruder", 0.1, 2));
    EXPECT_TRUE(api::datmSupported("yada", 0.1, 1));
    EXPECT_FALSE(api::datmSupported("yada", 0.2, 1));
    EXPECT_TRUE(api::datmSupported("service", 0.75, 1));
    EXPECT_FALSE(api::datmSupported("service", 0.8, 1));
    EXPECT_TRUE(api::datmSupported("service", 0.5, 2))
        << "service is fleet-supported inside its scale bound";
    // Unlisted workloads are fully supported.
    EXPECT_TRUE(api::datmSupported("genome", 1.0, 4));
    EXPECT_TRUE(api::datmSupported("kmeans", 1.0, 1));
}

/** DATM runs get the widened arena; every other mode the default. */
TEST(DatmEnvelope, ArenaSizingIsPerMode)
{
    EXPECT_EQ(api::arenaBytesFor(htm::TMMode::Retcon, 8), 0u);
    EXPECT_EQ(api::arenaBytesFor(htm::TMMode::Eager, 8), 0u);
    Addr datm = api::arenaBytesFor(htm::TMMode::DATM, 8);
    EXPECT_GT(datm, workloads::kDefaultArenaBytes);
    EXPECT_EQ(datm % kBlockBytes, 0u);
    // The clamp holds at the core-count ceiling too.
    Addr wide = api::arenaBytesFor(htm::TMMode::DATM, 64);
    EXPECT_GT(wide, 0u);
    EXPECT_LE(static_cast<std::uint64_t>(wide) * 65,
              static_cast<std::uint64_t>(net::kClusterRegionBytes));
}

/**
 * Regression for the widening itself: points the old hard-coded probe
 * rejected (intruder beyond 0.1, service beyond 0.5) now complete and
 * audit clean under the automatic mitigations.
 */
TEST(DatmEnvelope, PreviouslyUnsupportedPointsRunAudited)
{
    {
        api::RunConfig cfg;
        cfg.workload = "intruder";
        cfg.scale = 0.2; // Old bound: 0.1.
        cfg.nthreads = 4;
        cfg.tm = api::eagerConfig();
        cfg.tm.mode = htm::TMMode::DATM;
        cfg.trace.enabled = true;
        ASSERT_TRUE(api::datmSupported(cfg.workload, cfg.scale, 1));
        api::RunResult r = runClean(cfg, "intruder datm 0.2");
        EXPECT_GT(r.reenact.forwardedCommitsChecked, 0u);
    }
    {
        api::RunConfig cfg;
        cfg.workload = "service";
        cfg.scale = 0.6; // Old bound: 0.5.
        cfg.nthreads = 4;
        cfg.tm = api::eagerConfig();
        cfg.tm.mode = htm::TMMode::DATM;
        cfg.trace.enabled = true;
        ASSERT_TRUE(api::datmSupported(cfg.workload, cfg.scale, 1));
        runClean(cfg, "service datm 0.6");
    }
}
