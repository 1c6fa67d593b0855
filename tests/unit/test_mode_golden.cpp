/**
 * @file
 * Cross-commit determinism per TM mode: every mode of the machine runs
 * the `service` workload (8 threads, scale 0.1, seed 1) plain and with
 * the sharded/banked/arbitrated/backoff knobs, plus one fleet point,
 * three RETCON points at a dispatch bandwidth of 1 event per
 * shard-cycle (one shard and four shards without stealing, where
 * over-quota wakes queue in their shard's backlog and slip, and four
 * shards where idle shards steal) and the §5.3 idealized RETCON, and must
 * reproduce pinned simulated results exactly, event-kernel counters
 * included.
 *
 * The literals are the values of the current machine. A refactor of
 * htm::TMMachine that claims "no behaviour change" must leave every
 * one of them untouched; a deliberate behaviour change re-pins them
 * and says why in CHANGES.md. Each row also asserts that its own
 * mechanism ran (a vacuous row would pin nothing) and that the run is
 * valid and fully re-derived by the reenactment audit.
 */

#include <gtest/gtest.h>

#include "api/metrics.hpp"
#include "api/runner.hpp"

using namespace retcon;
using htm::TMMode;

namespace {

enum class Knobs {
    Plain,  ///< One shard, one bank, no arbitration, no backoff.
    Banked, ///< 4 shards, 4 banks, commit-token arbitration, exp backoff.
    Fleet,  ///< 2 clusters of 2 shards x 2 banks, 25% cross-cluster.
    Slip,   ///< 1 shard dispatching 1 event/cycle: slips.
    Steal,  ///< 4 shards dispatching 1 event/cycle each: steals.
    Slip4,  ///< 4 shards dispatching 1 event/cycle each, no stealing:
            ///< slips on every shard.
    Ideal,  ///< §5.3 idealized RETCON (unbounded state, free commit).
};

struct GoldenRow {
    const char *label;
    TMMode mode;
    Knobs knobs;
    /** Metric that must be > 0: the row's own mechanism ran. */
    const char *path;
    double cycles;
    double commits;
    double aborts;
    double nacks;
    double fwdReads;
    double tokenSteals;
    double events;
    double slipped;
    double stolen;
};

const GoldenRow kRows[] = {
    // label, mode, knobs, path,
    // cycles, commits, aborts, nacks, fwdReads, tokenSteals,
    // events, slipped, stolen
    {"serial", TMMode::Serial, Knobs::Plain, "exec.conflict_cycles",
     67681, 160, 0, 0, 0, 0, 19648, 0, 0},
    {"serial+banked", TMMode::Serial, Knobs::Banked, "htm.backoff_cycles",
     67638, 160, 0, 0, 0, 0, 10440, 0, 0},
    {"eager", TMMode::Eager, Knobs::Plain, "htm.nacks",
     31136, 160, 417, 3312, 0, 0, 12175, 0, 0},
    {"eager+banked", TMMode::Eager, Knobs::Banked, "htm.token_acquires",
     30447, 160, 419, 1795, 0, 0, 11083, 0, 0},
    {"lazy", TMMode::Lazy, Knobs::Plain, "reenact.repairs_checked",
     33861, 160, 433, 0, 0, 0, 22666, 0, 0},
    {"lazy+banked", TMMode::Lazy, Knobs::Banked, "htm.backoff_cycles",
     35303, 160, 422, 0, 0, 0, 21211, 0, 0},
    {"lazy-vb", TMMode::LazyVB, Knobs::Plain, "htm.lazy_value_mismatch",
     31874, 160, 286, 3097, 0, 0, 12007, 0, 0},
    {"lazy-vb+banked", TMMode::LazyVB, Knobs::Banked, "htm.token_acquires",
     31899, 160, 333, 1641, 0, 0, 11121, 0, 0},
    {"retcon", TMMode::Retcon, Knobs::Plain, "reenact.repairs_checked",
     28864, 160, 235, 3034, 0, 0, 11010, 0, 0},
    {"retcon+banked", TMMode::Retcon, Knobs::Banked, "htm.token_steals",
     29511, 160, 222, 1627, 0, 30, 9582, 0, 0},
    {"datm", TMMode::DATM, Knobs::Plain, "htm.cascade_bp_restarts",
     56400, 160, 322, 0, 61, 0, 10970, 0, 0},
    {"datm+banked", TMMode::DATM, Knobs::Banked, "htm.cascade_bp_restarts",
     48760, 160, 279, 0, 61, 1, 9723, 0, 0},
    {"retcon+fleet", TMMode::Retcon, Knobs::Fleet, "htm.xc_token_msgs",
     26702, 160, 216, 3246, 0, 29, 11286, 0, 0},
    {"retcon+slip", TMMode::Retcon, Knobs::Slip, "sim.slipped",
     29400, 160, 233, 2915, 0, 0, 10679, 9327, 0},
    {"retcon+steal", TMMode::Retcon, Knobs::Steal, "sim.stolen",
     29393, 160, 206, 3314, 0, 0, 10809, 276, 586},
    {"retcon+slip4", TMMode::Retcon, Knobs::Slip4, "sim.slipped",
     29915, 160, 242, 3205, 0, 0, 11111, 1111, 0},
    {"retcon+idealized", TMMode::Retcon, Knobs::Ideal,
     "reenact.repairs_checked",
     28666, 160, 230, 3034, 0, 0, 10739, 0, 0},
};

api::RunConfig
rowConfig(const GoldenRow &row)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.1;
    cfg.seed = 1;
    cfg.tm = api::eagerConfig();
    cfg.tm.mode = row.mode;
    cfg.trace.enabled = true;
    switch (row.knobs) {
      case Knobs::Plain:
        break;
      case Knobs::Banked:
        cfg.shards = 4;
        cfg.memBanks = 4;
        cfg.tm.commitTokenArbitration = true;
        cfg.tm.backoff.policy = htm::BackoffPolicy::ExpCapped;
        break;
      case Knobs::Fleet:
        cfg.clusters = 2;
        cfg.shards = 2;
        cfg.memBanks = 2;
        cfg.tm.commitTokenArbitration = true;
        cfg.crossClusterFraction = 0.25;
        break;
      case Knobs::Slip:
        cfg.shardBandwidth = 1;
        break;
      case Knobs::Steal:
        cfg.shards = 4;
        cfg.shardBandwidth = 1;
        break;
      case Knobs::Slip4:
        cfg.shards = 4;
        cfg.shardBandwidth = 1;
        cfg.shardWorkStealing = false;
        break;
      case Knobs::Ideal:
        cfg.tm.idealized = true;
        break;
    }
    return cfg;
}

} // namespace

TEST(ModeGolden, EveryModeReproducesPinnedResults)
{
    for (const GoldenRow &row : kRows) {
        SCOPED_TRACE(row.label);
        api::RunResult r = api::runOnce(rowConfig(row));
        EXPECT_TRUE(r.validation.ok) << r.validation.note;
        EXPECT_TRUE(r.reenact.ok()) << r.reenact.summary();
        EXPECT_EQ(r.reenact.forwardedCommitsSkipped, 0u);
        EXPECT_EQ(r.reenact.commitsChecked, r.coreStats.commits);
        EXPECT_GT(api::metric(r, row.path), 0.0) << row.path;

        EXPECT_EQ(api::metric(r, "cycles"), row.cycles);
        EXPECT_EQ(api::metric(r, "htm.commits"), row.commits);
        EXPECT_EQ(api::metric(r, "htm.aborts"), row.aborts);
        EXPECT_EQ(api::metric(r, "htm.nacks"), row.nacks);
        EXPECT_EQ(api::metric(r, "htm.fwd_reads"), row.fwdReads);
        EXPECT_EQ(api::metric(r, "htm.token_steals"), row.tokenSteals);
        EXPECT_EQ(api::metric(r, "sim.events"), row.events);
        EXPECT_EQ(api::metric(r, "sim.slipped"), row.slipped);
        EXPECT_EQ(api::metric(r, "sim.stolen"), row.stolen);
    }
}
