/**
 * @file
 * Workload-level integration tests: every Table 2 workload validates
 * its functional output under every machine configuration at a small
 * scale, deterministically; plus shape assertions for the paper's
 * headline qualitative results.
 */

#include <gtest/gtest.h>

#include "api/metrics.hpp"

using namespace retcon;

class WorkloadValidation
    : public ::testing::TestWithParam<
          std::tuple<std::string, const char *>>
{};

TEST_P(WorkloadValidation, FunctionalStateCorrect)
{
    auto [workload, config] = GetParam();
    api::RunConfig cfg;
    cfg.workload = workload;
    cfg.nthreads = 4;
    cfg.scale = 0.05;
    if (std::string(config) == "eager")
        cfg.tm = api::eagerConfig();
    else if (std::string(config) == "lazy-vb")
        cfg.tm = api::lazyVbConfig();
    else
        cfg.tm = api::retconConfig();
    api::RunResult r = api::runOnce(cfg);
    EXPECT_TRUE(r.validation.ok) << r.validation.note;
    EXPECT_GT(r.coreStats.commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadValidation,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::extendedWorkloadNames()),
        ::testing::Values("eager", "lazy-vb", "retcon")),
    [](const auto &info) {
        std::string name =
            std::get<0>(info.param) + "_" + std::get<1>(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(WorkloadDeterminism, SameSeedSameCycles)
{
    api::RunConfig cfg;
    cfg.workload = "vacation_opt-sz";
    cfg.nthreads = 4;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    api::RunResult a = api::runOnce(cfg);
    api::RunResult b = api::runOnce(cfg);
    EXPECT_EQ(api::fingerprint(a), api::fingerprint(b))
        << "first difference: " << api::firstDifference(a, b);
}

TEST(WorkloadShape, RetconLiftsPythonOpt)
{
    // The headline result at test scale: RETCON must clearly beat the
    // eager baseline on python_opt (refcount repair).
    api::RunConfig cfg;
    cfg.workload = "python_opt";
    cfg.nthreads = 8;
    cfg.scale = 0.25;
    cfg.tm = api::eagerConfig();
    Cycle eager = api::runOnce(cfg).cycles;
    cfg.tm = api::retconConfig();
    Cycle rc = api::runOnce(cfg).cycles;
    EXPECT_LT(double(rc) * 1.5, double(eager))
        << "RETCON should be at least 1.5x faster than eager";
}

TEST(WorkloadShape, RetconDoesNotHelpYada)
{
    api::RunConfig cfg;
    cfg.workload = "yada";
    cfg.nthreads = 8;
    cfg.scale = 0.25;
    cfg.tm = api::eagerConfig();
    Cycle eager = api::runOnce(cfg).cycles;
    cfg.tm = api::retconConfig();
    Cycle rc = api::runOnce(cfg).cycles;
    // Within 40% of each other: no dramatic change either way (§5.4).
    EXPECT_LT(double(rc), 1.4 * double(eager));
    EXPECT_GT(double(rc), 0.6 * double(eager));
}

TEST(WorkloadShape, FixedTablesOutscaleResizableOnEager)
{
    api::RunConfig cfg;
    cfg.nthreads = 8;
    cfg.scale = 0.25;
    cfg.tm = api::eagerConfig();
    cfg.workload = "intruder_opt";
    Cycle fixed = api::runOnce(cfg).cycles;
    cfg.workload = "intruder_opt-sz";
    Cycle sz = api::runOnce(cfg).cycles;
    EXPECT_LT(double(fixed), double(sz))
        << "size-field conflicts must hurt the eager baseline";
}

TEST(WorkloadShape, Table1DefaultsMatchPaper)
{
    // Table 1 configuration constants.
    EXPECT_EQ(mem::kL1HitCycles, 1u);
    EXPECT_EQ(mem::kL2HitCycles, 10u);
    EXPECT_EQ(mem::kHopCycles, 20u);
    EXPECT_EQ(mem::kDramCycles, 100u);
    EXPECT_EQ(mem::kL1Geometry.sizeBytes, 64u * 1024);
    EXPECT_EQ(mem::kL1Geometry.ways, 4u);
    EXPECT_EQ(mem::kL2Geometry.sizeBytes, 1024u * 1024);
    EXPECT_EQ(mem::kL2Geometry.ways, 4u);
    EXPECT_EQ(mem::kPermOnlyGeometry.sizeBytes, 4u * 1024);
    EXPECT_EQ(mem::kPermOnlyGeometry.ways, 4u);
    EXPECT_EQ(htm::kIvbEntries, 16u);
    EXPECT_EQ(htm::kConstraintEntries, 16u);
    EXPECT_EQ(htm::kSsbEntries, 32u);
    htm::TMConfig tm = api::retconConfig();
    EXPECT_EQ(tm.predictor.trainDownConflicts, 100u);
}
