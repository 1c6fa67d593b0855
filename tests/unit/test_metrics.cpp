/**
 * @file
 * The metrics table (api/metrics.hpp): every simulated counter moves
 * the fingerprint and is named by firstDifference, host times never
 * move it, and the JSON emitter writes each row once, under its class.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "api/metrics.hpp"

using namespace retcon;

TEST(Metrics, SimulatedCountersMoveTheFingerprintHostTimesDoNot)
{
    using Bump = void (*)(api::RunResult &r);
    const std::pair<const char *, Bump> sims[] = {
        {"cycles", [](api::RunResult &r) { ++r.cycles; }},
        {"htm.nacks", [](api::RunResult &r) { ++r.machineStats.nacks; }},
        {"scenario.dropped", [](api::RunResult &r) { ++r.scenario.dropped; }},
        {"reenact.mismatches",
         [](api::RunResult &r) { ++r.reenact.mismatches; }},
        {"net.messages", [](api::RunResult &r) { ++r.net.messages; }},
        {"trace.stream_records",
         [](api::RunResult &r) { ++r.traceStream.records; }},
    };
    const api::RunResult base;
    for (const auto &[row, bump] : sims) {
        api::RunResult r = base;
        bump(r);
        EXPECT_NE(api::fingerprint(r), api::fingerprint(base)) << row;
        EXPECT_EQ(api::firstDifference(base, r), row);
    }

    api::RunResult host = base;
    host.hostWallMs += 1;
    host.traceStream.flushWallMs += 1;
    EXPECT_EQ(api::fingerprint(host), api::fingerprint(base));
    EXPECT_EQ(api::firstDifference(base, host), "");
}

TEST(Metrics, JsonWritesEveryRowOnceUnderItsClass)
{
    api::RunResult r;
    r.cycles = 7;
    const std::string json = api::metricsJson(r);
    EXPECT_EQ(json.rfind("\"sim\":{\"cycles\":7,", 0), 0u) << json;
    const std::size_t hostAt = json.find("},\"host\":{");
    ASSERT_NE(hostAt, std::string::npos) << json;

    std::set<std::string> names;
    for (const api::Metric &m : api::metrics()) {
        EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
        std::string key = "\"";
        key.append(m.name).append("\":");
        const std::size_t at = json.find(key);
        ASSERT_NE(at, std::string::npos) << m.name;
        EXPECT_EQ(json.find(key, at + 1), std::string::npos) << m.name;
        EXPECT_EQ(at > hostAt, m.cls == api::MetricClass::Host) << m.name;
    }
}
