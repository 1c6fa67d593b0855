/**
 * @file
 * The metrics table: one row per run-scope observable of RunResult,
 * each with one name, one class and one getter (docs/architecture.md).
 * A row reuses the name BENCHMARK.json gives the same quantity
 * (htm.nacks, exec.sched_defers, scenario.dropped, trace.records, ...).
 * Breakdowns (per shard, bank, link, cluster or abort cause) enter as
 * their run-wide sums. The determinism tests (fingerprint,
 * firstDifference), the bench JSON (metricsJson), sweep_main's totals
 * and tools/check_bench_regression.py all read this table, so a new
 * counter reaches them all through one new row.
 */

#ifndef RETCON_API_METRICS_HPP
#define RETCON_API_METRICS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "api/runner.hpp"

namespace retcon::api {

/** Whether a metric is part of the determinism contract. */
enum class MetricClass : std::uint8_t {
    /** A pure function of the simulated run: bit-identical for a
     *  fixed config on any host, and across shard counts (and bank
     *  counts while occupancy and token arbitration are unmodeled). */
    Simulated,
    /** Host wall time: never fingerprinted, gated one-sided. */
    Host,
};

/** One table row. */
struct Metric {
    const char *name;
    MetricClass cls;
    double (*get)(const RunResult &r);
};

/** The full table, in emission order. */
const std::vector<Metric> &metrics();

/** The value of the row named @p name; panics on unknown names. */
double metric(const RunResult &r, const std::string &name);

/** FNV-1a over the bit patterns of every Simulated row, in order. */
std::uint64_t fingerprint(const RunResult &r);

/** Name of the first Simulated row whose values differ; empty when
 *  none does (then the fingerprints are equal). */
std::string firstDifference(const RunResult &a, const RunResult &b);

/** `"sim":{"<name>":<value>,...},"host":{...}` for @p r, every row
 *  under its class's object, for embedding in a JSON object. */
std::string metricsJson(const RunResult &r);

} // namespace retcon::api

#endif // RETCON_API_METRICS_HPP
