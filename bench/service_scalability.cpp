/**
 * @file
 * Service-workload scalability across event-queue shards x directory
 * banks, with the PR-5 conflict-time knobs layered on top.
 *
 * Not a paper figure: this is the ROADMAP's "millions of users"
 * scenario. The service workload (Zipfian queue + hashtable request
 * mix) runs under RETCON while both substrate bottlenecks are modeled:
 *  - event-queue dispatch is bandwidth-limited (the sequencer
 *    serialization sharding removes, PR 2), and
 *  - the memory system's directory is occupancy-limited and commits
 *    arbitrate per-bank commit tokens (the monolithic-spine
 *    serialization banking removes, PR 4).
 * PR 4 left ~85% of core cycles at 32 threads as genuine transaction
 * conflict time, so the scaled points additionally attack the
 * conflicts themselves (PR 5):
 *  - workload-side partitioning (servicePartitions = shard count):
 *    the session table and job queue — the §5.4 pointer conflicts
 *    repair cannot help — split into per-class partitions;
 *  - NACK/abort backoff (TMConfig::backoff, gentle linear policy):
 *    retries of contended requests space out instead of re-colliding;
 *  - contention-aware dispatch (RunConfig::contentionSched): restarts
 *    blaming hot blocks are deferred, de-phasing conflicting requests.
 * The (1 shard, 1 bank) monolith keeps every knob off — it is the
 * PR-4 baseline point, bit-identical run to run.
 *
 * A final self-check requires the (4 shards, 4 banks, 4 partitions)
 * point to beat (1, 1) throughput (>= kMinGainQuick x under --quick's
 * fixed sizing, where the run is fully deterministic), so CI can run
 * this binary as a regression gate; bench/baselines pins the exact
 * numbers.
 *
 * A second axis scales OUT instead of UP (PR 6, docs/fleet.md): the
 * same fleet-wide core count split across a 2-cluster fleet
 * (2 shards x 2 banks per cluster) at increasing cross-cluster
 * request fractions. At fraction 0 the clusters run fully
 * partitioned; raising it routes session/queue requests across the
 * interconnect, so throughput degrades with wire latency and
 * two-level commit-token round trips — the fleet_points array pins
 * that degradation curve.
 *
 * Usage: service_scalability [--quick] [--json PATH]
 *   --quick      CI sizing (scale 1.0, 32 threads — full Table 1;
 *                the service workload is cheap enough to simulate
 *                that CI runs the real scale-out point)
 *   --json PATH  also write every point as a JSON document: its axis
 *                keys plus the "sim" and "host" objects of the api
 *                metrics table (api/metrics.hpp). Compared against
 *                bench/baselines by tools/check_bench_regression.py
 *                and uploaded as BENCH_*.json artifacts.
 * Environment: RETCON_SCALE / RETCON_THREADS as in bench_common.hpp.
 */

#include <cstdio>
#include <cstring>

#include "api/metrics.hpp"
#include "bench_common.hpp"
#include "scenario/scenario.hpp"

using namespace retcon;
using namespace retcon::bench;

namespace {

/// Modeled per-shard dispatch bandwidth (events/cycle). Small enough
/// that one shard saturates under a full request load, so the bench
/// exposes the serialization sharding removes.
constexpr unsigned kDispatchBandwidth = 1;

/// Modeled directory-bank occupancy (cycles per request). One bank
/// backs up under the full request load; four spread it.
constexpr Cycle kBankOccupancy = 8;

/// NACK/abort backoff at the scaled points: gentle linear steps.
/// Rollback is zero-cycle in this machine, so waiting long costs more
/// than the wasted work it avoids; 1-cycle steps capped at 16 shave
/// aborts without adding stall time (docs/tuning.md).
constexpr Cycle kBackoffBase = 1;
constexpr Cycle kBackoffCap = 16;

/// Required (4 shards, 4 banks, 4 partitions) / (1, 1) throughput
/// gain under --quick (deterministic sizing; ISSUE 5 acceptance
/// floor — PR 4 reached 2.67x on substrate banking alone).
constexpr double kMinGainQuick = 3.5;

/** One measured point: its axis keys (a JSON fragment) and its run. */
struct Point {
    std::string axes;
    api::RunResult r;
};

/** Each point array of the JSON document, under its key. */
using Axes =
    std::vector<std::pair<const char *, const std::vector<Point> *>>;

/**
 * Emit every measured point as one JSON document (perf trajectory):
 * `"<key>":[{<axes>,"sim":{...},"host":{...}},...]` per point array,
 * the metrics written by the api metrics table.
 */
void
writeJson(const char *path, const api::RunConfig &base, const Axes &axes,
          double gain)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\"bench\":\"service_scalability\",\"scale\":%g,"
                 "\"nthreads\":%u,\"bank_occupancy\":%llu",
                 base.scale, base.nthreads,
                 (unsigned long long)kBankOccupancy);
    for (const auto &[key, points] : axes) {
        std::fprintf(f, ",\"%s\":[", key);
        for (std::size_t i = 0; i < points->size(); ++i)
            std::fprintf(f, "%s{%s,%s}", i ? "," : "",
                         (*points)[i].axes.c_str(),
                         api::metricsJson((*points)[i].r).c_str());
        std::fputc(']', f);
    }
    std::fprintf(f, ",\"throughput_gain\":%.4f}\n", gain);
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires a path\n");
                return 1;
            }
            json_path = argv[++i];
        }
    }

    api::RunConfig base = baseConfig("service");
    base.tm = api::retconConfig();
    base.shardBandwidth = kDispatchBandwidth;
    base.memBankOccupancy = kBankOccupancy;
    base.tm.commitTokenArbitration = true;
    base.trace.enabled = true; // Audit + per-shard repair counters.
    if (quick) {
        // Full Table-1 sizing: the service workload is cheap enough
        // to simulate that CI runs the real scale-out point (a
        // smaller scale leaves the 1-shard dispatch queue unsaturated
        // and the gain meaningless).
        base.scale = 1.0;
        base.nthreads = 32;
    }

    printHeader("Service workload vs shards x banks x partitions",
                "ROADMAP conflict-time wall (not a paper figure)");
    std::printf("dispatch bandwidth: %u events/cycle/shard; "
                "work stealing on\n",
                kDispatchBandwidth);
    std::printf("bank occupancy: %llu cycles/request; "
                "per-bank commit tokens on\n",
                (unsigned long long)kBankOccupancy);
    std::printf("scaled points: partitions = shards, linear backoff "
                "(base %llu, cap %llu), contention scheduler on\n\n",
                (unsigned long long)kBackoffBase,
                (unsigned long long)kBackoffCap);

    // Every run is audited: it must validate and reenact cleanly with
    // no skipped forwarding chain.
    bool all_ok = true;
    auto run = [&all_ok](const api::RunConfig &cfg) {
        api::RunResult r = api::runOnce(cfg);
        flagInvalid(r, "service");
        all_ok = all_ok && r.validation.ok && r.reenact.ok() &&
                 r.reenact.forwardedCommitsSkipped == 0;
        if (!r.reenact.ok())
            std::printf("!! reenactment audit: %s\n",
                        r.reenact.summary().c_str());
        return r;
    };
    auto withKnobs = [](api::RunConfig cfg) {
        cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
        cfg.tm.backoff.base = kBackoffBase;
        cfg.tm.backoff.cap = kBackoffCap;
        cfg.contentionSched = true;
        return cfg;
    };

    std::vector<Point> points;
    api::RunConfig top = base; // The largest scale-up config run.
    for (unsigned n : {1u, 2u, 4u}) {
        if (n > base.nthreads)
            break;
        api::RunConfig cfg = base;
        cfg.shards = n;
        cfg.memBanks = n;
        // The conflict-time knobs ride the scale-out axis; the (1,1)
        // monolith keeps them off (the PR-4 baseline).
        if (n > 1) {
            cfg = withKnobs(cfg);
            cfg.servicePartitions = n;
        }
        const char *backoff =
            htm::backoffPolicyName(cfg.tm.backoff.policy);
        char axes[128];
        std::snprintf(axes, sizeof(axes),
                      "\"shards\":%u,\"banks\":%u,\"partitions\":%u,"
                      "\"backoff\":\"%s\",\"sched\":%s",
                      n, n, cfg.servicePartitions, backoff,
                      cfg.contentionSched ? "true" : "false");
        api::RunResult r = run(cfg);
        top = cfg;

        std::printf("%u shard%s x %u bank%s x %u partition%s "
                    "(backoff %s, sched %s): %llu cycles, "
                    "%.2f commits/kcycle\n",
                    n, n == 1 ? "" : "s", n, n == 1 ? "" : "s",
                    cfg.servicePartitions,
                    cfg.servicePartitions == 1 ? "" : "s", backoff,
                    cfg.contentionSched ? "on" : "off",
                    (unsigned long long)r.cycles,
                    api::metric(r, "commits_per_kcycle"));
        std::printf("  %-5s %9s %9s %9s %9s %9s %9s %9s\n", "shard",
                    "commits", "aborts", "repairs", "events", "stolen",
                    "slipped", "defers");
        for (unsigned s = 0; s < r.shards.size(); ++s) {
            const api::ShardSummary &ss = r.shards[s];
            std::printf("  %-5u %9llu %9llu %9llu %9llu %9llu %9llu "
                        "%9llu\n",
                        s, (unsigned long long)ss.commits,
                        (unsigned long long)ss.aborts,
                        (unsigned long long)ss.repairs,
                        (unsigned long long)ss.queueExecuted,
                        (unsigned long long)ss.queueStolen,
                        (unsigned long long)ss.queueDeferred,
                        (unsigned long long)ss.schedDefers);
        }
        std::printf("  %-5s %9s %9s %9s %9s %9s\n", "bank", "requests",
                    "stalled", "stallcyc", "tokacq", "tokwait");
        for (unsigned b = 0; b < r.banks.size(); ++b) {
            const api::BankSummary &bs = r.banks[b];
            std::printf("  %-5u %9llu %9llu %9llu %9llu %9llu\n", b,
                        (unsigned long long)bs.requests,
                        (unsigned long long)bs.stalled,
                        (unsigned long long)bs.stallCycles,
                        (unsigned long long)bs.tokenAcquires,
                        (unsigned long long)bs.tokenWaits);
        }
        std::printf("\n");
        points.push_back({axes, std::move(r)});
    }

    // Scale-out axis: split the same fleet-wide core count across a
    // 2-cluster fleet (2 shards x 2 banks per cluster, conflict knobs
    // on) and sweep the cross-cluster request fraction. Throughput
    // must come down as more commits pay interconnect round trips for
    // remote bank tokens — the baseline pins that curve.
    std::vector<Point> fleet;
    if (base.nthreads >= 4) {
        api::RunConfig fbase = withKnobs(base);
        fbase.clusters = 2;
        fbase.nthreads = base.nthreads / 2; // Per-cluster on a fleet.
        fbase.shards = 2;
        fbase.memBanks = 2;
        fbase.servicePartitions = 2;
        std::printf("fleet axis: 2 clusters x (%u cores, 2 shards, "
                    "2 banks) vs cross-cluster fraction\n",
                    fbase.nthreads);
        for (double xc : {0.0, 0.1, 0.3}) {
            api::RunConfig cfg = fbase;
            cfg.crossClusterFraction = xc;
            api::RunResult r = run(cfg);
            if (xc > 0.0 && (r.net.messages == 0 ||
                             r.machineStats.xcTokenWaits == 0)) {
                // The point is meaningless if nothing crossed the
                // wire or no commit waited on a remote token.
                std::printf("!! fleet point xc=%.2f never exercised "
                            "the interconnect\n", xc);
                all_ok = false;
            }
            std::printf("  xc %.2f: %llu cycles, %.2f commits/kcycle, "
                        "%llu xc token waits, %llu net messages, "
                        "%llu net queue cycles\n",
                        xc, (unsigned long long)r.cycles,
                        api::metric(r, "commits_per_kcycle"),
                        (unsigned long long)r.machineStats.xcTokenWaits,
                        (unsigned long long)r.net.messages,
                        (unsigned long long)r.net.queueCycles);
            char axes[64];
            std::snprintf(axes, sizeof(axes),
                          "\"clusters\":2,\"xc_fraction\":%.2f", xc);
            fleet.push_back({axes, std::move(r)});
        }
        std::printf("\n");
    }

    // Scenario axis: the top scale-up config re-run under every
    // registered scenario (docs/scenarios.md). Open-loop arrivals make
    // throughput arrival-limited instead of core-limited, and the
    // fault scenarios carve capacity out — the baseline pins each
    // shape's commits/kcycle and its arrival ledger, so a change in
    // traffic-shape behaviour (or a silently dead scenario) fails the
    // bench gate like any other simulated regression.
    std::vector<Point> scenarios;
    const std::string topAxes = points.back().axes;
    std::printf("scenario axis: %ux%ux%u point vs registered "
                "scenarios\n",
                top.shards, top.memBanks, top.servicePartitions);
    for (const scenario::Scenario &sc : scenario::registry()) {
        api::RunConfig cfg = top;
        cfg.scenario = sc.name;
        api::RunResult r = run(cfg);
        const api::ScenarioSummary &ss = r.scenario;
        if (ss.injected != ss.completed + ss.dropped) {
            std::printf("!! %s arrival ledger does not conserve\n",
                        sc.name);
            all_ok = false;
        }
        std::printf("  %-15s %llu cycles, %.2f commits/kcycle"
                    ", %llu/%llu/%llu inj/done/drop\n",
                    sc.name, (unsigned long long)r.cycles,
                    api::metric(r, "commits_per_kcycle"),
                    (unsigned long long)ss.injected,
                    (unsigned long long)ss.completed,
                    (unsigned long long)ss.dropped);
        scenarios.push_back(
            {std::string("\"scenario\":\"") + sc.name + "\"",
             std::move(r)});
    }
    std::printf("\n");

    // Trace-writer overhead: the top scale-up point once more, now
    // streaming its complete audit record stream to disk. The stream
    // sink must not perturb the simulation — cycles are asserted
    // bit-identical — so the only cost is host-side: buffered frame
    // encoding plus the flush stalls the writer itself reports.
    std::vector<Point> stream;
    {
        const char *rtt = "service_scalability_stream.rtt";
        api::RunConfig cfg = top;
        cfg.trace.streamPath = rtt;
        api::RunResult r = run(cfg);
        const api::TraceStreamSummary &ts = r.traceStream;
        const api::RunResult &untraced = points.back().r;
        std::printf("trace stream (%ux%ux%u point): %llu records -> "
                    "%llu bytes (%.1f B/rec), %llu flushes, %.1f ms "
                    "flush stall, host wall %.1f ms vs %.1f untraced\n\n",
                    top.shards, top.memBanks, top.servicePartitions,
                    (unsigned long long)ts.records,
                    (unsigned long long)ts.bytesWritten,
                    ts.records ? double(ts.bytesWritten) /
                                     double(ts.records)
                               : 0.0,
                    (unsigned long long)ts.flushes, ts.flushWallMs,
                    r.hostWallMs, untraced.hostWallMs);
        if (r.cycles != untraced.cycles) {
            std::printf("!! streaming perturbed the simulation: %llu "
                        "cycles traced vs %llu untraced\n",
                        (unsigned long long)r.cycles,
                        (unsigned long long)untraced.cycles);
            all_ok = false;
        }
        if (ts.records != r.traceEvents || ts.records == 0) {
            std::printf("!! stream wrote %llu records for %llu "
                        "emitted events\n",
                        (unsigned long long)ts.records,
                        (unsigned long long)r.traceEvents);
            all_ok = false;
        }
        std::remove(rtt);
        stream.push_back({topAxes, std::move(r)});
    }

    const Axes axes = {{"points", &points},
                       {"fleet_points", &fleet},
                       {"scenario_points", &scenarios},
                       {"trace_stream", &stream}};
    if (points.size() < 2) {
        // Nothing to compare (e.g. RETCON_THREADS=1 leaves only the
        // 1-shard point): not a scaling regression, just inapplicable.
        std::printf("SKIP: need >= 2 scale-out points to judge scaling "
                    "(got %zu)\n",
                    points.size());
        if (json_path)
            writeJson(json_path, base, axes, 0);
        return all_ok ? 0 : 1;
    }
    double gain = api::metric(points.back().r, "commits_per_kcycle") /
                  api::metric(points.front().r, "commits_per_kcycle");
    std::printf("throughput 1x1x1 -> %ux%ux%u "
                "(shards x banks x partitions): %.2fx\n",
                top.shards, top.memBanks, top.servicePartitions, gain);
    if (json_path)
        writeJson(json_path, base, axes, gain);
    double min_gain = quick ? kMinGainQuick : 1.0;
    if (!(gain > min_gain) || !all_ok) {
        std::printf("FAIL: scale-out gain %.2fx below the %.2fx floor "
                    "(or a run was invalid)\n",
                    gain, min_gain);
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
