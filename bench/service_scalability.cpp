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
 *   --json PATH  also write the scale-out points as a JSON document
 *                (compared against bench/baselines by
 *                tools/check_bench_regression.py, uploaded as
 *                BENCH_*.json artifacts)
 * Environment: RETCON_SCALE / RETCON_THREADS as in bench_common.hpp.
 */

#include <cstdio>
#include <cstring>

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

struct Point {
    unsigned shards = 0;
    unsigned banks = 0;
    unsigned partitions = 1;
    const char *backoff = "none";
    bool sched = false;
    Cycle cycles = 0;
    double throughput = 0; ///< Commits per kilocycle.
    std::uint64_t bankStallCycles = 0;
    std::uint64_t tokenWaits = 0;
    std::uint64_t backoffCycles = 0;
    std::uint64_t schedDefers = 0;
    double hostWallMs = 0; ///< Host time of the run (not simulated).
};

/// Trace-writer overhead: the top scale-up point re-run with the
/// live record stream additionally written to an .rtt file
/// (docs/trace-format.md). Streaming is a host-side sink on the audit
/// stream the run already produces, so the simulated result must be
/// bit-identical — cycles are asserted equal, and only the writer's
/// own stats and host wall move (gated under the host tolerance,
/// never the simulated band).
struct TraceStreamPoint {
    bool measured = false;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t flushes = 0;
    double flushWallMs = 0;
    double wallMs = 0;     ///< Host wall of the streamed run.
    double baseWallMs = 0; ///< Host wall of the untraced point.
};

/// One scenario point: the top scale-up config re-run under a
/// registered scenario (docs/scenarios.md) — open-loop arrivals,
/// mid-run shifts, fault windows. Pins each scenario's throughput and
/// arrival ledger so traffic-shape behaviour cannot drift silently.
struct ScenarioPoint {
    const char *name = "";
    Cycle cycles = 0;
    double throughput = 0; ///< Commits per kilocycle.
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t peakBacklog = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t bankFaultCycles = 0;
};

/// One scale-OUT point: the same fleet-wide core count split across a
/// 2-cluster fleet, swept over the cross-cluster request fraction.
struct FleetPoint {
    double xcFraction = 0;
    Cycle cycles = 0;
    double throughput = 0; ///< Commits per kilocycle (fleet-wide).
    std::uint64_t xcTokenWaits = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netQueueCycles = 0;
};

/** Emit the measured points as one JSON document (perf trajectory). */
void
writeJson(const char *path, double scale, unsigned nthreads,
          const std::vector<Point> &points,
          const std::vector<FleetPoint> &fleet,
          const std::vector<ScenarioPoint> &scenarios,
          const TraceStreamPoint &ts, double gain)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return;
    }
    std::fprintf(f,
                 "{\"bench\":\"service_scalability\",\"scale\":%g,"
                 "\"nthreads\":%u,\"bank_occupancy\":%llu,\"points\":[",
                 scale, nthreads,
                 (unsigned long long)kBankOccupancy);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::fprintf(f,
                     "%s{\"shards\":%u,\"banks\":%u,\"partitions\":%u,"
                     "\"backoff\":\"%s\",\"sched\":%s,"
                     "\"cycles\":%llu,"
                     "\"commits_per_kcycle\":%.4f,"
                     "\"bank_stall_cycles\":%llu,\"token_waits\":%llu,"
                     "\"backoff_cycles\":%llu,\"sched_defers\":%llu,"
                     "\"host_wall_ms\":%.2f}",
                     i ? "," : "", p.shards, p.banks, p.partitions,
                     p.backoff, p.sched ? "true" : "false",
                     (unsigned long long)p.cycles, p.throughput,
                     (unsigned long long)p.bankStallCycles,
                     (unsigned long long)p.tokenWaits,
                     (unsigned long long)p.backoffCycles,
                     (unsigned long long)p.schedDefers, p.hostWallMs);
    }
    std::fprintf(f, "],\"fleet_points\":[");
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        const FleetPoint &p = fleet[i];
        std::fprintf(f,
                     "%s{\"clusters\":2,\"xc_fraction\":%.2f,"
                     "\"cycles\":%llu,"
                     "\"commits_per_kcycle\":%.4f,"
                     "\"xc_token_waits\":%llu,\"net_messages\":%llu,"
                     "\"net_queue_cycles\":%llu}",
                     i ? "," : "", p.xcFraction,
                     (unsigned long long)p.cycles, p.throughput,
                     (unsigned long long)p.xcTokenWaits,
                     (unsigned long long)p.netMessages,
                     (unsigned long long)p.netQueueCycles);
    }
    std::fprintf(f, "],\"scenario_points\":[");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ScenarioPoint &p = scenarios[i];
        std::fprintf(f,
                     "%s{\"scenario\":\"%s\",\"cycles\":%llu,"
                     "\"commits_per_kcycle\":%.4f,"
                     "\"injected\":%llu,\"completed\":%llu,"
                     "\"dropped\":%llu,\"peak_backlog\":%llu,"
                     "\"stall_cycles\":%llu,"
                     "\"bank_fault_cycles\":%llu}",
                     i ? "," : "", p.name,
                     (unsigned long long)p.cycles, p.throughput,
                     (unsigned long long)p.injected,
                     (unsigned long long)p.completed,
                     (unsigned long long)p.dropped,
                     (unsigned long long)p.peakBacklog,
                     (unsigned long long)p.stallCycles,
                     (unsigned long long)p.bankFaultCycles);
    }
    std::fprintf(f, "]");
    if (ts.measured) {
        std::fprintf(f,
                     ",\"trace_stream\":{\"records\":%llu,"
                     "\"bytes_written\":%llu,"
                     "\"bytes_per_record\":%.2f,\"flushes\":%llu,"
                     "\"flush_wall_ms\":%.2f,\"host_wall_ms\":%.2f,"
                     "\"untraced_host_wall_ms\":%.2f}",
                     (unsigned long long)ts.records,
                     (unsigned long long)ts.bytes,
                     ts.records ? double(ts.bytes) / double(ts.records)
                                : 0.0,
                     (unsigned long long)ts.flushes, ts.flushWallMs,
                     ts.wallMs, ts.baseWallMs);
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

    std::vector<Point> points;
    bool all_ok = true;
    for (unsigned n : {1u, 2u, 4u}) {
        if (n > base.nthreads)
            break;
        api::RunConfig cfg = base;
        cfg.shards = n;
        cfg.memBanks = n;
        Point p;
        p.shards = n;
        p.banks = n;
        if (n > 1) {
            // The conflict-time knobs ride the scale-out axis; the
            // (1,1) monolith keeps them off (the PR-4 baseline).
            cfg.servicePartitions = n;
            cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
            cfg.tm.backoff.base = kBackoffBase;
            cfg.tm.backoff.cap = kBackoffCap;
            cfg.contentionSched = true;
            p.partitions = n;
            p.backoff = htm::backoffPolicyName(cfg.tm.backoff.policy);
            p.sched = true;
        }
        api::RunResult r = api::runOnce(cfg);
        flagInvalid(r, "service");
        all_ok = all_ok && r.validation.ok && r.reenact.ok() &&
                 r.reenact.forwardedCommitsSkipped == 0;
        if (!r.reenact.ok())
            std::printf("!! reenactment audit: %s\n",
                        r.reenact.summary().c_str());

        p.cycles = r.cycles;
        p.throughput = 1000.0 * double(r.coreStats.commits) /
                       double(r.cycles);
        for (const api::BankSummary &bs : r.banks) {
            p.bankStallCycles += bs.stallCycles;
            p.tokenWaits += bs.tokenWaits;
        }
        p.backoffCycles = r.machineStats.backoffCycles;
        for (const api::ShardSummary &ss : r.shards)
            p.schedDefers += ss.schedDefers;
        p.hostWallMs = r.hostWallMs;
        points.push_back(p);

        std::printf("%u shard%s x %u bank%s x %u partition%s "
                    "(backoff %s, sched %s): %llu cycles, "
                    "%.2f commits/kcycle\n",
                    n, n == 1 ? "" : "s", n, n == 1 ? "" : "s",
                    p.partitions, p.partitions == 1 ? "" : "s",
                    p.backoff, p.sched ? "on" : "off",
                    (unsigned long long)r.cycles, p.throughput);
        std::printf("  %-5s %9s %9s %9s %9s %9s %9s %9s %9s\n", "shard",
                    "commits", "aborts", "repairs", "events", "stolen",
                    "slipped", "tokwait", "defers");
        for (unsigned s = 0; s < r.shards.size(); ++s) {
            const api::ShardSummary &ss = r.shards[s];
            std::printf("  %-5u %9llu %9llu %9llu %9llu %9llu %9llu "
                        "%9llu %9llu\n",
                        s, (unsigned long long)ss.commits,
                        (unsigned long long)ss.aborts,
                        (unsigned long long)ss.repairs,
                        (unsigned long long)ss.queueExecuted,
                        (unsigned long long)ss.queueStolen,
                        (unsigned long long)ss.queueDeferred,
                        (unsigned long long)ss.tokenWaits,
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
    }

    // Scale-out axis: split the same fleet-wide core count across a
    // 2-cluster fleet (2 shards x 2 banks per cluster, conflict knobs
    // on) and sweep the cross-cluster request fraction. Throughput
    // must come down as more commits pay interconnect round trips for
    // remote bank tokens — the baseline pins that curve.
    std::vector<FleetPoint> fleet;
    if (base.nthreads >= 4) {
        api::RunConfig fbase = base;
        fbase.clusters = 2;
        fbase.nthreads = base.nthreads / 2; // Per-cluster on a fleet.
        fbase.shards = 2;
        fbase.memBanks = 2;
        fbase.servicePartitions = 2;
        fbase.tm.backoff.policy = htm::BackoffPolicy::Linear;
        fbase.tm.backoff.base = kBackoffBase;
        fbase.tm.backoff.cap = kBackoffCap;
        fbase.contentionSched = true;
        std::printf("fleet axis: 2 clusters x (%u cores, 2 shards, "
                    "2 banks) vs cross-cluster fraction\n",
                    fbase.nthreads);
        for (double xc : {0.0, 0.1, 0.3}) {
            api::RunConfig cfg = fbase;
            cfg.crossClusterFraction = xc;
            api::RunResult r = api::runOnce(cfg);
            flagInvalid(r, "service");
            all_ok = all_ok && r.validation.ok && r.reenact.ok() &&
                     r.reenact.forwardedCommitsSkipped == 0;
            if (!r.reenact.ok())
                std::printf("!! reenactment audit: %s\n",
                            r.reenact.summary().c_str());
            if (xc > 0.0 && (r.net.messages == 0 ||
                             r.machineStats.xcTokenWaits == 0)) {
                // The point is meaningless if nothing crossed the
                // wire or no commit waited on a remote token.
                std::printf("!! fleet point xc=%.2f never exercised "
                            "the interconnect\n", xc);
                all_ok = false;
            }
            FleetPoint p;
            p.xcFraction = xc;
            p.cycles = r.cycles;
            p.throughput = 1000.0 * double(r.coreStats.commits) /
                           double(r.cycles);
            p.xcTokenWaits = r.machineStats.xcTokenWaits;
            p.netMessages = r.net.messages;
            p.netQueueCycles = r.net.queueCycles;
            fleet.push_back(p);
            std::printf("  xc %.2f: %llu cycles, %.2f commits/kcycle, "
                        "%llu xc token waits, %llu net messages, "
                        "%llu net queue cycles\n",
                        xc, (unsigned long long)p.cycles, p.throughput,
                        (unsigned long long)p.xcTokenWaits,
                        (unsigned long long)p.netMessages,
                        (unsigned long long)p.netQueueCycles);
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
    std::vector<ScenarioPoint> scenarios;
    if (!points.empty()) {
        const Point &top = points.back();
        api::RunConfig cfg = base;
        cfg.shards = top.shards;
        cfg.memBanks = top.banks;
        cfg.servicePartitions = top.partitions;
        if (top.shards > 1) {
            cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
            cfg.tm.backoff.base = kBackoffBase;
            cfg.tm.backoff.cap = kBackoffCap;
            cfg.contentionSched = true;
        }
        std::printf("scenario axis: %ux%ux%u point vs registered "
                    "scenarios\n",
                    top.shards, top.banks, top.partitions);
        for (const scenario::Scenario &sc : scenario::registry()) {
            cfg.scenario = sc.name;
            api::RunResult r = api::runOnce(cfg);
            flagInvalid(r, "service");
            all_ok = all_ok && r.validation.ok && r.reenact.ok() &&
                     r.reenact.forwardedCommitsSkipped == 0;
            if (!r.reenact.ok())
                std::printf("!! reenactment audit: %s\n",
                            r.reenact.summary().c_str());
            const api::ScenarioSummary &ss = r.scenario;
            if (ss.injected != ss.completed + ss.dropped) {
                std::printf("!! %s arrival ledger does not conserve\n",
                            sc.name);
                all_ok = false;
            }
            ScenarioPoint p;
            p.name = sc.name;
            p.cycles = r.cycles;
            p.throughput = 1000.0 * double(r.coreStats.commits) /
                           double(r.cycles);
            p.injected = ss.injected;
            p.completed = ss.completed;
            p.dropped = ss.dropped;
            p.peakBacklog = ss.peakBacklog;
            p.stallCycles = ss.stallCycles;
            p.bankFaultCycles = ss.bankFaultCycles;
            scenarios.push_back(p);
            std::printf("  %-15s %llu cycles, %.2f commits/kcycle"
                        ", %llu/%llu/%llu inj/done/drop\n",
                        sc.name, (unsigned long long)p.cycles,
                        p.throughput, (unsigned long long)p.injected,
                        (unsigned long long)p.completed,
                        (unsigned long long)p.dropped);
        }
        std::printf("\n");
    }

    // Trace-writer overhead: the top scale-up point once more, now
    // streaming its complete audit record stream to disk. The stream
    // sink must not perturb the simulation — cycles are asserted
    // bit-identical — so the only cost is host-side: buffered frame
    // encoding plus the flush stalls the writer itself reports.
    TraceStreamPoint ts;
    if (!points.empty()) {
        const Point &top = points.back();
        const char *rtt = "service_scalability_stream.rtt";
        api::RunConfig cfg = base;
        cfg.shards = top.shards;
        cfg.memBanks = top.banks;
        cfg.servicePartitions = top.partitions;
        if (top.shards > 1) {
            cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
            cfg.tm.backoff.base = kBackoffBase;
            cfg.tm.backoff.cap = kBackoffCap;
            cfg.contentionSched = true;
        }
        cfg.trace.streamPath = rtt;
        api::RunResult r = api::runOnce(cfg);
        flagInvalid(r, "service");
        all_ok = all_ok && r.validation.ok && r.reenact.ok();
        ts.measured = true;
        ts.records = r.traceStream.records;
        ts.bytes = r.traceStream.bytesWritten;
        ts.flushes = r.traceStream.flushes;
        ts.flushWallMs = r.traceStream.flushWallMs;
        ts.wallMs = r.hostWallMs;
        ts.baseWallMs = top.hostWallMs;
        std::printf("trace stream (%ux%ux%u point): %llu records -> "
                    "%llu bytes (%.1f B/rec), %llu flushes, %.1f ms "
                    "flush stall, host wall %.1f ms vs %.1f untraced\n\n",
                    top.shards, top.banks, top.partitions,
                    (unsigned long long)ts.records,
                    (unsigned long long)ts.bytes,
                    ts.records ? double(ts.bytes) / double(ts.records)
                               : 0.0,
                    (unsigned long long)ts.flushes, ts.flushWallMs,
                    ts.wallMs, ts.baseWallMs);
        if (r.cycles != top.cycles) {
            std::printf("!! streaming perturbed the simulation: %llu "
                        "cycles traced vs %llu untraced\n",
                        (unsigned long long)r.cycles,
                        (unsigned long long)top.cycles);
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
    }

    if (points.size() < 2) {
        // Nothing to compare (e.g. RETCON_THREADS=1 leaves only the
        // 1-shard point): not a scaling regression, just inapplicable.
        std::printf("SKIP: need >= 2 scale-out points to judge scaling "
                    "(got %zu)\n",
                    points.size());
        if (json_path)
            writeJson(json_path, base.scale, base.nthreads, points,
                      fleet, scenarios, ts, 0);
        return all_ok ? 0 : 1;
    }
    const Point &first = points.front();
    const Point &last = points.back();
    double gain = last.throughput / first.throughput;
    std::printf("throughput %ux%ux%u -> %ux%ux%u "
                "(shards x banks x partitions): %.2fx\n",
                first.shards, first.banks, first.partitions, last.shards,
                last.banks, last.partitions, gain);
    if (json_path)
        writeJson(json_path, base.scale, base.nthreads, points, fleet,
                  scenarios, ts, gain);
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
