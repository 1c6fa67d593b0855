#include "api/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "sim/logging.hpp"

namespace retcon::api {

namespace {

using R = const RunResult &;
constexpr MetricClass Sim = MetricClass::Simulated;
constexpr MetricClass Host = MetricClass::Host;

/** One field of one RunResult member. */
template <auto Member, auto Field>
double
get(R r)
{
    return double((r.*Member).*Field);
}

/** Run-wide sum of one per-shard or per-bank field. */
template <auto Member, auto Field>
double
sum(R r)
{
    std::uint64_t total = 0;
    for (const auto &row : r.*Member)
        total += row.*Field;
    return double(total);
}

/** Table 3 occupancy: the average or the max of one AvgMax. */
template <AvgMax htm::MachineStats::*F, bool Max>
double
occupancy(R r)
{
    const AvgMax &a = r.machineStats.*F;
    return Max ? a.max() : a.avg();
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

} // namespace

const std::vector<Metric> &
metrics()
{
    using M = htm::MachineStats;
    using Re = trace::ReenactReport;
    using Sc = ScenarioSummary;
    using Sh = ShardSummary;
    using B = BankSummary;
    using CS = exec::CoreStats;
    using TB = exec::TimeBreakdown;
    using N = NetSummary;
    using TS = TraceStreamSummary;
    constexpr auto core = &RunResult::coreStats;
    constexpr auto time = &RunResult::breakdown;
    constexpr auto ms = &RunResult::machineStats;
    constexpr auto shards = &RunResult::shards;
    constexpr auto banks = &RunResult::banks;
    constexpr auto net = &RunResult::net;
    constexpr auto audit = &RunResult::reenact;
    constexpr auto stream = &RunResult::traceStream;
    constexpr auto sc = &RunResult::scenario;
    static const std::vector<Metric> rows = {
        {"cycles", Sim, [](R r) -> double { return r.cycles; }},
        {"commits_per_kcycle", Sim,
         [](R r) { return ratio(1000.0 * r.coreStats.commits, r.cycles); }},
        {"workload.valid", Sim, [](R r) -> double { return r.validation.ok; }},

        {"exec.txns", Sim, get<core, &CS::txns>},
        {"exec.commits", Sim, get<core, &CS::commits>},
        {"exec.aborts", Sim, get<core, &CS::aborts>},
        {"exec.finish_cycle", Sim, get<core, &CS::finishCycle>},
        {"exec.busy_cycles", Sim, get<time, &TB::busy>},
        {"exec.conflict_cycles", Sim, get<time, &TB::conflict>},
        {"exec.barrier_cycles", Sim, get<time, &TB::barrier>},
        {"exec.other_cycles", Sim, get<time, &TB::other>},
        {"exec.sched_observed", Sim, sum<shards, &Sh::schedObserved>},
        {"exec.sched_defers", Sim, sum<shards, &Sh::schedDefers>},
        {"exec.sched_defer_cycles", Sim, sum<shards, &Sh::schedDeferCycles>},

        {"sim.scheduled", Sim, sum<shards, &Sh::queueScheduled>},
        {"sim.events", Sim, sum<shards, &Sh::queueExecuted>},
        {"sim.stolen", Sim, sum<shards, &Sh::queueStolen>},
        {"sim.slipped", Sim, sum<shards, &Sh::queueDeferred>},

        {"htm.commits", Sim, get<ms, &M::commits>},
        {"htm.aborts", Sim, get<ms, &M::aborts>},
        {"htm.conflicts", Sim, get<ms, &M::conflicts>},
        {"htm.nacks", Sim, get<ms, &M::nacks>},
        {"htm.overflows", Sim, get<ms, &M::overflows>},
        {"htm.fwd_reads", Sim, get<ms, &M::fwdReads>},
        {"htm.lazy_value_mismatch", Sim, get<ms, &M::abortsLazyValueMismatch>},
        {"htm.token_acquires", Sim, get<ms, &M::tokenAcquires>},
        {"htm.token_waits", Sim, get<ms, &M::tokenWaits>},
        {"htm.token_steals", Sim, get<ms, &M::tokenSteals>},
        {"htm.xc_token_msgs", Sim, get<ms, &M::xcTokenMsgs>},
        {"htm.xc_token_waits", Sim, get<ms, &M::xcTokenWaits>},
        {"htm.xc_token_cycles", Sim, get<ms, &M::xcTokenCycles>},
        {"htm.backoff_nacks", Sim, get<ms, &M::backoffNacks>},
        {"htm.backoff_restarts", Sim, get<ms, &M::backoffRestarts>},
        {"htm.backoff_cycles", Sim, get<ms, &M::backoffCycles>},
        {"htm.cascade_bp_restarts", Sim, get<ms, &M::cascadeBpRestarts>},
        {"htm.cascade_bp_cycles", Sim, get<ms, &M::cascadeBpCycles>},
        {"htm.commit_cycles_total", Sim, get<ms, &M::totalCommitCycles>},
        {"htm.txn_cycles_total", Sim, get<ms, &M::totalTxnCycles>},
        {"htm.commit_stall_pct", Sim,
         [](R r) { return r.machineStats.commitStallPct(); }},

        // Table 3: structure occupancy per commit, average and max.
        {"htm.commit_cycles_avg", Sim, occupancy<&M::commitCycles, false>},
        {"htm.commit_cycles_max", Sim, occupancy<&M::commitCycles, true>},
        {"retcon.blocks_lost_avg", Sim, occupancy<&M::blocksLost, false>},
        {"retcon.blocks_lost_max", Sim, occupancy<&M::blocksLost, true>},
        {"retcon.blocks_tracked_avg", Sim, occupancy<&M::blocksTracked, false>},
        {"retcon.blocks_tracked_max", Sim, occupancy<&M::blocksTracked, true>},
        {"retcon.sym_regs_avg", Sim, occupancy<&M::symRegs, false>},
        {"retcon.sym_regs_max", Sim, occupancy<&M::symRegs, true>},
        {"retcon.private_stores_avg", Sim, occupancy<&M::privateStores, false>},
        {"retcon.private_stores_max", Sim, occupancy<&M::privateStores, true>},
        {"retcon.constraint_addrs_avg", Sim,
         occupancy<&M::constraintAddrs, false>},
        {"retcon.constraint_addrs_max", Sim,
         occupancy<&M::constraintAddrs, true>},

        {"mem.bank_requests", Sim, sum<banks, &B::requests>},
        {"mem.bank_stalled", Sim, sum<banks, &B::stalled>},
        {"mem.bank_stall_cycles", Sim, sum<banks, &B::stallCycles>},
        {"mem.bank_token_acquires", Sim, sum<banks, &B::tokenAcquires>},
        {"mem.bank_token_waits", Sim, sum<banks, &B::tokenWaits>},

        {"net.messages", Sim, get<net, &N::messages>},
        {"net.payload_words", Sim, get<net, &N::payloadWords>},
        {"net.queue_cycles", Sim, get<net, &N::queueCycles>},

        {"reenact.commits_checked", Sim, get<audit, &Re::commitsChecked>},
        {"reenact.repairs_checked", Sim, get<audit, &Re::repairsChecked>},
        {"reenact.constraints_checked", Sim,
         get<audit, &Re::constraintsChecked>},
        {"reenact.pins_checked", Sim, get<audit, &Re::pinsChecked>},
        {"reenact.aborts_seen", Sim, get<audit, &Re::abortsSeen>},
        {"reenact.forwards_checked", Sim, get<audit, &Re::forwardsChecked>},
        {"reenact.forwarded_commits_checked", Sim,
         get<audit, &Re::forwardedCommitsChecked>},
        {"reenact.forwarded_commits_skipped", Sim,
         get<audit, &Re::forwardedCommitsSkipped>},
        {"reenact.mismatches", Sim, get<audit, &Re::mismatches>},

        {"trace.records", Sim, [](R r) -> double { return r.traceEvents; }},
        {"trace.repairs", Sim, sum<shards, &Sh::repairs>},
        {"trace.forwards", Sim, sum<shards, &Sh::forwards>},
        {"trace.stream_records", Sim, get<stream, &TS::records>},
        {"trace.stream_bytes", Sim, get<stream, &TS::bytesWritten>},
        {"trace.flushes", Sim, get<stream, &TS::flushes>},
        {"trace.bytes_per_record", Sim,
         [](R r) {
             return ratio(r.traceStream.bytesWritten,
                          r.traceStream.records);
         }},

        {"scenario.open_loop", Sim, get<sc, &Sc::openLoop>},
        {"scenario.phases", Sim, get<sc, &Sc::phases>},
        {"scenario.injected", Sim, get<sc, &Sc::injected>},
        {"scenario.completed", Sim, get<sc, &Sc::completed>},
        {"scenario.dropped", Sim, get<sc, &Sc::dropped>},
        {"scenario.peak_backlog", Sim, get<sc, &Sc::peakBacklog>},
        {"scenario.latency_sum", Sim, get<sc, &Sc::latencySum>},
        {"queue_latency_max_cycles", Sim, get<sc, &Sc::latencyMax>},
        {"scenario.phase_marks", Sim, get<sc, &Sc::phaseMarks>},
        {"scenario.stall_hits", Sim, get<sc, &Sc::stallHits>},
        {"scenario.stall_cycles", Sim, get<sc, &Sc::stallCycles>},
        {"scenario.bank_fault_stalls", Sim, get<sc, &Sc::bankFaultStalls>},
        {"scenario.bank_fault_cycles", Sim, get<sc, &Sc::bankFaultCycles>},
        {"scenario.link_fault_messages", Sim, get<sc, &Sc::linkFaultMessages>},
        {"scenario.link_fault_cycles", Sim, get<sc, &Sc::linkFaultCycles>},

        {"host_wall_ms", Host, [](R r) { return r.hostWallMs; }},
        {"trace.flush_wall_ms", Host, get<stream, &TS::flushWallMs>},
    };
    return rows;
}

double
metric(const RunResult &r, const std::string &name)
{
    for (const Metric &m : metrics())
        if (name == m.name)
            return m.get(r);
    panic("unknown metric '%s'", name.c_str());
}

std::uint64_t
fingerprint(const RunResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Metric &m : metrics()) {
        if (m.cls != MetricClass::Simulated)
            continue;
        const auto bits = std::bit_cast<std::uint64_t>(m.get(r));
        for (int i = 0; i < 64; i += 8) {
            h ^= (bits >> i) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::string
firstDifference(const RunResult &a, const RunResult &b)
{
    for (const Metric &m : metrics())
        if (m.cls == MetricClass::Simulated && m.get(a) != m.get(b))
            return m.name;
    return {};
}

std::string
metricsJson(const RunResult &r)
{
    std::string out;
    for (MetricClass cls : {Sim, Host}) {
        out += cls == Sim ? "\"sim\":{" : "},\"host\":{";
        const char *sep = "";
        for (const Metric &m : metrics()) {
            if (m.cls != cls)
                continue;
            // Counters print as exact integers; ratios and times keep
            // ten significant digits, well inside the gate's 2% band.
            const double v = m.get(r);
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          v == std::floor(v) && std::fabs(v) < 9e15
                              ? "%s\"%s\":%.0f"
                              : "%s\"%s\":%.10g",
                          sep, m.name, v);
            out += buf;
            sep = ",";
        }
    }
    return out + "}";
}

} // namespace retcon::api
