/**
 * @file
 * Benchmark program for the four named workloads of BENCHMARK.json.
 *
 * Two modes, one process each (benchmark/run.py launches both):
 *
 *  - e2e (default): run the workload's pass — a fixed list of
 *    api::runOnce calls — again and again until --seconds of host time
 *    have passed (or exactly --passes times). Every run has the audit
 *    on. Before each runOnce it also builds the same run's
 *    workload and fleet once on its own and times only that, which is
 *    the set-up time users pay per run.
 *  - traced (--traced): one pass whose runs are composed from the public
 *    calls runOnce makes, each call timed from outside, with every
 *    trace sink wrapped in a TimedSink. Spans go to
 *    <out-dir>/spans.<workload>.json.
 *
 * Checks run on every run; a failed check is listed in the output and
 * makes the exit status 1. The last line of stdout is one JSON document
 * with the raw per-pass numbers; run.py turns it into metrics.
 *
 * Usage: retcon_bench --workload W --seed N --out-dir DIR
 *                     [--seconds S | --passes P] [--traced]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/datm_envelope.hpp"
#include "api/runner.hpp"
#include "exec/fleet.hpp"
#include "query/replay.hpp"
#include "scenario/scenario.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"
#include "trace/stream.hpp"
#include "workloads/workload.hpp"

using namespace retcon;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workload definitions ---------------------------------------------

/** One run of a pass. */
struct Job {
    std::string label;   ///< "<program>/<mode>[/<point>]", for reports.
    std::string program; ///< Workload (Figure 9 program or "service").
    std::string mode;    ///< serial | eager | lazy-vb | retcon.
    api::RunConfig cfg;
    bool streamed = false; ///< Streams an .rtt, replayed after the run.
};

/// Simulated cores, as in Table 1.
constexpr unsigned kCores = 32;

void
enableAudit(api::RunConfig &cfg)
{
    cfg.trace.enabled = true;
    cfg.trace.ringCapacity = 0;
    cfg.trace.validate = true;
}

/** The paper's Figure 9: 14 programs x {serial, eager, lazy-vb, RETCON}
 *  at fig9_scalability's sizing. */
std::vector<Job>
paperFig9(std::uint64_t seed)
{
    std::vector<Job> jobs;
    for (const std::string &name : workloads::workloadNames()) {
        if (name == "bayes")
            continue; // Figure 9 excludes bayes.
        api::RunConfig base;
        base.workload = name;
        base.nthreads = kCores;
        base.scale = 0.4;
        base.seed = seed;
        enableAudit(base);

        api::RunConfig serial = base; // api::sequentialCycles' config.
        serial.nthreads = 1;
        serial.tm = api::serialConfig();
        jobs.push_back({name + "/serial", name, "serial", serial});
        const std::pair<const char *, htm::TMConfig> modes[] = {
            {"eager", api::eagerConfig()},
            {"lazy-vb", api::lazyVbConfig()},
            {"retcon", api::retconConfig()},
        };
        for (const auto &[mode, tm] : modes) {
            api::RunConfig cfg = base;
            cfg.tm = tm;
            jobs.push_back({name + "/" + mode, name, mode, cfg});
        }
    }
    return jobs;
}

/** bench/service_scalability's sizing: the (1,1,1) monolith with every
 *  conflict knob off, or the (4,4,4) top point with them on. */
api::RunConfig
servicePoint(std::uint64_t seed, bool top, const htm::TMConfig &tm)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = kCores;
    cfg.scale = 1.0;
    cfg.seed = seed;
    cfg.tm = tm;
    cfg.tm.commitTokenArbitration = true;
    cfg.shardBandwidth = 1;
    cfg.memBankOccupancy = 8;
    if (top) {
        cfg.shards = 4;
        cfg.memBanks = 4;
        cfg.servicePartitions = 4;
        cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
        cfg.tm.backoff.base = 1;
        cfg.tm.backoff.cap = 16;
        cfg.contentionSched = true;
    }
    enableAudit(cfg);
    return cfg;
}

/**
 * The seeds one pass covers: @p seed itself, then seed + 1000, + 2000,
 * and so on. A service run's simulated work moves by several percent
 * from seed to seed, so the short service passes average a few seeds.
 * Labels carry "@<seed>" from the second seed on.
 */
std::vector<std::pair<std::uint64_t, std::string>>
passSeeds(std::uint64_t seed, unsigned n)
{
    std::vector<std::pair<std::uint64_t, std::string>> out;
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t s = seed + 1000 * i;
        out.push_back({s, i == 0 ? "" : "@" + std::to_string(s)});
    }
    return out;
}

std::vector<Job>
serviceClosed(std::uint64_t seed)
{
    std::vector<Job> jobs;
    for (const auto &[s, tag] : passSeeds(seed, 4)) {
        jobs.push_back({"service/retcon/1x1x1" + tag, "service", "retcon",
                        servicePoint(s, false, api::retconConfig())});
        jobs.push_back({"service/retcon/4x4x4" + tag, "service", "retcon",
                        servicePoint(s, true, api::retconConfig())});
        jobs.push_back({"service/lazy-vb/4x4x4" + tag, "service",
                        "lazy-vb", servicePoint(s, true, api::lazyVbConfig())});
    }
    return jobs;
}

std::vector<Job>
serviceOpen(std::uint64_t seed)
{
    std::vector<Job> jobs;
    for (const auto &[s, tag] : passSeeds(seed, 4)) {
        for (const char *sc : {"poisson-open", "bursty-onoff", "storm"}) {
            api::RunConfig cfg = servicePoint(s, true, api::retconConfig());
            cfg.scenario = sc;
            jobs.push_back({std::string("service/retcon/4x4x4/") + sc + tag,
                            "service", "retcon", cfg});
        }
    }
    return jobs;
}

std::vector<Job>
traceAlwaysOn(std::uint64_t seed, const std::string &rtt_path)
{
    api::RunConfig audit = servicePoint(seed, true, api::retconConfig());
    api::RunConfig streamed = audit;
    streamed.trace.streamPath = rtt_path;
    return {
        {"service/retcon/4x4x4/audit", "service", "retcon", audit},
        {"service/retcon/4x4x4/stream", "service", "retcon", streamed,
         true},
    };
}

// ---- Reading results ----------------------------------------------------

/**
 * The simulated outcome of one run: everything the benchmark reports
 * or checks, and nothing host-timed, so two runs of one config must
 * compare equal field for field.
 */
struct RunStats {
    Cycle cycles = 0;
    std::uint64_t txns = 0, commits = 0, aborts = 0;
    std::uint64_t traceEvents = 0, repairs = 0;
    std::uint64_t events = 0, stolen = 0, slipped = 0;
    std::uint64_t schedDefers = 0, schedDeferCycles = 0;
    double busy = 0, conflict = 0, barrier = 0, other = 0;
    std::uint64_t nacks = 0, tokenWaits = 0, tokenSteals = 0;
    std::uint64_t backoffCycles = 0, lazyValueMismatch = 0;
    double commitCycles = 0, txnCycles = 0;
    double blocksLostSum = 0;
    std::uint64_t blocksLostCount = 0;
    std::uint64_t bankRequests = 0, bankStalled = 0, bankStallCycles = 0;
    bool openLoop = false;
    std::uint64_t injected = 0, completed = 0, dropped = 0;
    std::uint64_t peakBacklog = 0, latencySum = 0, latencyMax = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t streamRecords = 0, streamBytes = 0, streamFlushes = 0;
    std::uint64_t replayPeakOpen = 0; ///< Set from the replay, if any.
    bool validationOk = false;
    std::string validationNote;
    bool auditOk = false;
    std::uint64_t skippedChains = 0;
    std::string auditSummary;

    bool operator==(const RunStats &) const = default;
};

/** The one place the benchmark reads an api::RunResult. */
RunStats
collect(const api::RunResult &r)
{
    RunStats s;
    s.cycles = r.cycles;
    s.txns = r.coreStats.txns;
    s.commits = r.coreStats.commits;
    s.aborts = r.coreStats.aborts;
    s.traceEvents = r.traceEvents;
    for (const api::ShardSummary &sh : r.shards) {
        s.repairs += sh.repairs;
        s.events += sh.queueExecuted;
        s.stolen += sh.queueStolen;
        s.slipped += sh.queueDeferred;
        s.schedDefers += sh.schedDefers;
        s.schedDeferCycles += sh.schedDeferCycles;
    }
    s.busy = r.breakdown.busy;
    s.conflict = r.breakdown.conflict;
    s.barrier = r.breakdown.barrier;
    s.other = r.breakdown.other;
    const htm::MachineStats &m = r.machineStats;
    s.nacks = m.nacks;
    s.tokenWaits = m.tokenWaits;
    s.tokenSteals = m.tokenSteals;
    s.backoffCycles = m.backoffCycles;
    s.lazyValueMismatch = m.abortsLazyValueMismatch;
    s.commitCycles = m.totalCommitCycles;
    s.txnCycles = m.totalTxnCycles;
    s.blocksLostSum = m.blocksLost.sum();
    s.blocksLostCount = m.blocksLost.count();
    for (const api::BankSummary &b : r.banks) {
        s.bankRequests += b.requests;
        s.bankStalled += b.stalled;
        s.bankStallCycles += b.stallCycles;
    }
    const api::ScenarioSummary &sc = r.scenario;
    s.openLoop = sc.openLoop;
    s.injected = sc.injected;
    s.completed = sc.completed;
    s.dropped = sc.dropped;
    s.peakBacklog = sc.peakBacklog;
    s.latencySum = sc.latencySum;
    s.latencyMax = sc.latencyMax;
    s.stallCycles = sc.stallCycles;
    s.streamRecords = r.traceStream.records;
    s.streamBytes = r.traceStream.bytesWritten;
    s.streamFlushes = r.traceStream.flushes;
    s.validationOk = r.validation.ok;
    s.validationNote = r.validation.note;
    s.auditOk = r.reenact.ok();
    s.skippedChains = r.reenact.forwardedCommitsSkipped;
    s.auditSummary = r.reenact.summary();
    return s;
}

// ---- Checks ---------------------------------------------------------------

/** Failed checks, one line each; a run fails if it adds any. */
struct Checks {
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one run; @return a recorder that marks it failed once. */
    struct Run {
        Checks &c;
        std::string label;
        bool bad = false;

        void
        require(bool ok, const std::string &what)
        {
            if (ok)
                return;
            c.failures.push_back(label + ": " + what);
            if (!bad)
                ++c.failed;
            bad = true;
        }
    };

    Run
    run(const std::string &label)
    {
        ++attempted;
        return Run{*this, label};
    }
};

void
checkRun(Checks::Run &chk, const RunStats &s)
{
    chk.require(s.validationOk, "workload validation: " + s.validationNote);
    chk.require(s.auditOk, "reenactment audit: " + s.auditSummary);
    chk.require(s.skippedChains == 0, "audit skipped forwarding chains");
    chk.require(s.cycles > 0 && s.commits > 0, "run committed nothing");
    if (s.openLoop) {
        chk.require(s.injected > 0, "open loop injected no requests");
        chk.require(s.injected == s.completed + s.dropped,
                    "arrival ledger: injected != completed + dropped");
    }
}

/** Checks on a streamed run against its replay and its audit-only twin. */
void
checkStream(Checks::Run &chk, const RunStats &streamed,
            const RunStats &audit_only,
            const query::StreamValidateResult &v)
{
    chk.require(streamed.cycles == audit_only.cycles,
                "streaming changed the simulated cycles");
    chk.require(streamed.streamRecords == streamed.traceEvents &&
                    v.recordsRead == streamed.traceEvents,
                "stream records: writer " +
                    std::to_string(streamed.streamRecords) + ", events " +
                    std::to_string(streamed.traceEvents) + ", replay " +
                    std::to_string(v.recordsRead));
    chk.require(v.ok(), "replay verdict: " +
                            (v.streamOk ? v.replay.report.summary()
                                        : v.error));
    chk.require(v.replay.peakOpenAttempts <= kCores,
                "replay held more open attempts than cores");
}

// ---- Composing a run from runOnce's public calls ------------------------

workloads::WorkloadParams
paramsFor(const api::RunConfig &cfg)
{
    workloads::WorkloadParams p;
    p.nthreads = cfg.nthreads * cfg.clusters;
    p.seed = cfg.seed;
    p.scale = cfg.scale;
    p.servicePartitions = cfg.servicePartitions;
    p.clusters = cfg.clusters;
    p.crossClusterFraction = cfg.crossClusterFraction;
    p.annotatePhases = cfg.annotatePhases;
    p.arenaBytes = api::arenaBytesFor(cfg.tm.mode, p.nthreads);
    return p;
}

std::unique_ptr<scenario::Runtime>
scenarioFor(const api::RunConfig &cfg)
{
    if (cfg.scenario.empty())
        return nullptr;
    const scenario::Scenario *sc = scenario::scenarioByName(cfg.scenario);
    if (sc == nullptr) {
        std::fprintf(stderr, "unknown scenario %s\n", cfg.scenario.c_str());
        std::exit(2);
    }
    scenario::Env env;
    env.seed = cfg.seed;
    env.scale = cfg.scale;
    env.nthreads = cfg.nthreads * cfg.clusters;
    env.clusters = cfg.clusters;
    return std::make_unique<scenario::Runtime>(*sc, env);
}

std::unique_ptr<exec::Fleet>
fleetFor(const api::RunConfig &cfg, const scenario::Runtime *rt)
{
    exec::ClusterConfig cc;
    cc.numThreads = cfg.nthreads;
    cc.seed = cfg.seed;
    cc.tm = cfg.tm;
    cc.maxCycles = cfg.maxCycles;
    cc.numShards = cfg.shards;
    cc.shardBandwidth = cfg.shardBandwidth;
    cc.shardWorkStealing = cfg.shardWorkStealing;
    cc.memBanks = cfg.memBanks;
    cc.timing.bankOccupancy = cfg.memBankOccupancy;
    cc.sched = cfg.sched;
    cc.sched.enabled = cfg.contentionSched || cfg.sched.enabled;
    net::NetConfig nc;
    nc.topology = net::topologyFromName(cfg.netTopology.c_str());
    nc.linkLatency = cfg.netLatency;
    nc.linkBandwidth = cfg.netBandwidth;
    auto fleet = std::make_unique<exec::Fleet>(cc, cfg.clusters, nc);
    if (rt != nullptr) {
        const scenario::FaultConfig &f = rt->plan().fault;
        if (f.bankSlow) {
            mem::MemorySystem::BankFault bf;
            bf.sliceMod = f.bankSliceMod;
            bf.sliceVictim = f.bankSliceVictim;
            bf.period = f.bankPeriod;
            bf.len = f.bankLen;
            bf.offset = f.bankOffset;
            bf.extra = f.bankExtra;
            fleet->cluster().memorySystem().setBankFault(bf);
        }
        if (f.linkDegrade && fleet->net() != nullptr) {
            net::Interconnect *n = fleet->net();
            net::Interconnect::LinkFault lf;
            lf.link = static_cast<unsigned>(f.linkSelector % n->numLinks());
            lf.period = f.linkPeriod;
            lf.len = f.linkLen;
            lf.offset = f.linkOffset;
            lf.latencyMult = f.linkLatencyMult;
            n->setLinkFault(lf);
        }
    }
    return fleet;
}

/** Everything a run is built from, in runOnce's order. */
struct Machine {
    std::unique_ptr<scenario::Runtime> scenario;
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<exec::Fleet> fleet;
};

/** The scenario runtime and the workload, as runOnce makes them. */
void
makeWorkload(Machine &m, const api::RunConfig &cfg)
{
    m.scenario = scenarioFor(cfg);
    workloads::WorkloadParams p = paramsFor(cfg);
    p.scenario = m.scenario.get();
    m.workload = workloads::makeWorkload(cfg.workload, p);
}

/** Set-up alone, as runOnce does it: workload, fleet, initial memory.
 *  @return host seconds, excluding the teardown. */
double
timeSetup(const api::RunConfig &cfg)
{
    Clock::time_point t0 = Clock::now();
    Machine m;
    makeWorkload(m, cfg);
    m.fleet = fleetFor(cfg, m.scenario.get());
    m.workload->setup(m.fleet->cluster());
    return secondsSince(t0);
}

// ---- Spans ----------------------------------------------------------------

/** One timed call: name, start, end (ns from the pass start), the span
 *  that caused it, and the run it belongs to (-1 = the pass). */
struct Span {
    const char *name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    int run;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : _origin(origin) {}

    int
    open(const char *name, int run)
    {
        _spans.push_back({name, nowNs(), -1, _current, run});
        _current = static_cast<int>(_spans.size()) - 1;
        return _current;
    }

    /** Close span @p id; @return its duration (ns). */
    std::int64_t
    close(int id)
    {
        _spans[id].end = nowNs();
        _current = _spans[id].parent;
        return _spans[id].end - _spans[id].start;
    }

    /** Run @p f inside a span; @return the span's duration (ns). */
    template <class F>
    std::int64_t
    time(const char *name, int run, F &&f)
    {
        int id = open(name, run);
        f();
        return close(id);
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    Clock::time_point _origin;
    std::vector<Span> _spans;
    int _current = -1;
};

/** Wraps a trace sink: counts records and the ns spent in onEvent. */
class TimedSink final : public trace::TraceSink
{
  public:
    explicit TimedSink(trace::TraceSink &inner) : _inner(inner) {}

    void
    onEvent(const trace::Record &r) override
    {
        Clock::time_point t0 = Clock::now();
        _inner.onEvent(r);
        _ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count();
        ++_records;
    }

    std::int64_t ns() const { return _ns; }
    std::uint64_t records() const { return _records; }

  private:
    trace::TraceSink &_inner;
    std::int64_t _ns = 0;
    std::uint64_t _records = 0;
};

/** Self time (ns) per layer of one traced run. The sinks are timed in
 *  aggregate inside sim.run, so they are split out of it here. */
struct LayerNs {
    std::int64_t workloadsBuild = 0, execBuild = 0, traceBuild = 0;
    std::int64_t workloadsSetup = 0, execStart = 0;
    std::int64_t simRun = 0;  ///< Cluster::run, sinks included.
    std::int64_t simCore = 0; ///< Cluster::run minus the sinks.
    std::int64_t traceMux = 0, traceValidator = 0, traceWriter = 0;
    std::int64_t workloadsValidate = 0, execTeardown = 0;
    std::int64_t queryReplay = 0, benchCollect = 0;
    std::int64_t wall = 0;

    std::int64_t
    attributed() const
    {
        return workloadsBuild + execBuild + traceBuild + workloadsSetup +
               execStart + simCore + traceMux + traceValidator +
               traceWriter + workloadsValidate + execTeardown +
               queryReplay;
    }
};

/** What a traced run reports besides spans. */
struct TracedRun {
    std::string label;
    Cycle cycles = 0;
    std::uint64_t commits = 0, aborts = 0, traceEvents = 0, events = 0;
    std::uint64_t records = 0; ///< Records through the mux.
    double l1Hits = 0, accesses = 0, dram = 0, cacheToCache = 0;
    LayerNs ns;
};

/**
 * One run composed from the calls runOnce makes, each timed from
 * outside. Construction and teardown order mirror runOnce.
 */
TracedRun
tracedRun(const Job &job, int run, SpanLog &log, Checks &checks)
{
    const api::RunConfig &cfg = job.cfg;
    TracedRun out;
    out.label = job.label;
    LayerNs &ns = out.ns;
    Checks::Run chk = checks.run(job.label + " (traced)");
    int root = log.open("run", run);

    Machine m;
    ns.workloadsBuild =
        log.time("workloads.build", run, [&] { makeWorkload(m, cfg); });
    ns.execBuild = log.time("exec.build", run, [&] {
        m.fleet = fleetFor(cfg, m.scenario.get());
    });
    exec::Cluster &cluster = m.fleet->cluster();

    std::unique_ptr<trace::ShardMux> mux;
    std::unique_ptr<trace::ReenactmentValidator> validator;
    std::unique_ptr<trace::StreamWriter> writer;
    std::unique_ptr<TimedSink> muxT, validatorT, writerT;
    ns.traceBuild = log.time("trace.build", run, [&] {
        mux = std::make_unique<trace::ShardMux>(
            cluster.numShards(),
            [&cluster](CoreId core) { return cluster.shardOf(core); },
            cfg.trace.ringCapacity);
        validator = std::make_unique<trace::ReenactmentValidator>(
            [&cluster](Addr a) { return cluster.memory().readWord(a); });
        validatorT = std::make_unique<TimedSink>(*validator);
        mux->addDownstream(validatorT.get());
        if (job.streamed) {
            writer =
                std::make_unique<trace::StreamWriter>(cfg.trace.streamPath);
            writerT = std::make_unique<TimedSink>(*writer);
            mux->addDownstream(writerT.get());
        }
        muxT = std::make_unique<TimedSink>(*mux);
        cluster.setTraceSink(muxT.get());
    });

    ns.workloadsSetup = log.time("workloads.setup", run,
                                 [&] { m.workload->setup(cluster); });
    ns.execStart = log.time("exec.start", run,
                            [&] { cluster.start(m.workload->program()); });
    ns.simRun = log.time("sim.run", run, [&] { out.cycles = cluster.run(); });
    ns.simCore = ns.simRun - muxT->ns();
    ns.traceValidator = validatorT->ns();
    ns.traceWriter = writerT ? writerT->ns() : 0;
    ns.traceMux = muxT->ns() - ns.traceValidator - ns.traceWriter;

    workloads::ValidationResult v;
    ns.workloadsValidate = log.time("workloads.validate", run,
                                    [&] { v = m.workload->validate(cluster); });
    if (writer)
        ns.traceWriter +=
            log.time("trace.writer_close", run, [&] { writer->close(); });

    ns.benchCollect = log.time("bench.collect", run, [&] {
        exec::CoreStats cs = cluster.aggregateStats();
        out.commits = cs.commits;
        out.aborts = cs.aborts;
        out.traceEvents = mux->totalEvents();
        out.records = muxT->records();
        for (unsigned s = 0; s < cluster.numShards(); ++s)
            out.events += cluster.shardQueueStats(s).executed;
        const StatSet &ms = cluster.memorySystem().stats();
        out.l1Hits = ms.get("l1_hits");
        out.accesses = ms.get("l1_hits") + ms.get("l2_hits") +
                       ms.get("read_misses") + ms.get("write_misses");
        out.dram = ms.get("dram_accesses");
        out.cacheToCache = ms.get("cache_to_cache");
        chk.require(v.ok, "workload validation: " + v.note);
        chk.require(validator->report().ok(),
                    "reenactment audit: " + validator->report().summary());
    });

    // runOnce's teardown order: sinks, then fleet, workload, scenario.
    ns.execTeardown = log.time("exec.teardown", run, [&] {
        writer.reset();
        validator.reset();
        mux.reset();
        m.fleet.reset();
        m.workload.reset();
        m.scenario.reset();
    });

    if (job.streamed) {
        query::StreamValidateResult rv;
        ns.queryReplay = log.time("query.replay", run, [&] {
            rv = query::validateStreamFile(cfg.trace.streamPath);
        });
        chk.require(rv.ok() && rv.recordsRead == out.traceEvents,
                    "replay of the traced stream");
        std::remove(cfg.trace.streamPath.c_str());
    }
    ns.wall = log.close(root);
    return out;
}

// ---- Output ---------------------------------------------------------------

/** Minimal JSON emitter for flat objects and arrays of numbers. */
class Json
{
  public:
    Json &
    key(const char *k)
    {
        sep();
        _s += '"';
        _s += k;
        _s += "\":";
        _fresh = true;
        return *this;
    }

    Json &
    num(double v)
    {
        sep();
        char buf[40];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        _s += buf;
        return *this;
    }

    Json &
    str(const std::string &v)
    {
        sep();
        _s += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                _s += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                _s += c;
        }
        _s += '"';
        return *this;
    }

    Json &
    open(char c)
    {
        sep();
        _s += c;
        _fresh = true;
        return *this;
    }

    Json &
    close(char c)
    {
        _s += c;
        _fresh = false;
        return *this;
    }

    Json &
    field(const char *k, double v)
    {
        return key(k).num(v);
    }

    const std::string &text() const { return _s; }

  private:
    void
    sep()
    {
        if (!_fresh && !_s.empty())
            _s += ',';
        _fresh = false;
    }

    std::string _s;
    bool _fresh = true;
};

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(v.size()));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Per-layer simulated metrics and the workload's own results, from one
 * pass's runs. Values with no runs to come from (say, eager speedups
 * outside paper-fig9) are 0.
 */
void
emitSimulated(Json &j, const std::vector<Job> &jobs,
              const std::vector<RunStats> &runs)
{
    RunStats sum;
    std::vector<double> perKcycle, sEager, sLazy, sRetcon, gain;
    double retconRepairs = 0, retconCommits = 0;
    double lostSum = 0, lostCount = 0;
    std::map<std::string, double> serialCycles, eagerCycles;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunStats &r = runs[i];
        const Job &job = jobs[i];
        sum.txns += r.txns;
        sum.commits += r.commits;
        sum.aborts += r.aborts;
        sum.traceEvents += r.traceEvents;
        sum.events += r.events;
        sum.stolen += r.stolen;
        sum.slipped += r.slipped;
        sum.schedDefers += r.schedDefers;
        sum.schedDeferCycles += r.schedDeferCycles;
        sum.busy += r.busy;
        sum.conflict += r.conflict;
        sum.barrier += r.barrier;
        sum.other += r.other;
        sum.nacks += r.nacks;
        sum.tokenWaits += r.tokenWaits;
        sum.tokenSteals += r.tokenSteals;
        sum.backoffCycles += r.backoffCycles;
        sum.lazyValueMismatch += r.lazyValueMismatch;
        sum.commitCycles += r.commitCycles;
        sum.txnCycles += r.txnCycles;
        sum.bankRequests += r.bankRequests;
        sum.bankStalled += r.bankStalled;
        sum.bankStallCycles += r.bankStallCycles;
        sum.injected += r.injected;
        sum.completed += r.completed;
        sum.dropped += r.dropped;
        sum.peakBacklog = std::max(sum.peakBacklog, r.peakBacklog);
        sum.latencySum += r.latencySum;
        sum.latencyMax = std::max(sum.latencyMax, r.latencyMax);
        sum.stallCycles += r.stallCycles;
        sum.streamRecords += r.streamRecords;
        sum.streamBytes += r.streamBytes;
        sum.streamFlushes += r.streamFlushes;
        sum.replayPeakOpen = std::max(sum.replayPeakOpen, r.replayPeakOpen);
        perKcycle.push_back(1000.0 * double(r.commits) / double(r.cycles));
        if (job.mode == "retcon") {
            retconRepairs += double(r.repairs);
            retconCommits += double(r.commits);
            lostSum += r.blocksLostSum;
            lostCount += double(r.blocksLostCount);
        }
        // Figure 9 lists each program's serial run first, then eager,
        // lazy-vb and RETCON; other workloads have no serial run.
        double cycles = double(r.cycles);
        if (job.mode == "serial")
            serialCycles[job.program] = cycles;
        auto seq = serialCycles.find(job.program);
        if (seq == serialCycles.end() || job.mode == "serial")
            continue;
        if (job.mode == "eager") {
            eagerCycles[job.program] = cycles;
            sEager.push_back(seq->second / cycles);
        } else if (job.mode == "lazy-vb") {
            sLazy.push_back(seq->second / cycles);
        } else if (job.mode == "retcon") {
            sRetcon.push_back(seq->second / cycles);
            gain.push_back(eagerCycles.at(job.program) / cycles);
        }
    }
    double coreCycles = sum.busy + sum.conflict + sum.barrier + sum.other;
    j.key("sim").open('{');
    j.field("commits_per_kcycle", geomean(perKcycle));
    j.field("sim.events", double(sum.events));
    j.field("sim.stolen", double(sum.stolen));
    j.field("sim.slipped", double(sum.slipped));
    j.field("exec.abort_ratio",
            ratio(double(sum.aborts), double(sum.commits + sum.aborts)));
    j.field("exec.conflict_frac", ratio(sum.conflict, coreCycles));
    j.field("exec.barrier_frac", ratio(sum.barrier, coreCycles));
    j.field("exec.sched_defers", double(sum.schedDefers));
    j.field("exec.sched_defer_cycles", double(sum.schedDeferCycles));
    j.field("htm.nacks", double(sum.nacks));
    j.field("htm.token_waits", double(sum.tokenWaits));
    j.field("htm.token_steals", double(sum.tokenSteals));
    j.field("htm.backoff_cycles", double(sum.backoffCycles));
    j.field("htm.commit_stall_pct",
            100.0 * ratio(sum.commitCycles, sum.txnCycles));
    j.field("htm.lazy_value_mismatch", double(sum.lazyValueMismatch));
    j.field("htm.speedup_geomean.eager", geomean(sEager));
    j.field("htm.speedup_geomean.lazy-vb", geomean(sLazy));
    j.field("speedup_geomean", geomean(sRetcon));
    j.field("retcon_gain", geomean(gain));
    j.field("retcon.repairs_per_commit", ratio(retconRepairs, retconCommits));
    j.field("retcon.blocks_lost_avg", ratio(lostSum, lostCount));
    j.field("mem.bank_stall_cycles", double(sum.bankStallCycles));
    j.field("mem.bank_stalled_frac",
            ratio(double(sum.bankStalled), double(sum.bankRequests)));
    j.field("goodput", ratio(double(sum.completed), double(sum.injected)));
    j.field("queue_latency_mean_cycles",
            ratio(double(sum.latencySum), double(sum.completed)));
    j.field("queue_latency_max_cycles", double(sum.latencyMax));
    j.field("scenario.dropped", double(sum.dropped));
    j.field("scenario.peak_backlog", double(sum.peakBacklog));
    j.field("scenario.stall_cycles", double(sum.stallCycles));
    j.field("trace.records", double(sum.traceEvents));
    j.field("trace.bytes_per_record",
            ratio(double(sum.streamBytes), double(sum.streamRecords)));
    j.field("trace.flushes", double(sum.streamFlushes));
    j.field("query.peak_open_attempts", double(sum.replayPeakOpen));
    j.close('}');

    // Per-run rows: the fingerprint run.py holds the traced pass to, and
    // the per-point split (monolith vs top point, RETCON per program).
    j.key("runs").open('[');
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunStats &r = runs[i];
        j.open('{');
        j.key("label").str(jobs[i].label);
        j.field("cycles", double(r.cycles));
        j.field("commits", double(r.commits));
        j.field("aborts", double(r.aborts));
        j.field("trace_events", double(r.traceEvents));
        j.field("events", double(r.events));
        j.close('}');
    }
    j.close(']');
}

/** Host-time share of the traced pass, per layer, summed over runs. */
void
emitLayers(Json &j, const std::vector<TracedRun> &runs, double pass_ns)
{
    LayerNs t;
    double events = 0, records = 0;
    double l1 = 0, acc = 0, dram = 0, c2c = 0;
    for (const TracedRun &r : runs) {
        t.workloadsBuild += r.ns.workloadsBuild;
        t.execBuild += r.ns.execBuild;
        t.traceBuild += r.ns.traceBuild;
        t.workloadsSetup += r.ns.workloadsSetup;
        t.execStart += r.ns.execStart;
        t.simRun += r.ns.simRun;
        t.simCore += r.ns.simCore;
        t.traceMux += r.ns.traceMux;
        t.traceValidator += r.ns.traceValidator;
        t.traceWriter += r.ns.traceWriter;
        t.workloadsValidate += r.ns.workloadsValidate;
        t.execTeardown += r.ns.execTeardown;
        t.queryReplay += r.ns.queryReplay;
        events += double(r.events);
        records += double(r.records);
        l1 += r.l1Hits;
        acc += r.accesses;
        dram += r.dram;
        c2c += r.cacheToCache;
    }
    const double ms = 1e-6;
    j.key("layers").open('{');
    j.field("workloads.build_ms", double(t.workloadsBuild) * ms);
    j.field("exec.build_ms", double(t.execBuild) * ms);
    j.field("workloads.setup_ms", double(t.workloadsSetup) * ms);
    j.field("sim.run_ms", double(t.simRun) * ms);
    j.field("sim.core_ns_per_event", ratio(double(t.simCore), events));
    j.field("trace.mux_ns_per_record", ratio(double(t.traceMux), records));
    j.field("trace.validator_ns_per_record",
            ratio(double(t.traceValidator), records));
    j.field("trace.writer_pct", 100.0 * ratio(double(t.traceWriter), pass_ns));
    j.field("query.replay_pct", 100.0 * ratio(double(t.queryReplay), pass_ns));
    j.field("workloads.validate_ms", double(t.workloadsValidate) * ms);
    j.field("exec.teardown_ms", double(t.execTeardown) * ms);
    j.field("bench.unattributed_pct",
            100.0 * ratio(pass_ns - double(t.attributed()), pass_ns));
    j.field("mem.l1_hit_ratio", ratio(l1, acc));
    j.field("mem.dram_accesses", dram);
    j.field("mem.cache_to_cache", c2c);
    j.close('}');
    j.field("traced_wall_s", pass_ns * 1e-9);
    j.key("runs").open('[');
    for (const TracedRun &r : runs) {
        j.open('{');
        j.key("label").str(r.label);
        j.field("cycles", double(r.cycles));
        j.field("commits", double(r.commits));
        j.field("aborts", double(r.aborts));
        j.field("trace_events", double(r.traceEvents));
        j.field("events", double(r.events));
        j.close('}');
    }
    j.close(']');
}

/** spans.<workload>.json: every span, plus per-run self times (ms). */
void
writeSpans(const std::string &path, const std::string &workload,
           std::uint64_t seed, const SpanLog &log,
           const std::vector<TracedRun> &runs)
{
    Json j;
    j.open('{');
    j.key("workload").str(workload);
    j.field("seed", double(seed));
    j.key("spans").open('[');
    for (const Span &s : log.spans()) {
        j.open('{');
        j.key("name").str(s.name);
        j.field("start_ns", double(s.start));
        j.field("end_ns", double(s.end));
        j.field("parent", s.parent);
        j.field("run", s.run);
        j.close('}');
    }
    j.close(']');
    j.key("runs").open('[');
    const double ms = 1e-6;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const LayerNs &n = runs[i].ns;
        j.open('{');
        j.field("run", double(i));
        j.key("label").str(runs[i].label);
        j.field("events", double(runs[i].events));
        j.field("records", double(runs[i].records));
        j.key("self_ms").open('{');
        j.field("workloads.build", double(n.workloadsBuild) * ms);
        j.field("exec.build", double(n.execBuild) * ms);
        j.field("trace.build", double(n.traceBuild) * ms);
        j.field("workloads.setup", double(n.workloadsSetup) * ms);
        j.field("exec.start", double(n.execStart) * ms);
        j.field("sim.core", double(n.simCore) * ms);
        j.field("trace.mux", double(n.traceMux) * ms);
        j.field("trace.validator", double(n.traceValidator) * ms);
        j.field("trace.writer", double(n.traceWriter) * ms);
        j.field("workloads.validate", double(n.workloadsValidate) * ms);
        j.field("exec.teardown", double(n.execTeardown) * ms);
        j.field("query.replay", double(n.queryReplay) * ms);
        j.field("bench.collect", double(n.benchCollect) * ms);
        j.field("run", double(n.wall - n.attributed() - n.benchCollect) * ms);
        j.close('}');
        j.close('}');
    }
    j.close(']');
    j.close('}');
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(2);
    }
    std::fprintf(f, "%s\n", j.text().c_str());
    std::fclose(f);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB.
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: retcon_bench --workload W --seed N "
                 "--out-dir DIR [--seconds S | --passes P] [--traced]\n"
                 "workloads: paper-fig9 service-closed service-open "
                 "trace-always-on\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, outDir;
    std::uint64_t seed = 0;
    double seconds = 0;
    int passes = 0;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(value().c_str());
        else if (a == "--passes")
            passes = std::atoi(value().c_str());
        else if (a == "--out-dir")
            outDir = value();
        else if (a == "--traced")
            traced = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (seed == 0 || outDir.empty())
        usage("--seed (>= 1) and --out-dir are required");
    if (!traced && seconds <= 0 && passes <= 0)
        usage("give --seconds or --passes");

    std::string rtt = outDir + "/stream." + workload + "." +
                      std::to_string(getpid()) + ".rtt";
    std::vector<Job> jobs;
    if (workload == "paper-fig9")
        jobs = paperFig9(seed);
    else if (workload == "service-closed")
        jobs = serviceClosed(seed);
    else if (workload == "service-open")
        jobs = serviceOpen(seed);
    else if (workload == "trace-always-on")
        jobs = traceAlwaysOn(seed, rtt);
    else
        usage(("unknown workload " + workload).c_str());

    Checks checks;
    Json j;
    j.open('{');
    j.key("workload").str(workload);
    j.field("seed", double(seed));
    j.key("mode").str(traced ? "traced" : "e2e");

    if (traced) {
        SpanLog log(Clock::now());
        std::vector<TracedRun> runs;
        int pass = log.open("pass", -1);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runs.push_back(tracedRun(jobs[i], int(i), log, checks));
        double passNs = double(log.close(pass));
        emitLayers(j, runs, passNs);
        writeSpans(outDir + "/spans." + workload + ".json", workload, seed,
                   log, runs);
    } else {
        std::vector<RunStats> first;
        Clock::time_point start = Clock::now();
        j.key("passes").open('[');
        for (int p = 0;; ++p) {
            if (passes > 0 ? p >= passes
                           : p > 0 && secondsSince(start) >= seconds)
                break;
            double runS = 0, setupS = 0, auditS = 0, streamS = 0;
            double replayS = 0, replayRecords = 0, events = 0;
            std::vector<RunStats> runs;
            for (const Job &job : jobs) {
                setupS += timeSetup(job.cfg);
                Clock::time_point t0 = Clock::now();
                api::RunResult r = api::runOnce(job.cfg);
                double dt = secondsSince(t0);
                runS += dt;
                (job.streamed ? streamS : auditS) += dt;
                RunStats s = collect(r);
                events += double(s.events);
                Checks::Run chk = checks.run(job.label);
                checkRun(chk, s);
                if (job.streamed) {
                    t0 = Clock::now();
                    query::StreamValidateResult v =
                        query::validateStreamFile(job.cfg.trace.streamPath);
                    replayS += secondsSince(t0);
                    replayRecords += double(v.recordsRead);
                    s.replayPeakOpen = v.replay.peakOpenAttempts;
                    std::remove(job.cfg.trace.streamPath.c_str());
                    checkStream(chk, s, runs.front(), v);
                }
                if (p > 0)
                    chk.require(s == first[runs.size()],
                                "simulated results differ from pass 1");
                runs.push_back(std::move(s));
            }
            j.open('{');
            j.field("wall_s", runS + replayS);
            j.field("setup_s", setupS);
            j.field("run_s", runS);
            j.field("events", events);
            j.field("audit_s", auditS);
            j.field("stream_s", streamS);
            j.field("replay_s", replayS);
            j.field("replay_records", replayRecords);
            j.close('}');
            if (p == 0)
                first = std::move(runs);
        }
        j.close(']');
        emitSimulated(j, jobs, first);
        j.field("peak_rss_mb", peakRssMb());
    }

    j.field("attempted", double(checks.attempted));
    j.field("failed", double(checks.failed));
    j.key("failures").open('[');
    for (const std::string &f : checks.failures)
        j.str(f);
    j.close(']');
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return checks.failed == 0 ? 0 : 1;
}
