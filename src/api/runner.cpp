#include "api/runner.hpp"

#include <algorithm>
#include <chrono>

#include "api/datm_envelope.hpp"
#include "sim/logging.hpp"
#include "trace/shard_mux.hpp"
#include "trace/stream.hpp"

namespace retcon::api {

htm::TMConfig
eagerConfig()
{
    htm::TMConfig cfg;
    cfg.mode = htm::TMMode::Eager;
    cfg.cmPolicy = htm::CMPolicy::OldestWins;
    return cfg;
}

htm::TMConfig
lazyVbConfig()
{
    htm::TMConfig cfg = eagerConfig();
    cfg.mode = htm::TMMode::LazyVB;
    return cfg;
}

htm::TMConfig
retconConfig()
{
    htm::TMConfig cfg = eagerConfig();
    cfg.mode = htm::TMMode::Retcon;
    return cfg;
}

htm::TMConfig
serialConfig()
{
    htm::TMConfig cfg;
    cfg.mode = htm::TMMode::Serial;
    return cfg;
}

std::vector<ConfigPoint>
paperConfigs()
{
    return {
        {"eager", eagerConfig()},
        {"lazy-vb", lazyVbConfig()},
        {"RetCon", retconConfig()},
    };
}

RunResult
runOnce(const RunConfig &cfg)
{
    sim_assert(cfg.clusters >= 1, "clusters must be >= 1");
    if (cfg.trace.ringCapacity != 0)
        fatal("trace.ringCapacity %zu: runs keep no trace rings; use "
              "trace.streamPath or trace.captureInto to retain records",
              cfg.trace.ringCapacity);
    workloads::WorkloadParams params;
    params.nthreads = cfg.nthreads * cfg.clusters;
    params.seed = cfg.seed;
    params.scale = cfg.scale;
    params.servicePartitions = cfg.servicePartitions;
    params.clusters = cfg.clusters;
    params.crossClusterFraction = cfg.crossClusterFraction;
    params.annotatePhases = cfg.annotatePhases;
    params.arenaBytes = arenaBytesFor(cfg.tm.mode, params.nthreads);

    // Resolve the scenario before anything else so a typo fails fast.
    // The runtime owns the plan for the whole run; the workload reads
    // it through params.scenario, machine-level fault overlays are
    // installed below once the fleet exists.
    std::unique_ptr<scenario::Runtime> scenarioRt;
    if (!cfg.scenario.empty()) {
        const scenario::Scenario *sc =
            scenario::scenarioByName(cfg.scenario);
        if (sc == nullptr)
            fatal("unknown scenario '%s' (see --list-scenarios)",
                  cfg.scenario.c_str());
        sim_assert(cfg.workload == "service",
                   "scenario '%s' requires the service workload, not "
                   "%s",
                   cfg.scenario.c_str(), cfg.workload.c_str());
        scenario::Env env;
        env.seed = cfg.seed;
        env.scale = cfg.scale;
        env.nthreads = params.nthreads;
        env.clusters = cfg.clusters;
        scenarioRt = std::make_unique<scenario::Runtime>(*sc, env);
        params.scenario = scenarioRt.get();
    }
    auto workload = workloads::makeWorkload(cfg.workload, params);

    // nthreads/shards/memBanks size ONE cluster; the Fleet multiplies
    // them. At clusters == 1 the config passes through untouched and
    // no interconnect is built — bit-identical to pre-fleet runs.
    exec::ClusterConfig ccfg;
    ccfg.numThreads = cfg.nthreads;
    ccfg.seed = cfg.seed;
    ccfg.tm = cfg.tm;
    ccfg.maxCycles = cfg.maxCycles;
    ccfg.numShards = cfg.shards;
    ccfg.shardBandwidth = cfg.shardBandwidth;
    ccfg.shardWorkStealing = cfg.shardWorkStealing;
    ccfg.memBanks = cfg.memBanks;
    ccfg.timing.bankOccupancy = cfg.memBankOccupancy;
    ccfg.sched = cfg.sched;
    // Either switch engages the scheduler: the RunConfig-level bool
    // is the convenient knob, sched.enabled the embedded master
    // switch — honoring both means neither silently wins.
    ccfg.sched.enabled = cfg.contentionSched || cfg.sched.enabled;

    net::NetConfig ncfg;
    ncfg.topology = net::topologyFromName(cfg.netTopology.c_str());
    ncfg.linkLatency = cfg.netLatency;
    ncfg.linkBandwidth = cfg.netBandwidth;

    exec::Fleet fleet(ccfg, cfg.clusters, ncfg);
    exec::Cluster &cluster = fleet.cluster();

    // Machine-level fault overlays from the scenario plan. Both are
    // windows over simulated time keyed on addresses/link indices —
    // pure functions of simulated state, so the determinism contract
    // (shards, banks) is untouched.
    if (scenarioRt) {
        const scenario::FaultConfig &f = scenarioRt->plan().fault;
        if (f.bankSlow) {
            mem::MemorySystem::BankFault bf;
            bf.sliceMod = f.bankSliceMod;
            bf.sliceVictim = f.bankSliceVictim;
            bf.period = f.bankPeriod;
            bf.len = f.bankLen;
            bf.offset = f.bankOffset;
            bf.extra = f.bankExtra;
            cluster.memorySystem().setBankFault(bf);
        }
        if (f.linkDegrade) {
            if (net::Interconnect *n = fleet.net()) {
                net::Interconnect::LinkFault lf;
                lf.link = static_cast<unsigned>(f.linkSelector %
                                                n->numLinks());
                lf.period = f.linkPeriod;
                lf.len = f.linkLen;
                lf.offset = f.linkOffset;
                lf.latencyMult = f.linkLatencyMult;
                n->setLinkFault(lf);
            }
            // No interconnect at clusters == 1: the fault is inert by
            // definition (nothing to degrade), not dropped — the
            // scenario still runs its arrival/shift families.
        }
    }

    // Optional provenance/audit instrumentation. The sinks must
    // outlive the run; the validator reads architectural memory, so it
    // is built against this cluster instance. The mux keeps per-shard
    // counters only; every consumer — validator, stream writer,
    // capture — is a live downstream fed the merged stream, which
    // arrives in machine-global seq order by construction.
    std::unique_ptr<trace::ShardMux> mux;
    std::unique_ptr<trace::ReenactmentValidator> validator;
    std::unique_ptr<trace::StreamWriter> streamWriter;
    std::unique_ptr<trace::CaptureSink> capture;
    if (cfg.trace.enabled) {
        mux = std::make_unique<trace::ShardMux>(
            cluster.numShards(),
            [&cluster](CoreId core) { return cluster.shardOf(core); });
        if (cfg.trace.validate) {
            validator = std::make_unique<trace::ReenactmentValidator>(
                [&cluster](Addr a) {
                    return cluster.memory().readWord(a);
                });
            mux->addDownstream(validator.get());
        }
        if (!cfg.trace.streamPath.empty()) {
            streamWriter = std::make_unique<trace::StreamWriter>(
                cfg.trace.streamPath);
            mux->addDownstream(streamWriter.get());
        }
        if (cfg.trace.captureInto) {
            capture = std::make_unique<trace::CaptureSink>(
                *cfg.trace.captureInto);
            mux->addDownstream(capture.get());
        }
        cluster.setTraceSink(mux.get());
    }

    workload->setup(cluster);
    cluster.start(workload->program());

    RunResult result;
    auto host0 = std::chrono::steady_clock::now();
    result.cycles = cluster.run();
    result.hostWallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - host0)
                            .count();
    result.breakdown = cluster.aggregateBreakdown();
    result.coreStats = cluster.aggregateStats();
    result.machineStats = cluster.machine().stats();
    result.validation = workload->validate(cluster);
    if (!result.validation.ok) {
        warn("workload %s failed validation: %s", cfg.workload.c_str(),
             result.validation.note.c_str());
    }

    result.shards.resize(cluster.numShards());
    for (unsigned s = 0; s < cluster.numShards(); ++s) {
        ShardSummary &sum = result.shards[s];
        exec::CoreStats cs = cluster.shardCoreStats(s);
        sum.txns = cs.txns;
        sum.commits = cs.commits;
        sum.aborts = cs.aborts;
        const auto &qs = cluster.shardQueueStats(s);
        sum.queueScheduled = qs.scheduled;
        sum.queueExecuted = qs.executed;
        sum.queueStolen = qs.stolen;
        sum.queueDeferred = qs.deferred;
        if (mux) {
            sum.traceEvents = mux->counters(s).events;
            sum.repairs = mux->counters(s).repairs;
            sum.forwards = mux->counters(s).forwards;
        }
        exec::ContentionScheduler::Stats sched = cluster.schedStats(s);
        sum.schedObserved = sched.observed;
        sum.schedDefers = sched.defers;
        sum.schedDeferCycles = sched.deferCycles;
    }

    result.banks.resize(cluster.numBanks());
    for (unsigned b = 0; b < cluster.numBanks(); ++b) {
        BankSummary &sum = result.banks[b];
        const auto &bs = cluster.memorySystem().bankStats(b);
        sum.requests = bs.requests;
        sum.stalled = bs.stalled;
        sum.stallCycles = bs.stallCycles;
        const auto &ts = cluster.machine().bankTokenStats(b);
        sum.tokenAcquires = ts.acquires;
        sum.tokenWaits = ts.waits;
    }

    if (const net::Interconnect *n = fleet.net()) {
        result.net.messages = n->totalMessages();
        result.net.payloadWords = n->totalPayloadWords();
        result.net.queueCycles = n->totalQueueCycles();
        result.net.links.resize(n->numLinks());
        for (unsigned l = 0; l < n->numLinks(); ++l) {
            const auto &ls = n->linkStats(l);
            NetLinkSummary &sum = result.net.links[l];
            sum.src = ls.src;
            sum.dst = ls.dst;
            sum.messages = ls.messages;
            sum.payloadWords = ls.payloadWords;
            sum.queueCycles = ls.queueCycles;
        }
    }

    if (scenarioRt) {
        ScenarioSummary &sum = result.scenario;
        const scenario::Plan &plan = scenarioRt->plan();
        const scenario::Runtime::Stats &st = scenarioRt->stats();
        sum.name = scenarioRt->scenario().name;
        sum.openLoop = plan.arrival.open();
        sum.phases = plan.shift.phases;
        sum.injected = st.injected;
        sum.completed = st.completed;
        sum.dropped = st.dropped;
        sum.peakBacklog = st.peakBacklog;
        sum.latencySum = st.latencySum;
        sum.latencyMax = st.latencyMax;
        sum.phaseMarks = st.phaseMarks;
        sum.stallHits = st.stallHits;
        sum.stallCycles = st.stallCycles;
        sum.bankFaultStalls = cluster.memorySystem().bankFaultStalls();
        sum.bankFaultCycles = cluster.memorySystem().bankFaultCycles();
        if (const net::Interconnect *n = fleet.net()) {
            sum.linkFaultMessages = n->faultMessages();
            sum.linkFaultCycles = n->faultExtraCycles();
        }
    }

    if (validator) {
        result.reenact = validator->report();
        if (!result.reenact.ok()) {
            warn("workload %s failed reenactment audit: %s",
                 cfg.workload.c_str(),
                 result.reenact.summary().c_str());
        }
    }
    if (streamWriter) {
        streamWriter->close();
        const trace::StreamWriter::Stats &ws = streamWriter->stats();
        result.traceStream.records = ws.records;
        result.traceStream.bytesWritten = ws.bytesWritten;
        result.traceStream.flushes = ws.flushes;
        result.traceStream.flushWallMs = ws.flushWallMs;
    }
    if (mux)
        result.traceEvents = mux->totalEvents();
    return result;
}

std::string
sizeError(const RunConfig &cfg, const SizeNames &names)
{
    auto range = [](const char *what, std::uint64_t v, std::uint64_t hi) {
        return std::string(what) + " " + std::to_string(v) +
               " is out of range 1.." + std::to_string(hi);
    };
    if (cfg.nthreads < 1 || cfg.nthreads > 64)
        return range(names.nthreads, cfg.nthreads, 64);
    if (cfg.shards < 1 || cfg.shards > cfg.nthreads)
        return range(names.shards, cfg.shards, cfg.nthreads) + " (" +
               names.nthreads + ")";
    if (cfg.memBanks < 1 || cfg.memBanks > 64)
        return range(names.memBanks, cfg.memBanks, 64);
    const unsigned most = 64 / std::max(cfg.nthreads, cfg.memBanks);
    if (cfg.clusters < 1 || cfg.clusters > most)
        return range(names.clusters, cfg.clusters, most) +
               " (64 cores and 64 banks fleet-wide)";
    return "";
}

Cycle
sequentialCycles(const RunConfig &cfg)
{
    RunConfig seq = cfg;
    seq.nthreads = 1;
    seq.shards = 1; // A single core needs (and permits) one shard.
    seq.clusters = 1;
    seq.crossClusterFraction = 0.0;
    seq.tm = serialConfig();
    return runOnce(seq).cycles;
}

} // namespace retcon::api
