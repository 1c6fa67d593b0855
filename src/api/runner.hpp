/**
 * @file
 * Public experiment API: run a Table 2 workload on the Table 1 machine
 * under a chosen TM configuration and collect everything the paper's
 * figures and tables report.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   api::RunConfig cfg;
 *   cfg.workload = "python_opt";
 *   cfg.tm = api::retconConfig();
 *   api::RunResult r = api::runOnce(cfg);
 *   double speedup = double(api::sequentialCycles(cfg)) / r.cycles;
 */

#ifndef RETCON_API_RUNNER_HPP
#define RETCON_API_RUNNER_HPP

#include <string>

#include "exec/cluster.hpp"
#include "exec/fleet.hpp"
#include "htm/machine.hpp"
#include "scenario/scenario.hpp"
#include "trace/reenact.hpp"
#include "workloads/workload.hpp"

namespace retcon::api {

/** Opt-in provenance/audit options for a run. */
struct TraceOptions {
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;

    /** Reenact every commit against architectural memory. */
    bool validate = true;

    /**
     * Must be 0: no run keeps trace rings, and every record leaves a
     * run through the live downstreams below. runOnce and
     * trace::ShardMux fail on a nonzero value. Kept for drivers that
     * pass it to their own trace::ShardMux.
     */
    std::size_t ringCapacity = 0;

    /**
     * When non-empty, stream every record to this .rtt file WHILE the
     * run is live (trace::StreamWriter attached as a mux downstream).
     * The file holds the complete dense stream no matter how long the
     * run is; RunResult::traceStream reports the writer's overhead.
     * The streamed file re-validates incrementally via
     * query::validateStreamFile (docs/trace-format.md).
     */
    std::string streamPath;

    /**
     * Programmatic capture: when set, every record is appended here
     * as the run emits it (a mux downstream, like the stream writer),
     * so it holds the complete dense stream in machine-global seq
     * order. This is how the what-if engine (api/whatif.hpp) and
     * retcon-query's `smoke` subcommand get at a run's records
     * without a filesystem round-trip. Must outlive the runOnce call.
     */
    std::vector<trace::Record> *captureInto = nullptr;
};

/** One experiment run description. */
struct RunConfig {
    std::string workload = "genome";
    unsigned nthreads = 32;
    htm::TMConfig tm{};
    std::uint64_t seed = 1;
    double scale = 1.0;
    Cycle maxCycles = 2'000'000'000ull;
    TraceOptions trace{};

    /**
     * Ask the workload to emit `user-mark` annotation records at its
     * phase boundaries (WorkerCtx::annotate). Currently honoured by
     * the `service` workload, which marks each worker's request-range
     * quarters; other workloads ignore it. No simulated-timing effect
     * — marks are audit-stream-only (docs/trace-query.md).
     */
    bool annotatePhases = false;

    /**
     * Event-queue shards (1..nthreads; cores map round-robin). With
     * shardBandwidth 0 results are bit-identical for any shard count;
     * a nonzero bandwidth models the per-shard dispatch serialization
     * sharding exists to remove (see docs/architecture.md).
     */
    unsigned shards = 1;
    unsigned shardBandwidth = 0; ///< Events/cycle/shard; 0 = unlimited.
    bool shardWorkStealing = true;

    /**
     * Directory banks in the memory system (1..64). Performance-
     * transparent (bit-identical results for any count) unless bank
     * contention is modeled: memBankOccupancy models directory-bank
     * queuing, tm.commitTokenArbitration models per-bank commit
     * tokens (see docs/architecture.md).
     */
    unsigned memBanks = 1;

    /** Cycles a directory bank is busy per request; 0 = unmodeled. */
    Cycle memBankOccupancy = 0;

    /**
     * Workload-side partitions for the `service` workload (session
     * hashtable + per-request-class job queues; ignored by the
     * Table 2 set). 1 = the unpartitioned layout, bit-identical to
     * pre-partitioning behaviour (docs/tuning.md).
     */
    unsigned servicePartitions = 1;

    /**
     * Contention-aware re-dispatch scheduling (exec/scheduler.hpp):
     * per-shard hot-block tables, fed by abort and commit-token
     * contention events, defer restarting a task whose last abort
     * blamed a hot block. Off (the default) reproduces immediate
     * re-dispatch exactly; NACK-retry backoff is configured
     * separately via tm.backoff (htm::BackoffConfig).
     */
    bool contentionSched = false;

    /** Scheduler switch. The scheduler engages when either this
     *  struct's own `enabled` or `contentionSched` above is set. */
    exec::SchedulerConfig sched{};

    /**
     * Clusters in the fleet (1 = the plain single-cluster machine,
     * bit-identical to pre-fleet runs). With clusters > 1, nthreads /
     * shards / memBanks / servicePartitions are PER-CLUSTER sizes —
     * the fleet multiplies them — and fleet-wide totals must respect
     * the machine limits (64 cores, 64 banks). Clusters interact only
     * over the modeled interconnect: remote coherence misses, and the
     * two-level commit protocol's remote-bank token messages (see
     * docs/fleet.md).
     */
    unsigned clusters = 1;

    /** Interconnect wiring: "crossbar" or "ring" (docs/fleet.md). */
    std::string netTopology = "crossbar";

    /** Cycles per interconnect link traversal (one hop). */
    Cycle netLatency = 50;

    /** Words/cycle per directed link; 0 = unlimited (no queueing). */
    unsigned netBandwidth = 0;

    /**
     * Fraction of `service` requests whose session/queue accesses are
     * routed to a uniformly-chosen remote cluster's state (0 = fully
     * partitioned; ignored at clusters == 1, where the routing draw
     * is never made).
     */
    double crossClusterFraction = 0.0;

    /**
     * Named scenario from the scenario registry (src/scenario/,
     * docs/scenarios.md): open-loop arrival processes, mid-run
     * mix/hotset shifts, and deterministic fault windows for the
     * `service` workload. Empty (the default) is the plain stationary
     * run, bit-identical to pre-scenario behaviour. runOnce fatal()s
     * on unknown names and on non-service workloads; the plan is
     * derived deterministically from `seed`, so scenario runs keep
     * the full shards/banks determinism contract and run
     * under the reenactment audit like any other run.
     */
    std::string scenario;
};

/** Per-shard outcome of a run (one entry per event-queue shard). */
struct ShardSummary {
    /// Core-level activity of the cores homed on this shard.
    std::uint64_t txns = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;

    /// Queue-level load and work stealing.
    std::uint64_t queueScheduled = 0;
    std::uint64_t queueExecuted = 0;
    std::uint64_t queueStolen = 0;
    std::uint64_t queueDeferred = 0;

    /// Provenance counters (0 unless trace.enabled).
    std::uint64_t traceEvents = 0;
    std::uint64_t repairs = 0;
    std::uint64_t forwards = 0; ///< DATM forwarded-value loads.

    /// Contention-aware scheduling on this shard (all 0 unless
    /// RunConfig::contentionSched): hot-block observations fed to the
    /// shard's table, restarts deferred, and total deferral cycles.
    std::uint64_t schedObserved = 0;
    std::uint64_t schedDefers = 0;
    std::uint64_t schedDeferCycles = 0;
};

/** Per-directory-bank outcome of a run (one entry per memory bank). */
struct BankSummary {
    /// Directory occupancy (stall fields 0 unless memBankOccupancy).
    std::uint64_t requests = 0;    ///< Misses served by this bank.
    std::uint64_t stalled = 0;     ///< Requests that found it busy.
    std::uint64_t stallCycles = 0; ///< Total slip cycles.

    /// Commit-token arbitration (0 unless tm.commitTokenArbitration).
    std::uint64_t tokenAcquires = 0; ///< Grants including this bank.
    std::uint64_t tokenWaits = 0;    ///< NACKs blamed on this bank.
};

/** One directed interconnect link's lifetime traffic. */
struct NetLinkSummary {
    unsigned src = 0;
    unsigned dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t payloadWords = 0;
    std::uint64_t queueCycles = 0; ///< Waits behind earlier traffic.
};

/** Fleet interconnect roll-up (all empty/zero at clusters == 1). */
struct NetSummary {
    std::uint64_t messages = 0;
    std::uint64_t payloadWords = 0;
    std::uint64_t queueCycles = 0;
    std::vector<NetLinkSummary> links;
};

/**
 * Live trace-stream writer activity (all-zero unless
 * TraceOptions::streamPath). Host-side like RunResult::hostWallMs:
 * flush stalls are wall time the event loop spent blocked in stream
 * writes, never simulated cycles — streaming must not perturb the
 * simulation (bench/trace_stream proves cycles identical either way).
 */
struct TraceStreamSummary {
    std::uint64_t records = 0;
    std::uint64_t bytesWritten = 0; ///< Includes the file header.
    std::uint64_t flushes = 0;      ///< Batched write() calls.
    double flushWallMs = 0.0;       ///< Host time blocked writing.
};

/**
 * Scenario outcome (all-zero/empty unless RunConfig::scenario). The
 * arrival/stall fields aggregate the workers' scenario accounting
 * (scenario::Runtime::Stats); the fault fields read the machine-level
 * overlays back out of the memory system and the interconnect.
 * Everything here is simulated state — part of the determinism
 * fingerprint, unlike RunResult::hostWallMs.
 */
struct ScenarioSummary {
    std::string name;
    bool openLoop = false;
    unsigned phases = 1;

    /// Arrival-queue accounting, summed over workers. Conservation:
    /// injected == completed + dropped (workers drain their backlog
    /// before finishing, so nothing is left in flight at the end).
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t peakBacklog = 0; ///< Max per-worker queue depth.
    std::uint64_t latencySum = 0;  ///< Sum of queueing delays.
    std::uint64_t latencyMax = 0;

    /// Mid-run shift annotations emitted (phase boundaries).
    std::uint64_t phaseMarks = 0;

    /// Core-stall fault engagement.
    std::uint64_t stallHits = 0;
    std::uint64_t stallCycles = 0;

    /// Slow-bank fault engagement (mem::MemorySystem counters).
    std::uint64_t bankFaultStalls = 0;
    std::uint64_t bankFaultCycles = 0;

    /// Degraded-link fault engagement (0 at clusters == 1).
    std::uint64_t linkFaultMessages = 0;
    std::uint64_t linkFaultCycles = 0;
};

/** Everything a run produces. */
struct RunResult {
    Cycle cycles = 0;
    exec::TimeBreakdown breakdown;
    exec::CoreStats coreStats;
    htm::MachineStats machineStats;
    workloads::ValidationResult validation;

    /** One entry per event-queue shard. */
    std::vector<ShardSummary> shards;

    /** One entry per directory bank (shard x bank crossbar columns). */
    std::vector<BankSummary> banks;

    /** Interconnect traffic (links empty at clusters == 1). */
    NetSummary net;

    /**
     * Audit results (all-zero unless trace.enabled && validate).
     * Under DATM, `reenact.forwardedCommitsChecked` counts commits
     * whose forwarding chains were fully re-derived and
     * `reenact.forwardedCommitsSkipped` counts chains the validator
     * could not walk — zero on a healthy run.
     */
    trace::ReenactReport reenact;
    /** Events seen by the trace subsystem (0 unless enabled). */
    std::uint64_t traceEvents = 0;

    /** Stream-writer activity (0 unless trace.streamPath was set). */
    TraceStreamSummary traceStream;

    /**
     * Host wall-clock time of the event loop, in ms. Host-side: never
     * part of simulated results or determinism fingerprints.
     */
    double hostWallMs = 0.0;

    /** Scenario outcome (empty name unless RunConfig::scenario). */
    ScenarioSummary scenario;
};

/** Baseline HTM of §2: eager + oldest-wins. */
htm::TMConfig eagerConfig();

/** The paper's lazy-vb variant (§5.1). */
htm::TMConfig lazyVbConfig();

/** Full RETCON (Table 1 structure sizes, §4.4 optimizations). */
htm::TMConfig retconConfig();

/** Global-lock serialization (the sequential baseline substrate). */
htm::TMConfig serialConfig();

/** What a caller calls each run size in its diagnostics. */
struct SizeNames {
    const char *nthreads = "nthreads";
    const char *shards = "shards";
    const char *memBanks = "memBanks";
    const char *clusters = "clusters";
};

/**
 * The first of @p cfg's sizes the machine cannot hold, as a message
 * naming it with @p names (e.g. "shards 99 is out of range 1..8
 * (nthreads)"); empty when every size fits. Limits: nthreads 1..64,
 * shards 1..nthreads, memBanks 1..64, and clusters x nthreads and
 * clusters x memBanks at most 64; on a fleet nthreads and memBanks
 * are per-cluster sizes. runOnce panics on a size this rejects, so
 * callers check outside input here first and reject it, never clamp
 * it: a clamp would quietly run a different configuration.
 */
std::string sizeError(const RunConfig &cfg, const SizeNames &names = {});

/**
 * Execute one run (setup, simulate, validate). fatal()s on deadlock;
 * sizes must pass sizeError.
 */
RunResult runOnce(const RunConfig &cfg);

/**
 * Run the sequential baseline for @p cfg's workload (1 thread, Serial)
 * and return its makespan in cycles.
 */
Cycle sequentialCycles(const RunConfig &cfg);

/** Name -> config for the three Figure 9/10 machine configurations. */
struct ConfigPoint {
    const char *label;
    htm::TMConfig tm;
};
std::vector<ConfigPoint> paperConfigs();

} // namespace retcon::api

#endif // RETCON_API_RUNNER_HPP
