/**
 * @file
 * Cluster: the assembled simulated machine.
 *
 * Owns the sharded event queue, the coherent memory hierarchy, the TM
 * machine, the barrier, and one Core per simulated thread, wired
 * together per Table 1. Cores map round-robin onto the event-queue
 * shards (core i -> shard i % numShards); each shard has its own
 * dispatch slots with a work-stealing fallback, while commit/repair
 * ordering stays globally correct (see sim/sharded_queue.hpp and
 * docs/architecture.md). Workloads install one thread program per
 * core and run() the event loop to completion.
 */

#ifndef RETCON_EXEC_CLUSTER_HPP
#define RETCON_EXEC_CLUSTER_HPP

#include <memory>
#include <vector>

#include "exec/core.hpp"
#include "exec/scheduler.hpp"
#include "htm/machine.hpp"
#include "mem/memory_system.hpp"
#include "net/interconnect.hpp"
#include "sim/sharded_queue.hpp"

namespace retcon::exec {

/** Full-machine configuration. */
struct ClusterConfig {
    unsigned numThreads = 32;
    std::uint64_t seed = 1;
    htm::TMConfig tm{};
    mem::MemTimingConfig timing{};
    Cycle maxCycles = 2'000'000'000ull; ///< Watchdog for runaway runs.

    /**
     * Event-queue shards (1..numThreads). With shardBandwidth 0 the
     * shard count is performance-transparent: simulated results are
     * bit-identical for any value (the queues merge on a global
     * schedule order).
     */
    unsigned numShards = 1;

    /**
     * Modeled per-shard dispatch bandwidth (events/cycle, 0 =
     * unlimited): the sequencer serialization a single-queue cluster
     * suffers and sharding removes. Over-quota events slip a cycle
     * unless an idle shard steals them.
     */
    unsigned shardBandwidth = 0;

    /** Allow idle shards to drain over-quota ones (work stealing). */
    bool shardWorkStealing = true;

    /**
     * Directory banks in the memory system (1..64). Like the shard
     * count, the bank count is performance-transparent unless bank
     * contention is modeled (timing.bankOccupancy for directory
     * occupancy, tm.commitTokenArbitration for commit tokens):
     * simulated results are bit-identical for any value otherwise.
     */
    unsigned memBanks = 1;

    /**
     * Contention-aware re-dispatch scheduling (exec/scheduler.hpp):
     * per-shard hot-block tables fed by the machine's abort and
     * commit-token contention events defer the restart of tasks whose
     * last abort blamed a hot block, de-phasing conflicting requests.
     * Off (the default) reproduces immediate re-dispatch exactly.
     */
    SchedulerConfig sched{};

    /**
     * Fleet partition of this machine (exec/fleet.hpp fills both in;
     * hand-built clusters leave them defaulted). With a fleet
     * topology, numThreads/numShards/memBanks are fleet-wide totals
     * partitioned cluster-contiguously; cores map onto their own
     * cluster's shard slice only, the directory homes each address on
     * its owner cluster's bank slice, and every cross-cluster
     * interaction is charged to @p net. A default topology (1
     * cluster) with a null net is bit-identical to the pre-fleet
     * machine.
     */
    net::FleetTopology fleet{};

    /** Fleet interconnect (non-owning; null = single cluster). */
    net::Interconnect *net = nullptr;
};

/** The assembled simulated machine. */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &cfg);

    /** Install and start thread programs (one factory for all cores). */
    void start(const Core::ProgramFactory &factory);

    /** Run the event loop until all cores finish. @return makespan. */
    Cycle run();

    ShardedEventQueue &eventQueue() { return _eq; }
    mem::MemorySystem &memorySystem() { return *_ms; }
    mem::SparseMemory &memory() { return _ms->memory(); }
    htm::TMMachine &machine() { return *_tm; }
    Core &core(CoreId i) { return *_cores[i]; }
    unsigned numThreads() const { return _cfg.numThreads; }
    unsigned numShards() const { return _cfg.numShards; }
    unsigned numBanks() const { return _cfg.memBanks; }

    /** Home event-queue shard of core @p i: round-robin placement,
     *  within the core's own cluster's shard slice in a fleet. */
    unsigned shardOf(CoreId i) const { return _eq.home(i); }

    /** Aggregate time breakdown over all cores. */
    TimeBreakdown aggregateBreakdown() const;

    /** Sum of per-core stats. */
    CoreStats aggregateStats() const;

    /** Sum of core stats over the cores homed on @p shard. */
    CoreStats shardCoreStats(unsigned shard) const;

    /** Queue-level load/steal counters for @p shard. */
    const ShardedEventQueue::ShardStats &
    shardQueueStats(unsigned shard) const
    {
        return _eq.shardStats(shard);
    }

    /** Contention-scheduler counters for @p shard (zeros when the
     *  scheduler is disabled). */
    ContentionScheduler::Stats schedStats(unsigned shard) const
    {
        return _sched ? _sched->stats(shard)
                      : ContentionScheduler::Stats{};
    }

    /**
     * Attach (or, with null, detach) a provenance sink: non-owning,
     * it must outlive the cluster. Without one, tracing costs nothing.
     */
    void setTraceSink(trace::TraceSink *sink);

  private:
    ClusterConfig _cfg;
    ShardedEventQueue _eq;
    std::unique_ptr<mem::MemorySystem> _ms;
    std::unique_ptr<htm::TMMachine> _tm;
    std::unique_ptr<Barrier> _barrier;
    std::unique_ptr<ContentionScheduler> _sched;
    std::vector<std::unique_ptr<Core>> _cores;
};

} // namespace retcon::exec

#endif // RETCON_EXEC_CLUSTER_HPP
