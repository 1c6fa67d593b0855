/**
 * @file
 * ShardMux: per-shard trace capture for the sharded cluster.
 *
 * One machine-wide provenance stream fans into:
 *  - optionally (ring capacity > 0), one TraceRecorder ring per
 *    event-queue shard (a record is homed on the shard of the core
 *    that produced it), so flight-recorder memory scales out with the
 *    cluster instead of one global ring thrashing under service-scale
 *    traffic;
 *  - per-shard lifetime counters (events, commits, aborts, repairs,
 *    DATM-forwarded commits) that survive ring wraparound — the
 *    inputs of bench/service_scalability's per-shard repair rates;
 *  - any number of downstream sinks, fed live in machine order.
 *
 * The ReenactmentValidator attaches downstream: it must observe the
 * *merged* stream in global order (its per-core symbolic logs snapshot
 * architectural memory at CommitDrain, which only exists live), and
 * the machine emits exactly that order because the sharded queue
 * dispatches events in global (cycle, seq) order. So do the `.rtt`
 * stream writer and api::runOnce's in-memory capture, which is why
 * runOnce builds its mux with ring capacity 0. For drivers that keep
 * rings, mergedSnapshot() reassembles them into one globally ordered
 * trace on the records' machine-global `seq` key.
 *
 * Threading: single-threaded. onEvent() mutates the lifetime
 * counters, the rings and the core->shard cache with plain accesses;
 * the sharded queue runs every callback of a run on one thread, so a
 * mux belongs to one run and one thread
 * (docs/run-level-parallelism.md).
 */

#ifndef RETCON_TRACE_SHARD_MUX_HPP
#define RETCON_TRACE_SHARD_MUX_HPP

#include <functional>
#include <memory>
#include <vector>

#include "trace/recorder.hpp"

namespace retcon::trace {

/** Fan provenance events into per-shard rings + counters. */
class ShardMux final : public TraceSink
{
  public:
    /** Maps an emitting core to its home shard. */
    using ShardOfFn = std::function<unsigned(CoreId)>;

    /** Lifetime per-shard counters (immune to ring wraparound). */
    struct Counters {
        std::uint64_t events = 0;
        std::uint64_t repairs = 0;
        std::uint64_t forwards = 0; ///< DATM forwarded-value loads.
    };

    /**
     * @p ring_capacity is per shard; 0 keeps counters only (no
     * retention), matching TraceOptions::ringCapacity semantics.
     */
    ShardMux(unsigned nshards, ShardOfFn shard_of,
             std::size_t ring_capacity);

    /** Attach a live consumer of the merged stream (non-owning). */
    void addDownstream(TraceSink *sink);

    void onEvent(const Record &r) override;

    unsigned numShards() const { return _nshards; }

    /** Shard @p s's ring. Only valid when ring capacity is nonzero. */
    const TraceRecorder &recorder(unsigned s) const;

    const Counters &counters(unsigned s) const;

    /** Total events seen across all shards. */
    std::uint64_t totalEvents() const;

    /**
     * Merge the per-shard rings into one globally ordered trace
     * (ascending machine `seq`). Each ring retains its own newest
     * window, so after wraparound the merge is the union of per-shard
     * windows, not a contiguous global suffix.
     */
    std::vector<Record> mergedSnapshot() const;

  private:
    unsigned _nshards;
    ShardOfFn _shardOf;
    /// Core -> shard, resolved through _shardOf once per core ever
    /// (the mapping is fixed for a cluster's lifetime) so the hot
    /// onEvent path avoids a std::function call per record.
    std::vector<std::uint8_t> _shardOfCore;
    std::vector<std::unique_ptr<TraceRecorder>> _rings;
    std::vector<Counters> _counters;
    std::vector<TraceSink *> _downstream;

    unsigned shardOfCore(CoreId core);
};

} // namespace retcon::trace

#endif // RETCON_TRACE_SHARD_MUX_HPP
