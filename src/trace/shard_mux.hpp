/**
 * @file
 * ShardMux: per-shard trace counters and live fan-out for the sharded
 * cluster.
 *
 * One machine-wide provenance stream fans into:
 *  - per-shard lifetime counters (events, repairs, DATM-forwarded
 *    loads), a record being homed on the shard of the core that
 *    produced it — the inputs of bench/service_scalability's
 *    per-shard repair rates;
 *  - any number of downstream sinks, fed live in machine order.
 *
 * The downstreams are the only way records leave a run. The
 * ReenactmentValidator attaches downstream: it must observe the
 * merged stream in global order (its per-core symbolic logs snapshot
 * architectural memory at CommitDrain, which only exists live), and
 * the machine emits exactly that order because the sharded queue
 * dispatches events in global (cycle, seq) order. So do the `.rtt`
 * stream writer and api::runOnce's in-memory capture.
 *
 * Threading: single-threaded. onEvent() mutates the lifetime
 * counters and the core->shard cache with plain accesses;
 * the sharded queue runs every callback of a run on one thread, so a
 * mux belongs to one run and one thread
 * (docs/run-level-parallelism.md).
 */

#ifndef RETCON_TRACE_SHARD_MUX_HPP
#define RETCON_TRACE_SHARD_MUX_HPP

#include <functional>
#include <vector>

#include "trace/sink.hpp"

namespace retcon::trace {

/** Count provenance events per shard and fan them downstream. */
class ShardMux final : public TraceSink
{
  public:
    /** Maps an emitting core to its home shard. */
    using ShardOfFn = std::function<unsigned(CoreId)>;

    /** Lifetime per-shard counters. */
    struct Counters {
        std::uint64_t events = 0;
        std::uint64_t repairs = 0;
        std::uint64_t forwards = 0; ///< DATM forwarded-value loads.
    };

    /**
     * The mux retains no records, so @p ring_capacity must be 0: a
     * nonzero value panics rather than being silently ignored. It is
     * kept for drivers that pass TraceOptions::ringCapacity.
     */
    ShardMux(unsigned nshards, ShardOfFn shard_of,
             std::size_t ring_capacity = 0);

    /** Attach a live consumer of the merged stream (non-owning). */
    void addDownstream(TraceSink *sink);

    void onEvent(const Record &r) override;

    unsigned numShards() const { return _nshards; }

    const Counters &counters(unsigned s) const;

    /** Total events seen across all shards. */
    std::uint64_t totalEvents() const;

  private:
    unsigned _nshards;
    ShardOfFn _shardOf;
    /// Core -> shard, resolved through _shardOf once per core ever
    /// (the mapping is fixed for a cluster's lifetime) so the hot
    /// onEvent path avoids a std::function call per record.
    std::vector<std::uint8_t> _shardOfCore;
    std::vector<Counters> _counters;
    std::vector<TraceSink *> _downstream;

    unsigned shardOfCore(CoreId core);
};

} // namespace retcon::trace

#endif // RETCON_TRACE_SHARD_MUX_HPP
