/**
 * @file
 * ShardedEventQueue: N per-shard event queues behind one global clock.
 *
 * The single-queue cluster funnels every core's events through one
 * binary heap — the scale-out bottleneck the ROADMAP calls out on the
 * path to service-scale workloads. This queue partitions events across
 * N shards (cores map to shards round-robin); each shard is a plain
 * EventQueue and keeps its own clock domain (shardNow() = the cycle of
 * the last event that shard dispatched).
 *
 * Global correctness: execution always picks the globally earliest
 * live event, with same-cycle ties broken by a *global* sequence
 * number allocated at schedule time. With unlimited dispatch bandwidth
 * this reproduces the single queue's execution order bit-for-bit, so
 * shard count never changes simulated results — the determinism the
 * repair-audit oracle and the unit tests rely on.
 *
 * Dispatch bandwidth models the sequencer serialization a real
 * sharded cluster removes: each shard dispatches at most
 * `dispatchBandwidth` events per cycle (0 = unlimited). An event that
 * finds its home shard's slots exhausted either slips to the next
 * cycle or — the work-stealing fallback — is drained by an idle shard
 * (one with no event due this cycle) that still has slots, so idle
 * shards absorb bursts from busy ones. Stealing changes attribution
 * and slip timing only; the drain order is still the unique global
 * (cycle, seq) order, so runs stay deterministic for a fixed
 * configuration. A shard no thief can reach (stealing off, or a steal
 * group of one) slips all its due events at once when its slots run
 * out; the keys and the `deferred` count equal slipping them one by
 * one, so the batch is a host-side shortcut only.
 */

#ifndef RETCON_SIM_SHARDED_QUEUE_HPP
#define RETCON_SIM_SHARDED_QUEUE_HPP

#include <memory>
#include <vector>

#include "sim/event_queue.hpp"

namespace retcon {

/** Sharded-queue configuration. */
struct ShardedQueueConfig {
    unsigned nshards = 1;

    /**
     * Events each shard may dispatch per cycle; 0 = unlimited.
     * Unlimited bandwidth makes execution order (and therefore every
     * simulated outcome) independent of the shard count.
     */
    unsigned dispatchBandwidth = 0;

    /**
     * With bandwidth limited, let shards with no event due this cycle
     * drain over-quota shards instead of letting the event slip.
     */
    bool workStealing = true;

    /**
     * Steal-group size: a shard only steals from shards in its own
     * contiguous group of this many (0 = one machine-wide group, the
     * single-cluster behaviour). A fleet sets this to the per-cluster
     * shard count so an idle shard never drains another cluster's
     * sequencer — clusters share no dispatch capacity, only the wire.
     */
    unsigned stealGroup = 0;
};

/** Cycle-ordered event queue sharded N ways under one global clock. */
class ShardedEventQueue final : public SimClock
{
  public:
    using Callback = EventQueue::Callback;

    /** Per-shard load and work-stealing counters. */
    struct ShardStats {
        std::uint64_t scheduled = 0; ///< Events homed to this shard.
        std::uint64_t drained = 0;   ///< Events popped from this queue.
        std::uint64_t executed = 0;  ///< Events this shard dispatched.
        std::uint64_t stolen = 0;    ///< Of executed: other shards' events.
        std::uint64_t deferred = 0;  ///< Slips to the next cycle.
    };

    explicit ShardedEventQueue(const ShardedQueueConfig &cfg = {});

    unsigned numShards() const { return _cfg.nshards; }
    const ShardedQueueConfig &config() const { return _cfg; }

    /** Global simulated cycle (max over dispatched events). */
    Cycle now() const override { return _now; }

    /** Shard-local clock domain: cycle of @p shard's last dispatch. */
    Cycle shardNow(unsigned shard) const;

    /** Schedule @p cb on @p shard at absolute cycle @p when. */
    EventHandle schedule(unsigned shard, Cycle when, Callback cb);

    /** Schedule @p cb on @p shard @p delta cycles after global now. */
    EventHandle
    scheduleAfter(unsigned shard, Cycle delta, Callback cb)
    {
        return schedule(shard, _now + delta, std::move(cb));
    }

    /** Cancel a previously scheduled event. Idempotent. */
    void cancel(EventHandle h);

    /** True when no live events remain on any shard. */
    bool empty() const;

    /** Live (non-cancelled) pending events across all shards. */
    std::size_t pending() const;

    /**
     * Dispatch exactly one live event (the globally earliest, after
     * any bandwidth slips). @return false when drained, or when the
     * earliest event lies past @p maxCycles (it is left queued).
     */
    bool step(Cycle maxCycles = ~Cycle(0));

    /**
     * Run until every shard drains or the next event would fire past
     * @p maxCycles. @return the final global now().
     */
    Cycle run(Cycle maxCycles = ~Cycle(0));

    /** Total events dispatched since construction. */
    std::uint64_t executed() const { return _executed; }

    const ShardStats &shardStats(unsigned shard) const;

  private:
    ShardedQueueConfig _cfg;
    /// unique_ptr because EventQueue is non-movable (owns a heap).
    std::vector<std::unique_ptr<EventQueue>> _shards;
    std::vector<ShardStats> _stats;

    Cycle _now = 0;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;

    /// Per-cycle dispatch accounting (reset when the clock advances).
    Cycle _dispatchCycle = 0;
    std::vector<unsigned> _dispatched;
    unsigned _stealCursor = 0;

    /// Per shard: no thief can ever drain it (stealing off, or a steal
    /// group of one), so an over-quota cycle slips all its due events
    /// in one batch (EventQueue::slipDue).
    std::vector<bool> _batchSlip;

    /// Dispatch position: the (cycle, seq) last taken as the global
    /// earliest. Every event before it has run or slipped.
    Cycle _atWhen = 0;
    std::uint64_t _atSeq = 0;

    /// Shard index is packed into the handle's top byte.
    static constexpr unsigned kShardShift = 56;
    static constexpr std::uint64_t kIdMask =
        (std::uint64_t(1) << kShardShift) - 1;

    /** Find the shard holding the globally earliest live event. */
    int findEarliest(Cycle &when, std::uint64_t &seq);

    /**
     * Pick the shard that dispatches an event due at @p when homed on
     * @p home: the home shard if it has bandwidth, else an idle shard
     * with spare slots (work stealing), else -1 (the event must slip).
     */
    int pickExecutor(unsigned home, Cycle when);
};

/**
 * A core's handle onto its home shard: global clock plus scheduling.
 * Value type — cores hold it by value and never outlive the queue.
 */
class ShardRef
{
  public:
    ShardRef(ShardedEventQueue &q, unsigned shard) : _q(&q), _shard(shard)
    {}

    Cycle now() const { return _q->now(); }
    unsigned shard() const { return _shard; }

    EventHandle
    scheduleAfter(Cycle delta, ShardedEventQueue::Callback cb)
    {
        return _q->scheduleAfter(_shard, delta, std::move(cb));
    }

    void cancel(EventHandle h) { _q->cancel(h); }

  private:
    ShardedEventQueue *_q;
    unsigned _shard;
};

} // namespace retcon

#endif // RETCON_SIM_SHARDED_QUEUE_HPP
