/**
 * @file
 * ShardedEventQueue: the deterministic discrete-event kernel, with
 * events partitioned across N shards behind one global clock.
 *
 * Events are callbacks scheduled at an absolute cycle on a home shard
 * (cores map to shards round-robin). Execution always picks the
 * globally earliest live event, with same-cycle ties broken by a global
 * sequence number allocated at schedule time, so a simulation with a
 * fixed seed is bit-for-bit reproducible. With unlimited dispatch
 * bandwidth this order does not depend on the shard count, so shard
 * count never changes simulated results — the determinism the
 * repair-audit oracle and the unit tests rely on.
 *
 * Storage is split so dispatch never moves a closure through a heap:
 * each shard's heap orders 24-byte POD keys {when, seq, slot}, and
 * callbacks live in one slab of slots recycled through a free list. A
 * handle names (slot, generation); a slot's generation advances when
 * the slot is freed, so cancel() is an O(1) flag write and a stale
 * handle (its event already ran, or the slot was reused) is a no-op. A
 * cancelled event keeps its key in the heap and is skipped when popped.
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

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace retcon {

/** Opaque ticket identifying a scheduled event so it can be cancelled. */
struct EventHandle {
    std::uint64_t id = 0;

    bool valid() const { return id != 0; }
};

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
    using Callback = std::function<void()>;

    /** Per-shard load and work-stealing counters. */
    struct ShardStats {
        std::uint64_t scheduled = 0; ///< Events homed to this shard.
        std::uint64_t drained = 0;   ///< Events popped from this queue.
        std::uint64_t executed = 0;  ///< Events this shard dispatched.
        std::uint64_t stolen = 0;    ///< Of executed: other shards' events.
        std::uint64_t deferred = 0;  ///< Slips to the next cycle.
    };

    explicit ShardedEventQueue(const ShardedQueueConfig &cfg = {});
    ShardedEventQueue(const ShardedEventQueue &) = delete;
    ShardedEventQueue &operator=(const ShardedEventQueue &) = delete;

    unsigned numShards() const { return _cfg.nshards; }
    const ShardedQueueConfig &config() const { return _cfg; }

    /** Simulated cycle of the last dispatched event. */
    Cycle now() const override { return _now; }

    /** Schedule @p cb on @p shard at absolute cycle @p when. */
    EventHandle schedule(unsigned shard, Cycle when, Callback cb);

    /** Schedule @p cb on @p shard @p delta cycles after now(). */
    EventHandle
    scheduleAfter(unsigned shard, Cycle delta, Callback cb)
    {
        return schedule(shard, _now + delta, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event. Idempotent; a handle whose
     * event already ran is a no-op.
     */
    void cancel(EventHandle h);

    /** True when no live events remain. */
    bool empty() const { return _live == 0; }

    /** Live (non-cancelled) pending events across all shards. */
    std::size_t pending() const { return _live; }

    /**
     * Dispatch exactly one live event (the globally earliest, after
     * any bandwidth slips). @return false when drained, or when the
     * earliest event lies past @p maxCycles (it is left queued).
     */
    bool step(Cycle maxCycles = ~Cycle(0));

    /**
     * Run until every shard drains or the next event would fire past
     * @p maxCycles. @return the final now().
     */
    Cycle run(Cycle maxCycles = ~Cycle(0));

    /** Total events dispatched since construction. */
    std::uint64_t executed() const { return _executed; }

    const ShardStats &shardStats(unsigned shard) const;

  private:
    /// Heap key; in a slipped set `when` is 0 and the set's cycle applies.
    struct Key {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Slot {
        Callback cb;
        std::uint64_t seq = 0;
        std::uint32_t gen = 1;
        std::uint8_t shard = 0; ///< Home shard.
        bool live = false;      ///< Scheduled, not yet run or cancelled.
        bool slipped = false;   ///< Keyed in its shard's slipped set.
    };

    struct Shard {
        std::vector<Key> heap;
        std::vector<Key> slipped; ///< Seq-ordered heap at cycle slipWhen.
        Cycle slipWhen = 0;
        std::size_t slippedLive = 0;
        /// No thief can ever drain this shard (stealing off, or a steal
        /// group of one), so an over-quota cycle slips all its due
        /// events in one batch (slipDue).
        bool batchSlip = false;
        unsigned dispatched = 0; ///< This cycle's dispatch slots used.
        ShardStats stats;
    };

    ShardedQueueConfig _cfg;
    std::vector<Shard> _shards;
    std::vector<Slot> _slots;
    std::vector<std::uint32_t> _free;

    Cycle _now = 0;
    std::uint64_t _nextSeq = 1;
    std::size_t _live = 0;
    std::uint64_t _executed = 0;

    /// Per-cycle dispatch accounting (reset when the clock advances).
    Cycle _dispatchCycle = 0;
    unsigned _stealCursor = 0;

    /// Dispatch position: the (cycle, seq) last taken as the global
    /// earliest. Every event before it has run or slipped.
    Cycle _atWhen = 0;
    std::uint64_t _atSeq = 0;

    std::uint32_t acquire(unsigned shard, std::uint64_t seq, Callback &&cb);
    void release(std::uint32_t slot);
    /** @return the live slot @p h names, or kNoSlot. */
    std::uint32_t find(EventHandle h) const;

    /** Prune both tops; @return the set holding the next live key. */
    std::vector<Key> *nextSet(Shard &sh);

    /** The next live event on @p sh. @return false when drained. */
    bool peek(Shard &sh, Cycle &when, std::uint64_t &seq);

    /** Find the shard holding the globally earliest live event. */
    int findEarliest(Cycle &when, std::uint64_t &seq);

    /**
     * Pick the shard that dispatches an event due at @p when homed on
     * @p home: the home shard if it has bandwidth, else an idle shard
     * with spare slots (work stealing), else -1 (the event must slip).
     */
    int pickExecutor(unsigned home, Cycle when);

    /**
     * Slip every live event @p sh has due at @p when to @p when + 1 at
     * once, keeping seqs: they join the slipped set, which all sits at
     * one cycle, so slipping it again is O(1). Call only when @p when
     * is the shard's next live cycle. @return the live events slipped.
     */
    std::size_t slipDue(Shard &sh, Cycle when);
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
