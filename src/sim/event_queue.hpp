/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are callbacks scheduled at an absolute cycle. Events scheduled
 * for the same cycle fire in the order they were scheduled (a strictly
 * increasing sequence number breaks ties), so a simulation with a fixed
 * seed is bit-for-bit reproducible.
 *
 * Storage is split so dispatch never moves a closure through the heap:
 * the heap orders 24-byte POD keys {when, seq, slot}, and callbacks live
 * in a slab of slots recycled through a free list. A handle names
 * (slot, generation); a slot's generation advances when the slot is
 * freed, so cancel() is an O(1) flag write and a stale handle (its
 * event already ran, or the slot was reused) is a no-op. A cancelled
 * event keeps its key in the heap and is skipped when popped.
 */

#ifndef RETCON_SIM_EVENT_QUEUE_HPP
#define RETCON_SIM_EVENT_QUEUE_HPP

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

/**
 * Cycle-ordered event queue driving the whole simulation.
 *
 * The queue owns the simulated clock: now() advances only when run()
 * pops an event scheduled later than the current cycle. When used as
 * one shard of a ShardedEventQueue (sim/sharded_queue.hpp), the owner
 * supplies globally unique sequence numbers through scheduleSeq() and
 * drives execution through peekNext()/step(), so this clock becomes
 * the shard's local clock domain.
 */
class EventQueue : public SimClock
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const override { return _now; }

    /**
     * Schedule @p cb to run at absolute cycle @p when.
     * @return a handle usable with cancel().
     */
    EventHandle schedule(Cycle when, Callback cb);

    /**
     * Schedule with a caller-supplied tie-break sequence number.
     * A ShardedEventQueue allocates these from one global counter so
     * same-cycle events merge across shards in schedule order exactly
     * as a single queue would order them.
     */
    EventHandle scheduleSeq(Cycle when, std::uint64_t seq, Callback cb);

    /**
     * Peek at the next live event without running it (prunes cancelled
     * keys from the tops). @return false when drained.
     */
    bool peekNext(Cycle &when, std::uint64_t &seq);

    /**
     * Re-schedule the next live event to @p new_when, keeping its
     * sequence number (and therefore its order relative to events it
     * was already ahead of). Used by the sharded queue to model
     * per-cycle dispatch-bandwidth slips one event at a time. Call
     * only after a successful peekNext(), on a queue that never used
     * slipDue(); @p new_when must not be in the past.
     */
    void deferNext(Cycle new_when);

    /**
     * Slip every live event due at @p when to @p when + 1 at once,
     * keeping sequence numbers: the events join the slipped set, which
     * all sits at one cycle, so slipping it again is O(1). Call only
     * when @p when is the next live event's cycle.
     * @return the number of live events that slipped.
     */
    std::size_t slipDue(Cycle when);

    /**
     * True when @p h is live in the slipped set and its last slip —
     * at (slipped-set cycle − 1, its seq) in dispatch order — lies
     * after position (@p when, @p seq): a per-event slip would not
     * have reached it yet.
     */
    bool slipCountedAfter(EventHandle h, Cycle when,
                          std::uint64_t seq) const;

    /** Schedule @p cb @p delta cycles from now. */
    EventHandle
    scheduleAfter(Cycle delta, Callback cb)
    {
        return schedule(_now + delta, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event. Idempotent; a handle whose
     * event already ran is a no-op.
     */
    void cancel(EventHandle h);

    /** True when no live events remain. */
    bool empty() const { return _live == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t pending() const { return _live; }

    /**
     * Run until the queue drains or @p maxCycles elapses.
     * @return the final value of now().
     */
    Cycle run(Cycle maxCycles = ~Cycle(0));

    /** Pop and run exactly one live event. @return false if drained. */
    bool step();

    /** Total events executed since construction (for stats/tests). */
    std::uint64_t executed() const { return _executed; }

  private:
    /// Heap key; in the slipped set `when` is 0 and _slipWhen applies.
    struct Key {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Slot {
        Callback cb;
        std::uint64_t seq = 0;
        std::uint32_t gen = 1;
        bool live = false;    ///< Scheduled, not yet run or cancelled.
        bool slipped = false; ///< Keyed in the slipped set.
    };

    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
    static constexpr std::uint32_t kGenLimit = 1u << 31;
    static constexpr std::uint32_t kNoSlot = ~0u;

    std::vector<Key> _heap;
    std::vector<Key> _slipped; ///< Seq-ordered heap at cycle _slipWhen.
    Cycle _slipWhen = 0;
    std::size_t _slippedLive = 0;

    std::vector<Slot> _slots;
    std::vector<std::uint32_t> _free;

    Cycle _now = 0;
    std::uint64_t _nextSeq = 1;
    std::size_t _live = 0;
    std::uint64_t _executed = 0;

    std::uint32_t acquire(std::uint64_t seq, Callback &&cb);
    void release(std::uint32_t slot);
    std::uint32_t find(EventHandle h) const;
    /** Prune both tops; @return the set holding the next live key. */
    std::vector<Key> *nextSet();
};

} // namespace retcon

#endif // RETCON_SIM_EVENT_QUEUE_HPP
