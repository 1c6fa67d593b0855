/**
 * @file
 * ShardedEventQueue: the deterministic discrete-event kernel, a table
 * of wake slots partitioned across N shards behind one global clock.
 *
 * Each simulated core has at most one operation in flight, so the
 * kernel holds one wake slot per core and nothing else: a slot is
 * {when, seq} plus its home shard (cores map to shards round-robin).
 * The kernel stores no continuation; step() returns the slot whose
 * wake fired and the caller resumes that core. Execution always picks
 * the globally earliest pending wake, with same-cycle ties broken by a
 * global sequence number allocated per wake, so a simulation with a
 * fixed seed is bit-for-bit reproducible. With unlimited dispatch
 * bandwidth this order does not depend on the shard count, so shard
 * count never changes simulated results — the determinism the
 * repair-audit oracle and the unit tests rely on.
 *
 * Dispatch bandwidth models the sequencer serialization a real
 * sharded cluster removes: each shard dispatches at most
 * `dispatchBandwidth` wakes per cycle (0 = unlimited). A wake that
 * finds its home shard's slots exhausted either slips to the next
 * cycle or — the work-stealing fallback — is drained by an idle shard
 * (one with no wake due this cycle) that still has slots, so idle
 * shards absorb bursts from busy ones. Stealing changes attribution
 * and slip timing only; the drain order is still the unique global
 * (cycle, seq) order, so runs stay deterministic for a fixed
 * configuration. A shard no thief can reach (stealing off, or a steal
 * group of one) slips all its due wakes in one loop when its slots run
 * out; the wakes and the `deferred` count equal slipping them one by
 * one, so the batch is a host-side shortcut only.
 *
 * A parked slot is a wake its owner would only repeat: each time it
 * fires, the owner would count the fire and wake the slot again
 * `period` cycles on, changing nothing else (a core polling a
 * transactional conflict). park() moves the slot's wake out of the
 * tree onto the parked list, one list for every shard, sorted by
 * (when, seq); its tree leaf holds a sentinel that is never due, and
 * the slot itself keeps its real key and stays pending. step()
 * dispatches whichever comes first, the tree's root or the list's
 * head, so the dispatch order is that of one queue over both. A
 * parked fire makes the owner's bookkeeping itself: the same executor
 * pick, slips, steals, `drained`/`executed`/`scheduled` counts and
 * `_nextSeq++` re-wake, and a per-slot fire count in place of
 * returning the slot. The re-wake goes back into the list at its
 * sorted place, walking from the tail, and touches no tree node; with
 * one common period every re-wake follows the newest seq and lands at
 * the tail. Every wake, seq and counter is the one the owner's re-wake
 * would have made, so parking leaves the dispatch order, the shard
 * counters and `executed()` unchanged. The owner collects the count
 * with takeParked() at its next fire, which leaves the list: after
 * `budget` parked fires, or after unpark() (what the slot waited on
 * changed). cancel() takes the slot off the list at once (its parked
 * fires stay counted for takeParked).
 */

#ifndef RETCON_SIM_SHARDED_QUEUE_HPP
#define RETCON_SIM_SHARDED_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

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

/** Per-core wake table sharded N ways under one global clock. */
class ShardedEventQueue final : public SimClock
{
  public:
    /** Per-shard load and work-stealing counters. */
    struct ShardStats {
        std::uint64_t scheduled = 0; ///< Wakes homed to this shard.
        std::uint64_t drained = 0;   ///< Wakes fired from this shard.
        std::uint64_t executed = 0;  ///< Wakes this shard dispatched.
        std::uint64_t stolen = 0;    ///< Of executed: other shards' wakes.
        std::uint64_t deferred = 0;  ///< Slips to the next cycle.
    };

    /** One wake slot per entry of @p homes, homed on that shard. */
    explicit ShardedEventQueue(const ShardedQueueConfig &cfg = {},
                               const std::vector<unsigned> &homes = {});
    ShardedEventQueue(const ShardedEventQueue &) = delete;
    ShardedEventQueue &operator=(const ShardedEventQueue &) = delete;

    /** Simulated cycle of the last dispatched wake. */
    Cycle now() const override { return _now; }

    /** Home shard of @p slot. */
    unsigned home(unsigned slot) const { return _slots[slot].shard; }

    /**
     * Wake @p slot @p delta cycles after now(). The slot must be idle:
     * a core has at most one wake pending.
     */
    void wake(unsigned slot, Cycle delta);

    /** Drop @p slot's pending wake, if any, and unpark it (its parked
     *  fires stay counted for takeParked). */
    void cancel(unsigned slot);

    /**
     * Park @p slot's pending wake: its next @p budget fires re-wake it
     * @p period cycles on inside step() instead of returning it.
     */
    void park(unsigned slot, Cycle period, std::uint64_t budget);

    /** Return @p slot to its owner at its next fire. */
    void unpark(unsigned slot) { _parks[slot].budget = 0; }

    /** Parked fires of @p slot since the last call (then zero). */
    std::uint64_t
    takeParked(unsigned slot)
    {
        std::uint64_t n = _parks[slot].fires;
        _parks[slot].fires = 0;
        return n;
    }

    /** Slots with a wake pending. */
    std::size_t pending() const;

    /**
     * Dispatch the globally earliest wake, after any bandwidth slips.
     * @return its slot, or -1 when no wake is pending or the earliest
     * lies past @p maxCycles (it is left pending).
     */
    int step(Cycle maxCycles = ~Cycle(0));

    /** Total wakes dispatched since construction. */
    std::uint64_t executed() const { return _executed; }

    const ShardStats &shardStats(unsigned shard) const;

  private:
    static constexpr Cycle kIdle = ~Cycle(0); ///< `when` of an idle slot.

    struct Slot {
        Cycle when = kIdle;
        std::uint64_t seq = 0;
        std::uint8_t shard = 0; ///< Home shard.
        /// Batch-slipped: its last slip was counted ahead of dispatch.
        bool slipped = false;
        /// On the parked list (its tree leaf holds the sentinel).
        bool listed = false;
        /// Parked-list neighbours; the sentinel ends the list both ways.
        /// Not char-sized: a char store may alias any member, and the
        /// parked fire would reload them all after relinking.
        std::uint16_t prev = 0, next = 0;
    };

    /// A slot's parking state (budget 0: not parked), kept out of
    /// Slot so the tree's matches stay on the compact table.
    struct Park {
        Cycle period = 0;
        std::uint64_t budget = 0;
        std::uint64_t fires = 0; ///< Parked fires not yet taken.
    };

    struct Shard {
        /// No thief can ever drain this shard (stealing off, or a steal
        /// group of one), so an over-quota cycle slips all its due
        /// wakes in one loop.
        bool batchSlip = false;
        unsigned dispatched = 0; ///< This cycle's dispatch slots used.
        ShardStats stats;
    };

    ShardedQueueConfig _cfg;
    std::vector<Shard> _shards;
    /// Padded with idle slots to a power of two, the tree's leaf count
    /// `_leaves`, plus one sentinel slot (index `_leaves`) that is
    /// always idle: the parked list's head and tail are its `next` and
    /// `prev`, and a listed slot's tree leaf holds its index.
    std::vector<Slot> _slots;
    std::vector<Park> _parks; ///< Indexed like _slots.
    unsigned _leaves = 1;
    /// Tournament tree over the slots: node n (1-based) holds the slot
    /// with the earliest wake under it; node _leaves + i is leaf i. The
    /// root, node 1, is the earliest wake outside the parked list.
    std::vector<std::uint8_t> _tree;

    Cycle _now = 0;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;

    /// Per-cycle dispatch accounting (reset when the clock advances).
    Cycle _dispatchCycle = 0;
    unsigned _stealCursor = 0;

    /// Dispatch position: the (cycle, seq) last taken as the global
    /// earliest. Every wake before it has fired or slipped.
    Cycle _atWhen = 0;
    std::uint64_t _atSeq = 0;

    /**
     * Of slots @p a and @p b, the one whose wake comes first (@p a on
     * a tie of idle slots). Branch-free: under saturation many wakes
     * share a cycle and a branch on the order would mispredict.
     */
    unsigned
    first(unsigned a, unsigned b) const
    {
        const Slot &x = _slots[a], &y = _slots[b];
        bool bFirst =
            (y.when < x.when) | ((y.when == x.when) & (y.seq < x.seq));
        return a ^ ((a ^ b) & -unsigned(bFirst));
    }

    /** True when slot @p a's wake comes before slot @p b's. */
    bool
    before(unsigned a, unsigned b) const
    {
        const Slot &x = _slots[a], &y = _slots[b];
        return x.when < y.when || (x.when == y.when && x.seq < y.seq);
    }

    /** Replay the tree's matches on @p slot's path after it changed. */
    void update(unsigned slot);

    /** Link unlinked @p slot into the parked list after @p after. */
    void
    linkAfter(unsigned slot, unsigned after)
    {
        Slot &s = _slots[slot], &a = _slots[after];
        s.prev = static_cast<std::uint16_t>(after);
        s.next = a.next;
        _slots[a.next].prev = static_cast<std::uint16_t>(slot);
        a.next = static_cast<std::uint16_t>(slot);
    }

    /** Put unlinked @p slot at its sorted place in the parked list,
     *  walking from the tail. */
    void
    link(unsigned slot)
    {
        unsigned after = _slots[_leaves].prev;
        while (after != _leaves && before(slot, after))
            after = _slots[after].prev;
        linkAfter(slot, after);
    }

    /** Take @p slot out of the parked list's links. */
    void
    unlink(unsigned slot)
    {
        const Slot &s = _slots[slot];
        _slots[s.prev].next = s.next;
        _slots[s.next].prev = s.prev;
    }

    /** Move listed @p slot, whose wake slipped, forward to its sorted
     *  place in the parked list. */
    void sift(unsigned slot);

    /** Take listed @p slot off the parked list; its leaf is its own. */
    void unlist(unsigned slot);

    /**
     * Slip every wake @p shard has due at @p when one cycle on, and
     * replay what that changes of the tree and the parked list.
     */
    void batchSlip(unsigned shard, Cycle when);

    /** True when @p shard has a wake due at or before @p when. */
    bool dueOn(unsigned shard, Cycle when) const;

    /**
     * Pick the shard that dispatches a wake due at @p when homed on
     * @p home, whose dispatch slots are used up and which has possible
     * thieves: an idle shard with spare slots (work stealing), else -1
     * (the wake must slip).
     */
    int pickThief(unsigned home, Cycle when);
};

} // namespace retcon

#endif // RETCON_SIM_SHARDED_QUEUE_HPP
