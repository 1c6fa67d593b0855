/**
 * @file
 * Contention-aware re-dispatch scheduling for the sharded cluster.
 *
 * The execution layer restarts an aborted transaction immediately,
 * which re-collides the same conflicting requests in lockstep: on the
 * Zipfian service mix ~85% of core cycles at 32 threads is genuine
 * transaction conflict time (ROADMAP, "the conflict-time wall"). The
 * machine-level NACK backoff (htm::BackoffConfig) spaces retries of
 * one transaction; this scheduler additionally de-phases *different*
 * requests that keep fighting over the same data.
 *
 * Mechanism: one small hot-block table per event-queue shard. The
 * TMMachine's contention hook feeds it every contention loss — the
 * contested block of a conflict abort, the blamed bank of a commit-
 * token wait/steal (htm::tokenBlameKey). Entries accumulate "heat"
 * and cool by halving every kDecayInterval cycles. When a core's
 * transaction aborts, the cluster asks the core's home-shard table
 * whether the blamed key is hot; if its heat is at or above the
 * threshold, the restart is deferred by heat * kDeferBase cycles
 * (capped), so requests queued behind a hot block spread out instead
 * of re-arriving together.
 *
 * The table is deliberately tiny (direct-mapped, kEntries slots per
 * shard): hot blocks are by definition few, and a cold block that
 * aliases a hot slot merely evicts it — the cost is a missed
 * deferral, never a wrong result. Deferral changes timing only; all
 * concurrency control stays in the TMMachine, so every run remains
 * deterministic for a fixed configuration and the reenactment audit
 * holds with the scheduler engaged (tests/unit/test_contention.cpp).
 *
 * Threading: single-threaded. observe() and deferDelay() mutate a
 * shard's table and stats with plain accesses; they fire only from
 * event callbacks, which the sharded queue runs on one thread
 * (docs/run-level-parallelism.md).
 */

#ifndef RETCON_EXEC_SCHEDULER_HPP
#define RETCON_EXEC_SCHEDULER_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "htm/types.hpp"
#include "sim/types.hpp"

namespace retcon::exec {

/** Contention-scheduler switch (ClusterConfig::sched). */
struct SchedulerConfig {
    /** Master switch: off reproduces immediate re-dispatch exactly. */
    bool enabled = false;
};

/** Per-shard hot-block tables + deferral decisions. */
class ContentionScheduler
{
  public:
    /// Hot-table slots per shard (direct-mapped by key hash).
    static constexpr std::size_t kEntries = 16;
    /// Heat at which a blamed key counts as hot (defers kick in).
    static constexpr std::uint32_t kHeatThreshold = 2;
    /// Deferral per heat unit at/above the threshold, in cycles.
    /// Tuned on the service mix: past ~64 it over-stalls
    /// (docs/tuning.md).
    static constexpr Cycle kDeferBase = 32;
    /// Upper bound on a single deferral.
    static constexpr Cycle kDeferCap = 512;
    /// Heat halves every this-many cycles (lazy decay on access).
    static constexpr Cycle kDecayInterval = 2048;

    /** Lifetime counters, per shard. */
    struct Stats {
        std::uint64_t observed = 0;    ///< Contention events fed.
        std::uint64_t defers = 0;      ///< Restarts deferred.
        std::uint64_t deferCycles = 0; ///< Total deferral imposed.
    };

    explicit ContentionScheduler(unsigned nshards) : _shards(nshards) {}

    /** Record a contention loss blaming @p key on @p shard. */
    void
    observe(unsigned shard, Addr key, Cycle now)
    {
        Shard &s = _shards[shard];
        ++s.stats.observed;
        Slot &slot = s.slots[slotOf(key)];
        if (slot.key != key) {
            // Aliasing eviction: the newcomer starts cold.
            slot.key = key;
            slot.heat = 0;
            slot.lastTouch = now;
        }
        decay(slot, now);
        ++slot.heat;
    }

    /**
     * Deferral for re-dispatching a task on @p shard whose last abort
     * blamed @p key: 0 when the key is cold (or 0), else heat-scaled
     * cycles. Charges the deferral to the shard's stats.
     *
     * A key that blames a commit-token bank (htm::tokenBlameKey) is
     * never deferred: token-steal victims are transactions that had
     * *reached their commit point*, so delaying their retry delays a
     * commit one-for-one, which measured as a net throughput loss on
     * the service mix (docs/tuning.md). Token events still heat the
     * table, so per-bank hotness stays observable in the stats;
     * full-key hashing keeps bank keys from aliasing block entries.
     */
    Cycle
    deferDelay(unsigned shard, Addr key, Cycle now)
    {
        if (key == 0 || key >= htm::kTokenBlameBase)
            return 0;
        Shard &s = _shards[shard];
        Slot &slot = s.slots[slotOf(key)];
        if (slot.key != key)
            return 0;
        decay(slot, now);
        if (slot.heat < kHeatThreshold)
            return 0;
        Cycle d = std::min(kDeferBase * slot.heat, kDeferCap);
        ++s.stats.defers;
        s.stats.deferCycles += d;
        return d;
    }

    const Stats &stats(unsigned shard) const
    {
        return _shards[shard].stats;
    }

  private:
    struct Slot {
        Addr key = 0;
        std::uint32_t heat = 0;
        Cycle lastTouch = 0;
    };
    struct Shard {
        std::array<Slot, kEntries> slots{};
        Stats stats;
    };

    std::vector<Shard> _shards;

    static std::size_t
    slotOf(Addr key)
    {
        // Fibonacci hash of the full key (not the block index: token
        // blame keys for different banks live inside one block-sized
        // range — htm::tokenBlameKey — and must not all alias to a
        // single slot). The table is per shard, so no cross-shard
        // interference.
        return static_cast<std::size_t>(
                   key * 0x9e3779b97f4a7c15ull >> 40) %
               kEntries;
    }

    /**
     * Bring @p slot's heat current as of @p now, halving once per
     * whole kDecayInterval elapsed since the slot's epoch. The epoch
     * advances only by the intervals actually applied, so residual
     * sub-interval time is carried — frequent touches cannot starve
     * decay by repeatedly resetting the clock.
     */
    static void
    decay(Slot &slot, Cycle now)
    {
        if (slot.heat == 0) {
            // Nothing to decay: fast-forward the epoch so a later
            // heat-up does not inherit eons of idle elapsed time.
            slot.lastTouch = now;
            return;
        }
        Cycle halvings = (now - slot.lastTouch) / kDecayInterval;
        if (halvings == 0)
            return;
        slot.heat = halvings >= 32
                        ? 0
                        : slot.heat >> static_cast<unsigned>(halvings);
        slot.lastTouch += halvings * kDecayInterval;
    }
};

} // namespace retcon::exec

#endif // RETCON_EXEC_SCHEDULER_HPP
