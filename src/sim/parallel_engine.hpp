/**
 * @file
 * ParallelEngine: conservative host-parallel execution of the sharded
 * event queue, bit-identical to the sequential engine by construction.
 *
 * ## Why callbacks stay serialized
 *
 * Every event callback reaches globally coupled model state (the TM
 * machine's conflict detection, the banked directory, the trace
 * stream), so bit-identity with the sequential engine forces callbacks
 * to execute in exactly the sequential global (cycle, seq) order. The
 * engine therefore serializes *execution* behind a migrating dispatch
 * token while parallelizing everything around it: each worker owns a
 * contiguous group of shards and concurrently applies cross-shard
 * mailbox traffic to its heaps (pushes, cancel marks, cancelled-top
 * pruning) and republishes its shards' horizons while the token holder
 * is busy running callbacks. Heap maintenance — the non-model half of
 * a discrete-event simulator's work — overlaps with model execution.
 *
 * ## The barrier-free lower-bound-timestamp protocol
 *
 * - Worker w owns shards [first_w, first_w + count_w). A shard's heap
 *   is touched ONLY by its owner thread: the holder dispatches only
 *   its own shards' events, and foreign schedules/cancels travel
 *   through per-pair SPSC mailboxes applied by the owner.
 * - Each shard publishes a horizon slot (next-due (cycle, seq), or
 *   "empty") under a per-slot spinlock. The owner republishes after
 *   applying mail and before handing off the token.
 * - Mail to a consumer carries a per-consumer sequence number
 *   (allocated under the token) and is applied strictly in that
 *   order, so a cancel can never outrun the schedule it targets.
 * - The holder computes a conservative lower bound for every foreign
 *   shard: the published horizon, min-ed with the earliest in-flight
 *   mailed schedule (`mailedMin`) while the owner's mailbox is not
 *   settled (applied-counter < sent-counter). It executes its own
 *   earliest event only when that event lex-precedes every foreign
 *   bound; otherwise it publishes its horizons and hands the token to
 *   the bound's owner. Each handoff applies outstanding mail and
 *   refines a stale bound, so the protocol cannot ping-pong forever.
 * - With a modeled dispatch bandwidth, the work-steal busy-probe needs
 *   *exact* foreign horizons; the holder waits for all mailboxes to
 *   settle before consulting them (counted as a stall, not a barrier:
 *   no worker ever waits for all others collectively).
 *
 * Determinism follows: schedule order (and thus the global seq
 * allocation), dispatch order, slip/steal decisions, and every model
 * callback happen in the identical sequence as the sequential engine,
 * on a fixed host thread per core. Wall-clock wins come from the
 * overlapped heap maintenance and, at the tool level, from running
 * independent sweep cells on host threads (docs/parallel-engine.md).
 */

#ifndef RETCON_SIM_PARALLEL_ENGINE_HPP
#define RETCON_SIM_PARALLEL_ENGINE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "sim/sharded_queue.hpp"

namespace retcon {

/** Conservative host-parallel engine over a ShardedEventQueue. */
class ParallelEngine
{
  public:
    /** Host-side counters (never part of simulated results). */
    struct Stats {
        unsigned workers = 1;
        std::uint64_t handoffs = 0; ///< Token migrations.
        std::uint64_t stalls = 0;   ///< Holder waits on in-flight mail.
        std::uint64_t mailed = 0;   ///< Cross-worker messages sent.
        double wallMs = 0.0;        ///< run() wall-clock time.
    };

    /**
     * @p workers host threads drive @p q's shards in contiguous
     * groups; clamped to the shard count. The engine does not attach
     * itself: call q.setEngine(&engine) to activate delegation.
     */
    ParallelEngine(ShardedEventQueue &q, unsigned workers);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    unsigned workers() const { return _nworkers; }

    /** True while worker threads are live (run() in progress). */
    bool
    active() const
    {
        return _active.load(std::memory_order_acquire);
    }

    /** Execute the queue to completion; same contract as
     *  ShardedEventQueue::run(). */
    Cycle run(Cycle maxCycles);

    const Stats &stats() const { return _stats; }

    // ---- Called by ShardedEventQueue while active (token holder) ----
    EventHandle routeSchedule(unsigned shard, Cycle when,
                              EventQueue::Callback cb);
    void routeCancel(EventHandle h);

    /**
     * Mailed schedules need sender-fabricated event ids; they live in
     * EventQueue's foreign-id range, above every slab handle and below
     * the shard tag at bit 56, and the owning shard maps them back.
     */
    static constexpr std::uint64_t kMailIdBase = EventQueue::kForeignIdBase;

  private:
    struct Mail {
        enum class Kind : std::uint8_t { Schedule, Cancel };
        Kind kind = Kind::Schedule;
        unsigned shard = 0;
        Cycle when = 0;        ///< Cancel: sender's dispatch position.
        std::uint64_t seq = 0; ///< Cancel: sender's dispatch position.
        std::uint64_t id = 0;  ///< Heap-local id (no shard tag).
        std::uint64_t mailSeq = 0;
        EventQueue::Callback cb;
    };

    /**
     * Single-producer single-consumer ring. The producer role rotates
     * with the dispatch token; release/acquire chains through the
     * token handoff make the rotation sound.
     */
    class SpscRing
    {
      public:
        explicit SpscRing(std::size_t cap) : _slots(cap), _mask(cap - 1)
        {}

        bool
        tryPush(Mail &&m)
        {
            std::size_t t = _tail.load(std::memory_order_relaxed);
            std::size_t h = _head.load(std::memory_order_acquire);
            if (t - h > _mask)
                return false;
            _slots[t & _mask] = std::move(m);
            _tail.store(t + 1, std::memory_order_release);
            return true;
        }

        bool
        tryPop(Mail &m)
        {
            std::size_t h = _head.load(std::memory_order_relaxed);
            std::size_t t = _tail.load(std::memory_order_acquire);
            if (h == t)
                return false;
            m = std::move(_slots[h & _mask]);
            _head.store(h + 1, std::memory_order_release);
            return true;
        }

      private:
        std::vector<Mail> _slots;
        std::size_t _mask;
        alignas(64) std::atomic<std::size_t> _head{0};
        alignas(64) std::atomic<std::size_t> _tail{0};
    };

    /** Published per-shard horizon, guarded by a tiny spinlock. */
    struct alignas(64) HorizonSlot {
        std::atomic_flag lock = ATOMIC_FLAG_INIT;
        Cycle when = kNoEvent;
        std::uint64_t seq = 0;
    };

    struct Worker {
        unsigned first = 0; ///< First owned shard.
        unsigned count = 0; ///< Owned shard count.
        /// Reorder buffer: mail arrives over W-1 rings but applies in
        /// per-consumer mailSeq order.
        std::map<std::uint64_t, Mail> stash;
        std::uint64_t nextApply = 0;
        unsigned idleSpins = 0;
        std::thread thread;
    };

    static constexpr Cycle kNoEvent = ~Cycle(0);

    ShardedEventQueue &_q;
    unsigned _nworkers;
    std::vector<Worker> _workers;
    std::vector<unsigned> _ownerOf; ///< shard -> worker.
    std::vector<std::unique_ptr<SpscRing>> _rings; ///< [prod*W + cons].
    std::vector<HorizonSlot> _slots;               ///< One per shard.

    // Token-owned state: written only by the current holder (or the
    // owner applying mail, for the applied counters); cross-thread
    // visibility rides the release/acquire token handoff.
    std::vector<std::uint64_t> _sentMail; ///< Per consumer.
    std::unique_ptr<std::atomic<std::uint64_t>[]> _appliedMail;
    std::vector<std::pair<Cycle, std::uint64_t>> _mailedMin; ///< Per shard.
    std::uint64_t _nextMailId = kMailIdBase;
    Cycle _maxCycles = kNoEvent;

    std::atomic<unsigned> _token{0};
    std::atomic<bool> _stop{false};
    std::atomic<bool> _active{false};

    Stats _stats;

    void workerLoop(unsigned w);
    bool drainMail(unsigned w);
    bool holderStep(unsigned w);
    void publishShards(unsigned w);
    void writeSlot(unsigned shard, Cycle when, std::uint64_t seq);
    std::pair<Cycle, std::uint64_t> readSlot(unsigned shard);
    void sendMail(unsigned producer, unsigned consumer, Mail &&m);
    static bool lexLess(Cycle aw, std::uint64_t as, Cycle bw,
                        std::uint64_t bs);
};

} // namespace retcon

#endif // RETCON_SIM_PARALLEL_ENGINE_HPP
