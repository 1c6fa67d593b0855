/**
 * @file
 * Tests for the sharded wake table (sim/sharded_queue.hpp): global
 * time/wake ordering across shards, equivalence with a single queue
 * for any shard count, cancellation routing, dispatch-bandwidth slips,
 * the work-stealing fallback, and parked slots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

using namespace retcon;

namespace {

ShardedQueueConfig
config(unsigned nshards, unsigned bandwidth = 0, bool stealing = true)
{
    ShardedQueueConfig cfg;
    cfg.nshards = nshards;
    cfg.dispatchBandwidth = bandwidth;
    cfg.workStealing = stealing;
    return cfg;
}

using ShardStats = ShardedEventQueue::ShardStats;

std::array<std::uint64_t, 5>
fields(const ShardStats &s)
{
    return {s.scheduled, s.drained, s.executed, s.stolen, s.deferred};
}

/**
 * Brute-force reference for ShardedEventQueue: one flat list of every
 * wake ever made, scanned linearly, where an over-quota wake slips
 * literally, one wake and one cycle at a time, and a parked slot's
 * fire is a literal wake() made before step() moves on. It shares the
 * dispatch rules (per-shard bandwidth, steal groups, the rotating
 * steal cursor) and none of the queue's data structures.
 */
class RefQueue
{
  public:
    RefQueue(const ShardedQueueConfig &cfg, std::vector<unsigned> homes)
        : _cfg(cfg), _homes(std::move(homes)), _stats(cfg.nshards),
          _dispatched(cfg.nshards, 0), _parks(_homes.size())
    {}

    Cycle now() const { return _now; }
    const ShardStats &shardStats(unsigned s) const { return _stats[s]; }

    void
    wake(unsigned slot, Cycle delta)
    {
        _events.push_back({_now + delta, slot, true});
        ++_stats[_homes[slot]].scheduled;
    }

    void
    cancel(unsigned slot)
    {
        for (Event &e : _events)
            if (e.slot == slot)
                e.live = false;
        _parks[slot].budget = 0;
    }

    void
    park(unsigned slot, Cycle period, std::uint64_t budget)
    {
        _parks[slot].period = period;
        _parks[slot].budget = budget;
    }

    void unpark(unsigned slot) { _parks[slot].budget = 0; }

    std::uint64_t
    takeParked(unsigned slot)
    {
        return std::exchange(_parks[slot].fires, 0);
    }

    int
    step()
    {
        for (;;) {
            Event *e = earliest(-1);
            if (!e)
                return -1;
            unsigned home = _homes[e->slot];
            if (e->when != _dispatchCycle) {
                _dispatchCycle = e->when;
                std::fill(_dispatched.begin(), _dispatched.end(), 0u);
            }
            int exec = pick(home, e->when);
            if (exec < 0) {
                ++e->when;
                ++_stats[home].deferred;
                continue;
            }
            ++_dispatched[exec];
            ++_stats[home].drained;
            ++_stats[exec].executed;
            _now = e->when;
            e->live = false;
            Park &p = _parks[e->slot];
            if (p.budget) {
                --p.budget;
                ++p.fires;
                wake(e->slot, p.period);
                continue;
            }
            return static_cast<int>(e->slot);
        }
    }

  private:
    /// Indexed by wake order, which is the global tie-break seq.
    struct Event {
        Cycle when;
        unsigned slot;
        bool live;
    };

    struct Park {
        Cycle period = 0;
        std::uint64_t budget = 0;
        std::uint64_t fires = 0;
    };

    /** Earliest live wake homed on @p shard (-1: on any shard). */
    Event *
    earliest(int shard)
    {
        Event *best = nullptr;
        for (Event &e : _events)
            if (e.live && (shard < 0 || _homes[e.slot] == unsigned(shard)) &&
                (!best || e.when < best->when))
                best = &e;
        return best;
    }

    int
    pick(unsigned home, Cycle when)
    {
        unsigned bw = _cfg.dispatchBandwidth;
        if (bw == 0 || _dispatched[home] < bw)
            return static_cast<int>(home);
        if (!_cfg.workStealing)
            return -1;
        unsigned group = _cfg.stealGroup ? _cfg.stealGroup : _cfg.nshards;
        unsigned base = (home / group) * group;
        for (unsigned probe = 0; probe < group; ++probe) {
            unsigned t = base + (_cursor + probe) % group;
            if (t == home || t >= _cfg.nshards || _dispatched[t] >= bw)
                continue;
            Event *due = earliest(static_cast<int>(t));
            if (due && due->when <= when)
                continue;
            _cursor = (t + 1) % group;
            ++_stats[t].stolen;
            return static_cast<int>(t);
        }
        return -1;
    }

    ShardedQueueConfig _cfg;
    std::vector<unsigned> _homes;
    std::vector<Event> _events;
    std::vector<ShardStats> _stats;
    std::vector<unsigned> _dispatched;
    Cycle _now = 0;
    Cycle _dispatchCycle = 0;
    unsigned _cursor = 0;
    std::vector<Park> _parks;
};

/** ShardedEventQueue behind the interface the script drives. */
class RealQueue
{
  public:
    RealQueue(const ShardedQueueConfig &cfg,
              const std::vector<unsigned> &homes)
        : _q(cfg, homes)
    {}

    Cycle now() const { return _q.now(); }
    const ShardStats &shardStats(unsigned s) const
    {
        return _q.shardStats(s);
    }

    void wake(unsigned slot, Cycle delta) { _q.wake(slot, delta); }
    void cancel(unsigned slot) { _q.cancel(slot); }
    int step() { return _q.step(); }
    void park(unsigned slot, Cycle period, std::uint64_t budget)
    {
        _q.park(slot, period, budget);
    }
    void unpark(unsigned slot) { _q.unpark(slot); }
    std::uint64_t takeParked(unsigned slot) { return _q.takeParked(slot); }

  private:
    ShardedEventQueue _q;
};

/**
 * Seeded random script making the moves a Core makes with its wake
 * slot: a fired core re-wakes itself 0..3 cycles on (and may park that
 * wake for a few fires), remote-aborts another pending core (cancel,
 * then re-wake it at delta 0; the parked fires it had stay counted),
 * releases a parked core (unpark), releases an idle core from a
 * barrier (wake at delta 0), or goes idle. Logs every dispatch as
 * (slot, cycle, every shard's executed count, parked fires taken).
 */
template <class Q>
struct Script {
    Script(Q &queue, unsigned slots, unsigned shards, std::uint64_t seed)
        : q(queue), nslots(slots), nshards(shards), rng(seed)
    {}

    Q &q;
    unsigned nslots, nshards;
    Xoshiro rng;
    std::vector<bool> pending;
    std::vector<bool> parked; ///< Parked since its last dispatch.
    std::vector<int> budget;
    std::vector<std::tuple<int, Cycle, std::vector<std::uint64_t>,
                           std::uint64_t>>
        log;
    unsigned parkedCancels = 0;

    void
    wake(unsigned c, Cycle delta)
    {
        q.wake(c, delta);
        pending[c] = true;
    }

    /** A random slot other than @p c, pending or idle; -1 if none. */
    int
    other(unsigned c, bool isPending)
    {
        auto start = static_cast<unsigned>(rng.below(nslots));
        for (unsigned k = 0; k < nslots; ++k) {
            unsigned o = (start + k) % nslots;
            if (o != c && pending[o] == isPending)
                return static_cast<int>(o);
        }
        return -1;
    }

    void
    fire(unsigned c)
    {
        pending[c] = false;
        std::vector<std::uint64_t> executed(nshards);
        for (unsigned s = 0; s < nshards; ++s)
            executed[s] = q.shardStats(s).executed;
        log.emplace_back(c, q.now(), executed, q.takeParked(c));
        parked[c] = false;
        if (budget[c]-- <= 0)
            return;
        std::uint64_t r = rng.below(16);
        int o = r < 6 ? other(c, r < 4) : -1;
        if (o >= 0 && r < 3) { // Remote abort.
            parkedCancels += parked[o];
            q.cancel(static_cast<unsigned>(o));
        }
        if (o >= 0 && r == 3)
            q.unpark(static_cast<unsigned>(o)); // Wait released.
        else if (o >= 0)
            wake(static_cast<unsigned>(o), 0);
        if (r != 15) {
            Cycle delta = rng.below(4);
            wake(c, delta);
            if (rng.below(3) == 0) {
                q.park(c, delta, rng.below(6));
                parked[c] = true;
            }
        }
    }

    /**
     * With @p fanIn, every slot first wakes at its own cycle and all
     * but two park at once, with periods 2..6, so most wakes start on
     * the parked list and re-wake into its middle.
     */
    void
    run(bool fanIn = false)
    {
        pending.assign(nslots, false);
        parked.assign(nslots, false);
        budget.assign(nslots, 30);
        for (unsigned c = 0; c < nslots; ++c) {
            wake(c, fanIn ? c : c % 3);
            if (fanIn && c >= 2) {
                q.park(c, 2 + c % 5, 1 + rng.below(12));
                parked[c] = true;
            }
        }
        for (int c; (c = q.step()) >= 0;)
            fire(static_cast<unsigned>(c));
    }
};

/** @p n slots homed round-robin over @p nshards. */
std::vector<unsigned>
roundRobin(unsigned n, unsigned nshards)
{
    std::vector<unsigned> homes(n);
    for (unsigned i = 0; i < n; ++i)
        homes[i] = i % nshards;
    return homes;
}

/** Fire every pending wake; @return (slot, cycle) per dispatch. */
std::vector<std::pair<int, Cycle>>
drain(ShardedEventQueue &q, Cycle maxCycles = ~Cycle(0))
{
    std::vector<std::pair<int, Cycle>> fired;
    for (int s; (s = q.step(maxCycles)) >= 0;)
        fired.emplace_back(s, q.now());
    return fired;
}

} // namespace

TEST(ShardedQueue, RunsWakesInGlobalTimeOrderAcrossShards)
{
    ShardedEventQueue q(config(3), {0, 1, 2});
    q.wake(2, 30);
    q.wake(0, 10);
    q.wake(1, 20);
    std::vector<std::pair<int, Cycle>> want = {{0, 10}, {1, 20}, {2, 30}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(ShardedQueue, SameCycleTiesBreakOnGlobalWakeOrder)
{
    // Same-cycle wakes land on different shards but must fire in the
    // order they were made, exactly as one queue would run them.
    ShardedEventQueue q(config(4), {3, 1, 2, 0});
    for (unsigned s : {2u, 0u, 3u, 1u})
        q.wake(s, 5);
    std::vector<std::pair<int, Cycle>> want = {{2, 5}, {0, 5}, {3, 5},
                                               {1, 5}};
    EXPECT_EQ(drain(q), want);
}

TEST(ShardedQueue, ExecutionOrderIndependentOfShardCount)
{
    // Self-rewaking cores must execute in the same order for any shard
    // count (cores map round-robin).
    auto trace = [](unsigned nshards) {
        constexpr unsigned kCores = 8;
        ShardedEventQueue q(config(nshards), roundRobin(kCores, nshards));
        std::vector<int> depth(kCores, 0), order;
        for (unsigned c = 0; c < kCores; ++c)
            q.wake(c, c % 4);
        for (int c; (c = q.step()) >= 0;) {
            order.push_back(c * 100 + depth[c]);
            if (depth[c] < 6)
                q.wake(c, 1 + (c + depth[c]++) % 3);
        }
        return order;
    };
    std::vector<int> one = trace(1);
    EXPECT_EQ(trace(2), one);
    EXPECT_EQ(trace(3), one);
    EXPECT_EQ(trace(8), one);
}

TEST(ShardedQueue, CancelRoutesToTheHomeShard)
{
    ShardedEventQueue q(config(4), {0, 3});
    EXPECT_EQ(q.pending(), 0u);
    q.wake(0, 5);
    q.wake(1, 5);
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(1);
    q.cancel(1); // Idempotent.
    EXPECT_EQ(q.pending(), 1u);
    std::vector<std::pair<int, Cycle>> want = {{0, 5}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_EQ(q.shardStats(3).scheduled, 1u);
    EXPECT_EQ(q.shardStats(3).drained, 0u);
}

TEST(ShardedQueue, BandwidthSlipsOverQuotaWakesToLaterCycles)
{
    ShardedEventQueue q(config(1, /*bandwidth=*/1), {0, 0, 0});
    for (unsigned s = 0; s < 3; ++s)
        q.wake(s, 5);
    // One dispatch per cycle: the burst serializes over 5, 6, 7.
    std::vector<std::pair<int, Cycle>> want = {{0, 5}, {1, 6}, {2, 7}};
    EXPECT_EQ(drain(q), want);
    // Slot 1 slips once, slot 2 twice.
    EXPECT_EQ(q.shardStats(0).deferred, 3u);
}

TEST(ShardedQueue, IdleShardStealsInsteadOfSlipping)
{
    ShardedEventQueue q(config(2, /*bandwidth=*/1), {0, 0});
    q.wake(0, 5);
    q.wake(1, 5);
    // Shard 1 is idle at cycle 5 and drains shard 0's second wake in
    // the same cycle — no slip.
    std::vector<std::pair<int, Cycle>> want = {{0, 5}, {1, 5}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.shardStats(1).stolen, 1u);
    EXPECT_EQ(q.shardStats(1).executed, 1u);
    EXPECT_EQ(q.shardStats(0).drained, 2u);
    EXPECT_EQ(q.shardStats(0).deferred, 0u);
}

TEST(ShardedQueue, StealingDisabledFallsBackToSlips)
{
    ShardedEventQueue q(config(2, /*bandwidth=*/1, /*stealing=*/false),
                        {0, 0});
    q.wake(0, 5);
    q.wake(1, 5);
    std::vector<std::pair<int, Cycle>> want = {{0, 5}, {1, 6}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, BusyShardIsNotPickedAsThief)
{
    // Both shards have a wake due this cycle; neither may steal, so the
    // over-quota burst on shard 0 slips instead.
    ShardedEventQueue q(config(2, /*bandwidth=*/1), {0, 0, 1});
    for (unsigned s = 0; s < 3; ++s)
        q.wake(s, 5);
    std::vector<std::pair<int, Cycle>> want = {{0, 5}, {2, 5}, {1, 6}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, PendingAndExecutedAggregateAcrossShards)
{
    ShardedEventQueue q(config(3), roundRobin(6, 3));
    for (unsigned s = 0; s < 6; ++s)
        q.wake(s, s % 3 + 1);
    EXPECT_EQ(q.pending(), 6u);
    drain(q);
    EXPECT_EQ(q.executed(), 6u);
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(q.shardStats(s).scheduled, 2u);
        EXPECT_EQ(q.shardStats(s).drained, 2u);
    }
}

TEST(ShardedQueue, RunStopsAtMaxCycles)
{
    ShardedEventQueue q(config(2), {0, 1});
    q.wake(0, 10);
    q.wake(1, 100);
    EXPECT_EQ(drain(q, 50).size(), 1u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(ShardedQueue, CancellingAWakeThatAlreadyFiredIsANoOp)
{
    ShardedEventQueue q(config(2), {1, 0});
    q.wake(0, 1);
    q.wake(1, 5);
    EXPECT_EQ(q.step(), 0);
    q.cancel(0);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(drain(q).size(), 1u);
    EXPECT_EQ(q.executed(), 2u);
    EXPECT_EQ(q.pending(), 0u);
}

namespace {

/** What a grid run exercised, summed over its configurations. */
struct GridTotals {
    std::uint64_t deferred = 0, stolen = 0, parkedFires = 0;
    std::uint64_t parkedCancelsBatched = 0;
};

/**
 * Drive the queue and the brute-force reference with one seeded script
 * (Script::run(@p fanIn)) over shards × bandwidth × stealing × steal
 * group; require the same dispatch sequence, the same parked-fire
 * counts and the same per-shard counters.
 */
void
runGrid(bool fanIn, GridTotals &out)
{
    constexpr unsigned kSlots = 12;
    for (unsigned nshards : {1u, 2u, 4u})
        for (unsigned bw : {0u, 1u, 2u, 3u})
            for (bool steal : {true, false})
                for (unsigned group : {0u, 1u})
                    for (std::uint64_t seed : {1u, 2u, 3u}) {
                        ShardedQueueConfig cfg = config(nshards, bw, steal);
                        cfg.stealGroup = group;
                        SCOPED_TRACE(testing::Message()
                                     << "shards=" << nshards << " bw=" << bw
                                     << " steal=" << steal
                                     << " group=" << group
                                     << " seed=" << seed);
                        RealQueue real(cfg, roundRobin(kSlots, nshards));
                        Script<RealQueue> a(real, kSlots, nshards, seed);
                        a.run(fanIn);
                        RefQueue ref(cfg, roundRobin(kSlots, nshards));
                        Script<RefQueue> b(ref, kSlots, nshards, seed);
                        b.run(fanIn);
                        ASSERT_EQ(a.log, b.log);
                        for (const auto &entry : b.log)
                            out.parkedFires += std::get<3>(entry);
                        bool batched = bw > 0 && (!steal || group == 1 ||
                                                  nshards == 1);
                        out.parkedCancelsBatched +=
                            batched * b.parkedCancels;
                        for (unsigned s = 0; s < nshards; ++s) {
                            EXPECT_EQ(fields(real.shardStats(s)),
                                      fields(ref.shardStats(s)))
                                << "shard " << s;
                            out.deferred += ref.shardStats(s).deferred;
                            out.stolen += ref.shardStats(s).stolen;
                        }
                    }
}

} // namespace

TEST(ShardedQueue, MatchesBruteForceReferenceOverConfigGrid)
{
    // Batched slips (no possible thief) and per-wake slips (stealing)
    // must both reproduce literal one-at-a-time slipping, also when a
    // remote abort cancels a batch-slipped wake before the dispatch
    // order reaches it, and a parked slot's fires must equal the
    // reference's literal re-wakes.
    GridTotals t;
    runGrid(false, t);
    // The grid really slips, steals, parks, and cancels parked wakes
    // under batched slips.
    EXPECT_GT(t.deferred, 0u);
    EXPECT_GT(t.stolen, 0u);
    EXPECT_GT(t.parkedFires, 0u);
    EXPECT_GT(t.parkedCancelsBatched, 0u);
}

TEST(ShardedQueue, ParkedFanInMatchesBruteForceReferenceOverConfigGrid)
{
    // Most slots parked at once at distinct phases with unequal
    // periods: re-wakes land inside the parked list, not only at its
    // tail, and slips and steals act on listed wakes.
    GridTotals t;
    runGrid(true, t);
    EXPECT_GT(t.deferred, 0u);
    EXPECT_GT(t.stolen, 0u);
    EXPECT_GT(t.parkedFires, 0u);
    EXPECT_GT(t.parkedCancelsBatched, 0u);
}

TEST(ShardedQueue, ParkedSlipKeepsOrderAcrossShards)
{
    // Three listed wakes, each returned at its next fire (budget 0).
    // Slot 1's slips per wake at cycle 5 (shard 0 spent its slot on
    // slot 0, and shard 1 is busy with slot 2's), while slot 2's, made
    // later in the same cycle on the other shard, dispatches there.
    // The slipped wake must move behind slot 2's and ahead of slot 3's
    // at cycle 20: left at the head, it would fire before slot 2's and
    // send the clock backwards; appended at the tail, it would fire
    // after slot 3's.
    ShardedEventQueue q(config(2, /*bandwidth=*/1), {0, 0, 1, 1});
    q.wake(0, 5);
    q.wake(1, 5);
    q.park(1, 10, 0);
    q.wake(2, 5);
    q.park(2, 10, 0);
    q.wake(3, 20);
    q.park(3, 10, 0);
    std::vector<std::pair<int, Cycle>> want = {
        {0, 5}, {2, 5}, {1, 6}, {3, 20}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, ListedDueWakeIsNotAThief)
{
    // Shard 1's only wake is on the parked list and due at cycle 5, so
    // shard 1 is busy then and must not steal shard 0's second wake,
    // which slips to cycle 6 instead.
    ShardedEventQueue q(config(2, /*bandwidth=*/1), {0, 0, 1});
    q.wake(0, 5);
    q.wake(1, 5);
    q.wake(2, 5);
    q.park(2, 10, 1);
    std::vector<std::pair<int, Cycle>> want = {{0, 5}, {1, 6}, {2, 15}};
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.takeParked(2), 1u);
}
