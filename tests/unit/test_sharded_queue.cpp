/**
 * @file
 * Tests for the sharded event queue (sim/sharded_queue.hpp): global
 * time/schedule ordering across shards, equivalence with a single
 * queue for any shard count, cancellation routing, dispatch-bandwidth
 * slips, and the work-stealing fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <tuple>
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
 * Brute-force reference for ShardedEventQueue: one flat event list,
 * scanned linearly, where an over-quota event slips literally, one
 * event and one cycle at a time. It shares the dispatch rules
 * (per-shard bandwidth, steal groups, the rotating steal cursor) and
 * none of the queue's data structures.
 */
class RefQueue
{
  public:
    using Handle = std::size_t;

    explicit RefQueue(const ShardedQueueConfig &cfg)
        : _cfg(cfg), _stats(cfg.nshards), _dispatched(cfg.nshards, 0)
    {}

    Cycle now() const { return _now; }
    unsigned executor() const { return _exec; }
    const ShardStats &shardStats(unsigned s) const { return _stats[s]; }

    Handle
    schedule(unsigned shard, Cycle when, std::function<void()> cb)
    {
        _events.push_back({when, shard, true, std::move(cb)});
        ++_stats[shard].scheduled;
        return _events.size() - 1;
    }

    void cancel(Handle h) { _events[h].live = false; }

    bool
    step()
    {
        for (;;) {
            Event *e = earliest(-1);
            if (!e)
                return false;
            if (e->when != _dispatchCycle) {
                _dispatchCycle = e->when;
                std::fill(_dispatched.begin(), _dispatched.end(), 0u);
            }
            int exec = pick(e->shard, e->when);
            if (exec < 0) {
                ++e->when;
                ++_stats[e->shard].deferred;
                continue;
            }
            ++_dispatched[exec];
            ++_stats[e->shard].drained;
            ++_stats[exec].executed;
            _now = e->when;
            _exec = static_cast<unsigned>(exec);
            e->live = false;
            std::function<void()> cb = std::move(e->cb);
            cb();
            return true;
        }
    }

  private:
    /// Indexed by schedule order, which is the global tie-break seq.
    struct Event {
        Cycle when;
        unsigned shard;
        bool live;
        std::function<void()> cb;
    };

    /** Earliest live event on @p shard (-1: on any shard). */
    Event *
    earliest(int shard)
    {
        Event *best = nullptr;
        for (Event &e : _events)
            if (e.live && (shard < 0 || e.shard == unsigned(shard)) &&
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
    std::vector<Event> _events;
    std::vector<ShardStats> _stats;
    std::vector<unsigned> _dispatched;
    Cycle _now = 0;
    Cycle _dispatchCycle = 0;
    unsigned _cursor = 0;
    unsigned _exec = 0;
};

/** ShardedEventQueue behind the interface the script drives. */
class RealQueue
{
  public:
    using Handle = EventHandle;

    explicit RealQueue(const ShardedQueueConfig &cfg)
        : _q(cfg), _seen(cfg.nshards, 0)
    {}

    Cycle now() const { return _q.now(); }
    const ShardStats &shardStats(unsigned s) const
    {
        return _q.shardStats(s);
    }

    Handle
    schedule(unsigned shard, Cycle when, std::function<void()> cb)
    {
        return _q.schedule(shard, when, std::move(cb));
    }

    void cancel(Handle h) { _q.cancel(h); }
    bool step() { return _q.step(); }

    /** The shard whose executed count moved since the last call. */
    unsigned
    executor()
    {
        for (unsigned s = 0; s < _seen.size(); ++s) {
            if (_q.shardStats(s).executed != _seen[s]) {
                _seen[s] = _q.shardStats(s).executed;
                return s;
            }
        }
        return ~0u;
    }

  private:
    ShardedEventQueue _q;
    std::vector<std::uint64_t> _seen;
};

/**
 * Seeded random script: self-rescheduling "cores", random cancels
 * (inside events and between steps, of pending and of stale handles),
 * and delta-0 schedules onto random shards. Logs every dispatch as
 * (seq, cycle, executor shard).
 */
template <class Q>
struct Script {
    Script(Q &queue, unsigned shards, std::uint64_t seed)
        : q(queue), nshards(shards), rng(seed)
    {}

    Q &q;
    unsigned nshards;
    Xoshiro rng;
    std::vector<typename Q::Handle> handles;
    std::vector<std::tuple<std::size_t, Cycle, unsigned>> log;
    std::vector<int> budget;

    void
    add(unsigned shard, Cycle delta, std::function<void()> body)
    {
        std::size_t seq = handles.size();
        handles.push_back(
            q.schedule(shard, q.now() + delta, [this, seq, body] {
                log.emplace_back(seq, q.now(), q.executor());
                body();
            }));
    }

    void
    cancelRecent()
    {
        // Recent handles are mostly pending; older ones mostly stale.
        std::size_t n = std::min<std::size_t>(handles.size(), 24);
        q.cancel(handles[handles.size() - 1 - rng.below(n)]);
    }

    void
    core(unsigned c)
    {
        if (budget[c]-- <= 0)
            return;
        std::uint64_t r = rng.below(16);
        if (r < 2)
            cancelRecent();
        else if (r < 5)
            add(static_cast<unsigned>(rng.below(nshards)), 0, [] {});
        add(c % nshards, r == 15 ? 0 : 1 + rng.below(3),
            [this, c] { core(c); });
    }

    /** Run to the end, with random cancels between steps. */
    void
    run(unsigned ncores)
    {
        budget.assign(ncores, 30);
        for (unsigned c = 0; c < ncores; ++c)
            add(c % nshards, c % 3, [this, c] { core(c); });
        while (q.step()) {
            if (rng.below(8) == 0)
                cancelRecent();
        }
    }
};

} // namespace

TEST(ShardedQueue, RunsEventsInGlobalTimeOrderAcrossShards)
{
    ShardedEventQueue q(config(3));
    std::vector<int> order;
    q.schedule(2, 30, [&] { order.push_back(30); });
    q.schedule(0, 10, [&] { order.push_back(10); });
    q.schedule(1, 20, [&] { order.push_back(20); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
    EXPECT_EQ(q.now(), 30u);
    EXPECT_TRUE(q.empty());
}

TEST(ShardedQueue, SameCycleTiesBreakOnGlobalScheduleOrder)
{
    // Same-cycle events land on different shards but must fire in the
    // order they were scheduled, exactly as one queue would run them.
    ShardedEventQueue q(config(4));
    std::vector<int> order;
    q.schedule(3, 5, [&] { order.push_back(0); });
    q.schedule(1, 5, [&] { order.push_back(1); });
    q.schedule(2, 5, [&] { order.push_back(2); });
    q.schedule(0, 5, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardedQueue, ExecutionOrderIndependentOfShardCount)
{
    // A deterministic self-scheduling workload must execute in the
    // same order for any shard count (cores map round-robin).
    auto trace = [](unsigned nshards) {
        ShardedEventQueue q(config(nshards));
        std::vector<int> order;
        constexpr unsigned kCores = 8;
        for (unsigned c = 0; c < kCores; ++c) {
            unsigned shard = c % nshards;
            // Each "core" reschedules itself with a varying stride.
            auto tick = [&q, &order, c, shard](auto &&self,
                                               int depth) -> void {
                order.push_back(static_cast<int>(c * 100) + depth);
                if (depth >= 6)
                    return;
                q.scheduleAfter(shard, 1 + (c + depth) % 3,
                                [&, self, depth] { self(self, depth + 1); });
            };
            q.schedule(shard, c % 4, [&, tick] { tick(tick, 0); });
        }
        q.run();
        return order;
    };
    std::vector<int> one = trace(1);
    EXPECT_EQ(trace(2), one);
    EXPECT_EQ(trace(3), one);
    EXPECT_EQ(trace(8), one);
}

TEST(ShardedQueue, CancelRoutesToTheHomeShard)
{
    ShardedEventQueue q(config(4));
    EXPECT_TRUE(q.empty());
    bool fired = false;
    q.schedule(0, 5, [] {});
    EventHandle h = q.schedule(3, 5, [&] { fired = true; });
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(h);
    q.cancel(h);             // Idempotent.
    q.cancel(EventHandle{}); // The empty handle names no event.
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(ShardedQueue, BandwidthSlipsOverQuotaEventsToLaterCycles)
{
    ShardedEventQueue q(config(1, /*bandwidth=*/1));
    std::vector<Cycle> at;
    for (int i = 0; i < 3; ++i)
        q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.run();
    // One dispatch per cycle: the burst serializes over 5, 6, 7.
    EXPECT_EQ(at, (std::vector<Cycle>{5, 6, 7}));
    EXPECT_GT(q.shardStats(0).deferred, 0u);
}

TEST(ShardedQueue, IdleShardStealsInsteadOfSlipping)
{
    ShardedEventQueue q(config(2, /*bandwidth=*/1));
    std::vector<Cycle> at;
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.run();
    // Shard 1 is idle at cycle 5 and drains shard 0's second event in
    // the same cycle — no slip.
    EXPECT_EQ(at, (std::vector<Cycle>{5, 5}));
    EXPECT_EQ(q.shardStats(1).stolen, 1u);
    EXPECT_EQ(q.shardStats(1).executed, 1u);
    EXPECT_EQ(q.shardStats(0).drained, 2u);
    EXPECT_EQ(q.shardStats(0).deferred, 0u);
}

TEST(ShardedQueue, StealingDisabledFallsBackToSlips)
{
    ShardedEventQueue q(config(2, /*bandwidth=*/1, /*stealing=*/false));
    std::vector<Cycle> at;
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.run();
    EXPECT_EQ(at, (std::vector<Cycle>{5, 6}));
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, BusyShardIsNotPickedAsThief)
{
    // Both shards have an event due this cycle; neither may steal, so
    // the over-quota burst on shard 0 slips instead.
    ShardedEventQueue q(config(2, /*bandwidth=*/1));
    std::vector<std::pair<int, Cycle>> at;
    q.schedule(0, 5, [&] { at.emplace_back(0, q.now()); });
    q.schedule(0, 5, [&] { at.emplace_back(1, q.now()); });
    q.schedule(1, 5, [&] { at.emplace_back(2, q.now()); });
    q.run();
    EXPECT_EQ(at, (std::vector<std::pair<int, Cycle>>{
                      {0, 5}, {2, 5}, {1, 6}}));
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, PendingAndExecutedAggregateAcrossShards)
{
    ShardedEventQueue q(config(3));
    for (unsigned s = 0; s < 3; ++s)
        for (int i = 0; i < 2; ++i)
            q.schedule(s, s + 1, [] {});
    EXPECT_EQ(q.pending(), 6u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(q.executed(), 6u);
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(q.shardStats(s).scheduled, 2u);
        EXPECT_EQ(q.shardStats(s).drained, 2u);
    }
}

TEST(ShardedQueue, RunStopsAtMaxCycles)
{
    ShardedEventQueue q(config(2));
    int ran = 0;
    q.schedule(0, 10, [&] { ++ran; });
    q.schedule(1, 100, [&] { ++ran; });
    q.run(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(ShardedQueue, CancellingAnEventThatAlreadyRanIsANoOp)
{
    ShardedEventQueue q(config(2));
    int fired = 0;
    EventHandle first = q.schedule(1, 1, [&] { ++fired; });
    q.schedule(0, 5, [&] { ++fired; });
    q.step();
    q.cancel(first);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(ShardedQueue, MatchesBruteForceReferenceOverConfigGrid)
{
    // Drive the queue and the brute-force reference with one seeded
    // script over shards × bandwidth × stealing × steal group; require
    // the same dispatch sequence and the same per-shard counters.
    // Batched slips (no possible thief) and per-event slips (stealing)
    // must both reproduce literal one-at-a-time slipping.
    std::uint64_t deferred = 0, stolen = 0;
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
                        RealQueue real(cfg);
                        Script<RealQueue> a(real, nshards, seed);
                        a.run(12);
                        RefQueue ref(cfg);
                        Script<RefQueue> b(ref, nshards, seed);
                        b.run(12);
                        ASSERT_EQ(a.log, b.log);
                        for (unsigned s = 0; s < nshards; ++s) {
                            EXPECT_EQ(fields(real.shardStats(s)),
                                      fields(ref.shardStats(s)))
                                << "shard " << s;
                            deferred += ref.shardStats(s).deferred;
                            stolen += ref.shardStats(s).stolen;
                        }
                    }
    // The grid really slips and steals.
    EXPECT_GT(deferred, 0u);
    EXPECT_GT(stolen, 0u);
}
