#include "sim/sharded_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon {

ShardedEventQueue::ShardedEventQueue(const ShardedQueueConfig &cfg)
    : _cfg(cfg)
{
    sim_assert(cfg.nshards >= 1 && cfg.nshards <= 64,
               "shard count out of range");
    _shards.reserve(cfg.nshards);
    for (unsigned s = 0; s < cfg.nshards; ++s)
        _shards.push_back(std::make_unique<EventQueue>());
    _stats.resize(cfg.nshards);
    _dispatched.resize(cfg.nshards, 0);
    // Same candidate set pickExecutor probes: the rest of the shard's
    // steal group, clipped to the shard count.
    unsigned group = cfg.stealGroup ? cfg.stealGroup : cfg.nshards;
    _batchSlip.resize(cfg.nshards);
    for (unsigned s = 0; s < cfg.nshards; ++s) {
        unsigned base = (s / group) * group;
        bool thief =
            cfg.workStealing && std::min(base + group, cfg.nshards) - base > 1;
        _batchSlip[s] = !thief;
    }
}

Cycle
ShardedEventQueue::shardNow(unsigned shard) const
{
    sim_assert(shard < _cfg.nshards, "shard %u out of range", shard);
    return _shards[shard]->now();
}

const ShardedEventQueue::ShardStats &
ShardedEventQueue::shardStats(unsigned shard) const
{
    sim_assert(shard < _cfg.nshards, "shard %u out of range", shard);
    return _stats[shard];
}

EventHandle
ShardedEventQueue::schedule(unsigned shard, Cycle when, Callback cb)
{
    sim_assert(shard < _cfg.nshards, "shard %u out of range", shard);
    sim_assert(when >= _now, "scheduling into the global past");
    EventHandle h =
        _shards[shard]->scheduleSeq(when, _nextSeq++, std::move(cb));
    sim_assert(h.id <= kIdMask, "per-shard event ids exhausted");
    ++_stats[shard].scheduled;
    h.id |= static_cast<std::uint64_t>(shard) << kShardShift;
    return h;
}

void
ShardedEventQueue::cancel(EventHandle h)
{
    if (!h.valid())
        return;
    auto shard = static_cast<unsigned>(h.id >> kShardShift);
    sim_assert(shard < _cfg.nshards, "cancel of a foreign handle");
    // A batched slip counts an event before the per-event order reaches
    // it; cancelling the event before that point takes the count back,
    // so `deferred` stays equal to the per-event slip count.
    EventQueue &q = *_shards[shard];
    EventHandle local{h.id & kIdMask};
    if (q.slipCountedAfter(local, _atWhen, _atSeq))
        --_stats[shard].deferred;
    q.cancel(local);
}

bool
ShardedEventQueue::empty() const
{
    for (const auto &s : _shards)
        if (!s->empty())
            return false;
    return true;
}

std::size_t
ShardedEventQueue::pending() const
{
    std::size_t n = 0;
    for (const auto &s : _shards)
        n += s->pending();
    return n;
}

int
ShardedEventQueue::findEarliest(Cycle &when, std::uint64_t &seq)
{
    int best = -1;
    for (unsigned s = 0; s < _cfg.nshards; ++s) {
        Cycle w;
        std::uint64_t q;
        if (!_shards[s]->peekNext(w, q))
            continue;
        if (best < 0 || w < when || (w == when && q < seq)) {
            best = static_cast<int>(s);
            when = w;
            seq = q;
        }
    }
    return best;
}

int
ShardedEventQueue::pickExecutor(unsigned home, Cycle when)
{
    unsigned bw = _cfg.dispatchBandwidth;
    if (bw == 0 || _dispatched[home] < bw)
        return static_cast<int>(home);
    if (!_cfg.workStealing || _cfg.nshards == 1)
        return -1;
    // Work-stealing fallback: a shard with no event due this cycle and
    // spare dispatch slots drains the busy shard. The rotating cursor
    // spreads steals across idle shards deterministically. Candidates
    // come from the home shard's steal group only — the whole machine
    // by default, the home cluster's shards in a fleet.
    unsigned group = _cfg.stealGroup ? _cfg.stealGroup : _cfg.nshards;
    unsigned base = (home / group) * group;
    for (unsigned probe = 0; probe < group; ++probe) {
        unsigned t = base + (_stealCursor + probe) % group;
        if (t == home || t >= _cfg.nshards || _dispatched[t] >= bw)
            continue;
        Cycle w;
        std::uint64_t q;
        if (_shards[t]->peekNext(w, q) && w <= when)
            continue; // Busy itself this cycle; not a thief.
        _stealCursor = (t + 1) % group;
        ++_stats[t].stolen;
        return static_cast<int>(t);
    }
    return -1;
}

bool
ShardedEventQueue::step(Cycle maxCycles)
{
    for (;;) {
        Cycle when = 0;
        std::uint64_t seq = 0;
        int found = findEarliest(when, seq);
        if (found < 0)
            return false;
        _atWhen = when;
        _atSeq = seq;
        if (when > maxCycles)
            return false;

        auto home = static_cast<unsigned>(found);
        if (when != _dispatchCycle) {
            // Clock advances: all dispatch slots refill.
            _dispatchCycle = when;
            std::fill(_dispatched.begin(), _dispatched.end(), 0u);
        }
        int exec = pickExecutor(home, when);
        if (exec < 0) {
            // All slots this cycle are spoken for: the event slips. With
            // no possible thief, every other event the shard has due
            // this cycle would slip in turn, so they all slip now.
            if (_batchSlip[home]) {
                _stats[home].deferred += _shards[home]->slipDue(when);
            } else {
                _shards[home]->deferNext(when + 1);
                ++_stats[home].deferred;
            }
            continue;
        }
        ++_dispatched[exec];
        ++_stats[home].drained;
        ++_stats[exec].executed;
        ++_executed;
        _now = when;
        // Runs the peeked event: it is its shard's earliest, and
        // advances that shard's local clock domain.
        _shards[home]->step();
        return true;
    }
}

Cycle
ShardedEventQueue::run(Cycle maxCycles)
{
    while (step(maxCycles)) {
    }
    return _now;
}

} // namespace retcon
