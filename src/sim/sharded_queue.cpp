#include "sim/sharded_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/parallel_engine.hpp"

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
    // Same candidate set pickExecutorT probes: the rest of the shard's
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
    // Under an active parallel engine, only the dispatch-token holder
    // executes callbacks (and therefore schedules); operations on a
    // foreign worker's shard travel through its mailbox.
    if (_engine && _engine->active())
        return _engine->routeSchedule(shard, when, std::move(cb));
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
    if (_engine && _engine->active())
        return _engine->routeCancel(h);
    cancelAt(shard, h.id & kIdMask, _atWhen, _atSeq);
}

void
ShardedEventQueue::cancelAt(unsigned shard, std::uint64_t id, Cycle when,
                            std::uint64_t seq)
{
    EventQueue &q = *_shards[shard];
    if (q.slipCountedAfter(EventHandle{id}, when, seq))
        --_stats[shard].deferred;
    q.cancel(EventHandle{id});
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
    return pickExecutorT(home, when,
                         [this](unsigned t, Cycle &w, std::uint64_t &q) {
                             return _shards[t]->peekNext(w, q);
                         });
}

bool
ShardedEventQueue::step(Cycle maxCycles)
{
    for (;;) {
        Cycle when = 0;
        std::uint64_t seq = 0;
        int home = findEarliest(when, seq);
        if (home < 0)
            return false;
        _atWhen = when;
        _atSeq = seq;
        if (when > maxCycles)
            return false;

        if (dispatchAt(static_cast<unsigned>(home), when,
                       [this](unsigned t, Cycle &w, std::uint64_t &q) {
                           return _shards[t]->peekNext(w, q);
                       }))
            return true;
    }
}

Cycle
ShardedEventQueue::run(Cycle maxCycles)
{
    if (_engine)
        return _engine->run(maxCycles);
    while (step(maxCycles)) {
    }
    return _now;
}

} // namespace retcon
