#include "sim/sharded_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon {

ShardedEventQueue::ShardedEventQueue(const ShardedQueueConfig &cfg,
                                     const std::vector<unsigned> &homes)
    : _cfg(cfg), _shards(cfg.nshards)
{
    sim_assert(cfg.nshards >= 1 && cfg.nshards <= 64,
               "shard count out of range");
    sim_assert(homes.size() <= 64, "wake slot count out of range");
    std::size_t leaves = 1;
    while (leaves < homes.size())
        leaves *= 2;
    _slots.resize(leaves);
    _parks.resize(leaves);
    for (std::size_t i = 0; i < homes.size(); ++i) {
        sim_assert(homes[i] < cfg.nshards, "shard %u out of range",
                   homes[i]);
        _slots[i].shard = static_cast<std::uint8_t>(homes[i]);
    }
    _tree.resize(2 * leaves);
    for (std::size_t i = 0; i < leaves; ++i)
        _tree[leaves + i] = static_cast<std::uint8_t>(i);
    rebuild();
    // Same candidate set pickExecutor probes: the rest of the shard's
    // steal group, clipped to the shard count.
    unsigned group = cfg.stealGroup ? cfg.stealGroup : cfg.nshards;
    for (unsigned s = 0; s < cfg.nshards; ++s) {
        unsigned base = (s / group) * group;
        bool thief =
            cfg.workStealing && std::min(base + group, cfg.nshards) - base > 1;
        _shards[s].batchSlip = !thief;
    }
}

const ShardedEventQueue::ShardStats &
ShardedEventQueue::shardStats(unsigned shard) const
{
    sim_assert(shard < _cfg.nshards, "shard %u out of range", shard);
    return _shards[shard].stats;
}

void
ShardedEventQueue::wake(unsigned slot, Cycle delta)
{
    sim_assert(slot < _slots.size(), "wake slot %u out of range", slot);
    Slot &s = _slots[slot];
    sim_assert(s.when == kIdle, "slot %u woken twice", slot);
    sim_assert(delta < kIdle - _now, "wake past the end of time");
    s.when = _now + delta;
    s.seq = _nextSeq++;
    s.slipped = false;
    ++_shards[s.shard].stats.scheduled;
    update(slot);
}

void
ShardedEventQueue::cancel(unsigned slot)
{
    Slot &s = _slots[slot];
    if (s.when == kIdle)
        return;
    if (s.slipped) {
        // A batched slip counts a wake at (its cycle - 1, its seq) in
        // dispatch order, before the per-wake order reaches it.
        // Cancelling the wake before that point takes the count back,
        // so `deferred` stays equal to the per-wake count.
        Cycle counted = s.when - 1;
        if (counted > _atWhen || (counted == _atWhen && s.seq > _atSeq))
            --_shards[s.shard].stats.deferred;
    }
    s.when = kIdle;
    _parks[slot].budget = 0;
    update(slot);
}

void
ShardedEventQueue::park(unsigned slot, Cycle period, std::uint64_t budget)
{
    sim_assert(_slots[slot].when != kIdle, "parking idle slot %u", slot);
    _parks[slot].period = period;
    _parks[slot].budget = budget;
}

std::size_t
ShardedEventQueue::pending() const
{
    return std::count_if(_slots.begin(), _slots.end(),
                         [](const Slot &s) { return s.when != kIdle; });
}

void
ShardedEventQueue::update(unsigned slot)
{
    unsigned win = slot;
    for (std::size_t n = _slots.size() + slot; n > 1; n /= 2) {
        win = first(win, _tree[n ^ 1]);
        _tree[n / 2] = static_cast<std::uint8_t>(win);
    }
}

void
ShardedEventQueue::rebuild()
{
    for (std::size_t n = _slots.size() - 1; n >= 1; --n)
        _tree[n] =
            static_cast<std::uint8_t>(first(_tree[2 * n], _tree[2 * n + 1]));
}

bool
ShardedEventQueue::dueOn(unsigned shard, Cycle when) const
{
    for (const Slot &s : _slots)
        if (s.shard == shard && s.when <= when)
            return true;
    return false;
}

int
ShardedEventQueue::pickExecutor(unsigned home, Cycle when)
{
    unsigned bw = _cfg.dispatchBandwidth;
    if (bw == 0 || _shards[home].dispatched < bw)
        return static_cast<int>(home);
    if (!_cfg.workStealing || _cfg.nshards == 1)
        return -1;
    // Work-stealing fallback: a shard with no wake due this cycle and
    // spare dispatch slots drains the busy shard. The rotating cursor
    // spreads steals across idle shards deterministically. Candidates
    // come from the home shard's steal group only — the whole machine
    // by default, the home cluster's shards in a fleet.
    unsigned group = _cfg.stealGroup ? _cfg.stealGroup : _cfg.nshards;
    unsigned base = (home / group) * group;
    for (unsigned probe = 0; probe < group; ++probe) {
        unsigned t = base + (_stealCursor + probe) % group;
        if (t == home || t >= _cfg.nshards || _shards[t].dispatched >= bw)
            continue;
        if (dueOn(t, when))
            continue; // Busy itself this cycle; not a thief.
        _stealCursor = (t + 1) % group;
        ++_shards[t].stats.stolen;
        return static_cast<int>(t);
    }
    return -1;
}

int
ShardedEventQueue::step(Cycle maxCycles)
{
    for (;;) {
        // Idle slots sit at kIdle, after every pending wake.
        unsigned found = _tree[1];
        Slot &s = _slots[found];
        Cycle when = s.when;
        if (when == kIdle)
            return -1;
        _atWhen = when;
        _atSeq = s.seq;
        if (when > maxCycles)
            return -1;

        Shard &home = _shards[s.shard];
        if (when != _dispatchCycle) {
            // Clock advances: all dispatch slots refill.
            _dispatchCycle = when;
            for (Shard &sh : _shards)
                sh.dispatched = 0;
        }
        int exec = pickExecutor(s.shard, when);
        if (exec < 0) {
            // All slots this cycle are spoken for: the wake slips one
            // cycle on, keeping its seq and so its order among the
            // wakes it was ahead of. With no possible thief, every
            // other wake the shard has due this cycle would slip in
            // turn, so they all slip now.
            if (!home.batchSlip) {
                ++s.when;
                ++home.stats.deferred;
                update(found);
                continue;
            }
            for (Slot &due : _slots) {
                bool hit = due.shard == s.shard && due.when == when;
                due.when += hit;
                due.slipped |= hit;
                home.stats.deferred += hit;
            }
            rebuild();
            continue;
        }
        ++_shards[exec].dispatched;
        ++home.stats.drained;
        ++_shards[exec].stats.executed;
        ++_executed;
        _now = when;
        Park &p = _parks[found];
        if (p.budget) {
            // The owner's fire and re-wake, performed here: one tree
            // path instead of a dispatch's and a wake's.
            sim_assert(p.period < kIdle - when, "wake past the end of time");
            --p.budget;
            ++p.fires;
            s.when = when + p.period;
            s.seq = _nextSeq++;
            s.slipped = false;
            ++home.stats.scheduled;
            update(found);
            continue;
        }
        s.when = kIdle;
        update(found);
        return static_cast<int>(found);
    }
}

} // namespace retcon
