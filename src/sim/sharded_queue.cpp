#include "sim/sharded_queue.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace retcon {

ShardedEventQueue::ShardedEventQueue(const ShardedQueueConfig &cfg,
                                     const std::vector<unsigned> &homes)
    : _cfg(cfg), _shards(cfg.nshards)
{
    sim_assert(cfg.nshards >= 1 && cfg.nshards <= 64,
               "shard count out of range");
    sim_assert(homes.size() <= 64, "wake slot count out of range");
    while (_leaves < homes.size())
        _leaves *= 2;
    _slots.resize(_leaves + 1);
    _parks.resize(_leaves);
    for (std::size_t i = 0; i < homes.size(); ++i) {
        sim_assert(homes[i] < cfg.nshards, "shard %u out of range",
                   homes[i]);
        _slots[i].shard = static_cast<std::uint8_t>(homes[i]);
    }
    // An empty list: the sentinel is its own neighbour. Every match is
    // between idle slots, so the always-idle sentinel wins them all.
    Slot &end = _slots[_leaves];
    end.prev = end.next = static_cast<std::uint16_t>(_leaves);
    _tree.assign(2 * _leaves, static_cast<std::uint8_t>(_leaves));
    for (unsigned i = 0; i < _leaves; ++i)
        _tree[_leaves + i] = static_cast<std::uint8_t>(i);
    // Same candidate set pickThief probes: the rest of the shard's
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
    sim_assert(slot < _leaves, "wake slot %u out of range", slot);
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
    if (s.listed)
        unlist(slot); // Its tree path saw only the idle sentinel.
    else
        update(slot);
}

void
ShardedEventQueue::park(unsigned slot, Cycle period, std::uint64_t budget)
{
    Slot &s = _slots[slot];
    sim_assert(s.when != kIdle, "parking idle slot %u", slot);
    _parks[slot].period = period;
    _parks[slot].budget = budget;
    if (s.listed)
        return;
    s.listed = true;
    _tree[_leaves + slot] = static_cast<std::uint8_t>(_leaves);
    update(slot);
    link(slot);
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
    std::size_t n = _leaves + slot;
    unsigned win = _tree[n];
    for (; n > 1; n /= 2) {
        win = first(win, _tree[n ^ 1]);
        _tree[n / 2] = static_cast<std::uint8_t>(win);
    }
}

void
ShardedEventQueue::unlist(unsigned slot)
{
    unlink(slot);
    _slots[slot].listed = false;
    // The leaf's ancestors may still name the sentinel; both are idle
    // now, so the slot's next wake replays the path.
    _tree[_leaves + slot] = static_cast<std::uint8_t>(slot);
}

void
ShardedEventQueue::batchSlip(unsigned shard, Cycle when)
{
    // Bit i: slot i slipped / was due by `when + 1` / is listed.
    std::uint64_t bumped = 0, near = 0, listed = 0;
    for (unsigned i = 0; i < _leaves; ++i) {
        Slot &due = _slots[i];
        bool hit = due.shard == shard && due.when == when;
        near |= std::uint64_t(due.when - when <= 1) << i;
        listed |= std::uint64_t(due.listed) << i;
        due.when += hit;
        due.slipped |= hit;
        bumped |= std::uint64_t(hit) << i;
    }
    _shards[shard].stats.deferred += std::popcount(bumped);
    // No wake is due before `when`, so a bumped wake moves from the
    // front to `when + 1` and keeps its seq. Against a wake due later
    // than `when + 1`, or another bumped one, every match comes out as
    // before; it can only turn against an unbumped wake due at `when`
    // (another shard's) or at `when + 1`. A subtree without such a
    // wake keeps its winner, so replaying their paths alone restores
    // the tree.
    for (std::uint64_t m = near & ~bumped & ~listed; m; m &= m - 1)
        update(static_cast<unsigned>(std::countr_zero(m)));
    if (!(bumped & listed))
        return;
    // The bumped listed wakes were due first, so they lie in the
    // list's run due by `when + 1` (the sentinel's kIdle ends it).
    // Walking that run back from its end, each moves forward past the
    // wakes now before it, behind the later ones already placed.
    unsigned end = _slots[_leaves].next;
    while (_slots[end].when <= when + 1)
        end = _slots[end].next;
    for (unsigned m = _slots[end].prev; m != _leaves;) {
        unsigned prev = _slots[m].prev;
        if (bumped >> m & 1)
            sift(m);
        m = prev;
    }
}

void
ShardedEventQueue::sift(unsigned slot)
{
    unsigned at = _slots[slot].next;
    if (!before(at, slot))
        return;
    unlink(slot);
    do
        at = _slots[at].next;
    while (before(at, slot));
    linkAfter(slot, _slots[at].prev);
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
ShardedEventQueue::pickThief(unsigned home, Cycle when)
{
    unsigned bw = _cfg.dispatchBandwidth;
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
        // The earliest wake heads the tree or the parked list; idle
        // slots, and the sentinel that ends the list, sit at kIdle.
        // A branch, not first(): its outcome is mostly predictable (most
        // dispatches are parked fires), and then the fire need not wait
        // for the comparison.
        unsigned found = _tree[1], head = _slots[_leaves].next;
        if (before(head, found))
            found = head;
        Slot &s = _slots[found];
        Cycle when = s.when;
        if (when == kIdle)
            return -1;
        _atWhen = when;
        _atSeq = s.seq;
        if (when > maxCycles)
            return -1;

        Shard &home = _shards[s.shard];
        Shard *exec = &home;
        if (unsigned bw = _cfg.dispatchBandwidth) {
            if (when != _dispatchCycle) {
                // Clock advances: all dispatch slots refill.
                _dispatchCycle = when;
                for (Shard &sh : _shards)
                    sh.dispatched = 0;
            }
            if (home.dispatched >= bw) {
                // All the home shard's slots this cycle are spoken for:
                // the wake slips one cycle on, keeping its seq and so
                // its order among the wakes it was ahead of, unless an
                // idle shard steals it. With no possible thief, every
                // other wake the shard has due this cycle would slip
                // in turn, so they all slip now.
                if (home.batchSlip) {
                    batchSlip(s.shard, when);
                    continue;
                }
                int thief = pickThief(s.shard, when);
                if (thief < 0) {
                    ++s.when;
                    ++home.stats.deferred;
                    if (s.listed)
                        sift(found);
                    else
                        update(found);
                    continue;
                }
                exec = &_shards[thief];
            }
            ++exec->dispatched;
        }
        ++home.stats.drained;
        ++exec->stats.executed;
        ++_executed;
        _now = when;
        if (!s.listed) {
            s.when = kIdle;
            update(found);
            return static_cast<int>(found);
        }
        Park &p = _parks[found];
        if (!p.budget) {
            s.when = kIdle;
            unlist(found);
            return static_cast<int>(found);
        }
        // The owner's fire and re-wake, performed here on the list.
        sim_assert(p.period < kIdle - when, "wake past the end of time");
        --p.budget;
        ++p.fires;
        s.when = when + p.period;
        s.seq = _nextSeq++;
        s.slipped = false;
        ++home.stats.scheduled;
        unlink(found);
        link(found);
    }
}

} // namespace retcon
