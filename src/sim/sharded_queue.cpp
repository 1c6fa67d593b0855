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
    _slots.resize(_leaves + 1 + cfg.nshards);
    _parks.resize(_leaves);
    for (std::size_t i = 0; i < homes.size(); ++i) {
        sim_assert(homes[i] < cfg.nshards, "shard %u out of range",
                   homes[i]);
        _slots[i].shard = static_cast<std::uint8_t>(homes[i]);
        _shards[homes[i]].homed |= std::uint64_t(1) << i;
    }
    // Empty lists: each sentinel is its own neighbour. Every match is
    // between idle slots, so the always-idle sentinel wins them all.
    for (unsigned end = _leaves; end < _slots.size(); ++end)
        _slots[end].prev = _slots[end].next = static_cast<std::uint16_t>(end);
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
        _shards[s].queues = !thief;
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
    ++_shards[s.shard].stats.scheduled;
    // One replay for the fire that left the path stale and this wake.
    if (slot == _stale)
        _stale = kNone;
    update(slot);
}

void
ShardedEventQueue::cancel(unsigned slot)
{
    Slot &s = _slots[slot];
    if (s.when == kIdle)
        return;
    if (s.queued) {
        // The per-wake order counts a queued wake's last slip at (B -
        // 1, its seq). A backlog slip counts it when the shard's slots
        // for B - 1 run out, ahead of that point; cancelling the wake
        // before the order reaches it takes the count back, so
        // `deferred` stays equal to the per-wake count. (A wake that
        // joined at B - 1 was counted at that point itself, which the
        // order has passed.)
        Shard &sh = _shards[s.shard];
        Cycle counted = sh.backlogWhen - 1;
        if (counted > _atWhen || (counted == _atWhen && s.seq > _atSeq))
            --sh.stats.deferred;
    }
    s.when = kIdle;
    _parks[slot].budget = 0;
    if (s.listed || s.queued)
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
    if (s.queued)
        return; // Fired from its backlog; its leaf holds the sentinel.
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
    if (_slots[slot].queued)
        dequeue(slot);
    else
        unlink(slot);
    _slots[slot].listed = false;
    // The leaf's ancestors may still name the sentinel; both are idle
    // now, so the slot's next wake replays the path.
    _tree[_leaves + slot] = static_cast<std::uint8_t>(slot);
}

void
ShardedEventQueue::enqueue(unsigned slot)
{
    Slot &s = _slots[slot];
    Shard &sh = _shards[s.shard];
    // The slip to B is counted now, at the wake's own place in the
    // dispatch order, as the per-wake order counts it.
    s.when = sh.backlogWhen;
    ++sh.stats.deferred;
    if (s.listed) {
        unlink(slot);
    } else {
        _tree[_leaves + slot] = static_cast<std::uint8_t>(_leaves);
        update(slot);
    }
    s.queued = true;
    // Sorted by seq: walk from the tail, where newer wakes sit.
    unsigned end = _leaves + 1 + s.shard, after = _slots[end].prev;
    while (after != end && _slots[after].seq > s.seq)
        after = _slots[after].prev;
    linkAfter(slot, after);
    ++sh.backlogSize;
    _backlogged |= std::uint64_t(1) << s.shard;
}

void
ShardedEventQueue::dequeue(unsigned slot)
{
    Slot &s = _slots[slot];
    unlink(slot);
    s.queued = false;
    if (--_shards[s.shard].backlogSize == 0)
        _backlogged &= ~(std::uint64_t(1) << s.shard);
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
    for (std::uint64_t m = _shards[shard].homed; m; m &= m - 1)
        if (_slots[std::countr_zero(m)].when <= when)
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
    if (_stale != kNone) {
        update(_stale);
        _stale = kNone;
    }
    for (;;) {
        // The earliest wake heads the tree, the parked list or a
        // backlog; idle slots, and the sentinel that ends the list, sit
        // at kIdle. A branch, not first(): its outcome is mostly
        // predictable (most dispatches are parked fires), and then the
        // fire need not wait for the comparison.
        unsigned found = _tree[1], head = _slots[_leaves].next;
        if (before(head, found))
            found = head;
        Cycle when = _slots[found].when;
        if (_backlogged) {
            // A backlog's head is keyed (B, its seq).
            std::uint64_t seq = _slots[found].seq;
            for (std::uint64_t m = _backlogged; m; m &= m - 1) {
                unsigned k = static_cast<unsigned>(std::countr_zero(m));
                Cycle b = _shards[k].backlogWhen;
                unsigned q = _slots[_leaves + 1 + k].next;
                if (b < when || (b == when && _slots[q].seq < seq)) {
                    found = q;
                    when = b;
                    seq = _slots[q].seq;
                }
            }
        }
        Slot &s = _slots[found];
        if (when == kIdle)
            return -1;
        _atWhen = when;
        _atSeq = s.seq;
        if (when > maxCycles)
            return -1;
        // A backlog head is dispatched now: B is past the cycle its
        // shard's slots last ran out in.
        bool queued = s.queued;
        if (queued)
            dequeue(found);

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
                // idle shard steals it. With no possible thief it
                // queues in the backlog, already slipped to the next
                // cycle.
                if (home.queues) {
                    sim_assert(!queued, "backlog head over quota");
                    enqueue(found);
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
            if (++exec->dispatched == bw && home.queues) {
                // Its last slot is used: the backlog's wakes, all due
                // now and later in the order, slip to the next cycle.
                home.stats.deferred += home.backlogSize;
                home.backlogWhen = when + 1;
            }
        }
        ++home.stats.drained;
        ++exec->stats.executed;
        ++_executed;
        _now = when;
        if (!queued) {
            if (!s.listed) {
                // Its path is replayed by its next wake or the next
                // step().
                s.when = kIdle;
                _stale = found;
                return static_cast<int>(found);
            }
            unlink(found);
        }
        // Unlinked, and its leaf holds the sentinel.
        Park &p = _parks[found];
        if (!s.listed || !p.budget) {
            s.when = kIdle;
            s.listed = false;
            // Its tree path saw only the idle sentinel.
            _tree[_leaves + found] = static_cast<std::uint8_t>(found);
            return static_cast<int>(found);
        }
        // The owner's fire and re-wake, performed here on the list.
        sim_assert(p.period < kIdle - when, "wake past the end of time");
        --p.budget;
        ++p.fires;
        s.when = when + p.period;
        s.seq = _nextSeq++;
        ++home.stats.scheduled;
        link(found);
    }
}

} // namespace retcon
