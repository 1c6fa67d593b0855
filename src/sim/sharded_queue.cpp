#include "sim/sharded_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon {

namespace {

constexpr unsigned kSlotBits = 24;
constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
constexpr std::uint32_t kGenLimit = 1u << 31;
constexpr std::uint32_t kNoSlot = ~0u;

/// Min-heap order on (when, seq) for std::push_heap/std::pop_heap.
struct Later {
    template <class K>
    bool
    operator()(const K &a, const K &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

template <class K>
void
push(std::vector<K> &heap, const K &k)
{
    heap.push_back(k);
    std::push_heap(heap.begin(), heap.end(), Later{});
}

template <class K>
K
pop(std::vector<K> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), Later{});
    K k = heap.back();
    heap.pop_back();
    return k;
}

} // namespace

ShardedEventQueue::ShardedEventQueue(const ShardedQueueConfig &cfg)
    : _cfg(cfg), _shards(cfg.nshards)
{
    sim_assert(cfg.nshards >= 1 && cfg.nshards <= 64,
               "shard count out of range");
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

EventHandle
ShardedEventQueue::schedule(unsigned shard, Cycle when, Callback cb)
{
    sim_assert(shard < _cfg.nshards, "shard %u out of range", shard);
    sim_assert(when >= _now, "scheduling into the past");
    std::uint64_t seq = _nextSeq++;
    std::uint32_t slot = acquire(shard, seq, std::move(cb));
    Shard &sh = _shards[shard];
    push(sh.heap, Key{when, seq, slot});
    ++sh.stats.scheduled;
    return EventHandle{(std::uint64_t(_slots[slot].gen) << kSlotBits) |
                       slot};
}

std::uint32_t
ShardedEventQueue::acquire(unsigned shard, std::uint64_t seq, Callback &&cb)
{
    std::uint32_t slot;
    if (!_free.empty()) {
        slot = _free.back();
        _free.pop_back();
    } else {
        sim_assert(_slots.size() <= kSlotMask, "event slab exhausted");
        slot = static_cast<std::uint32_t>(_slots.size());
        _slots.emplace_back();
    }
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    s.seq = seq;
    s.shard = static_cast<std::uint8_t>(shard);
    s.live = true;
    ++_live;
    return slot;
}

void
ShardedEventQueue::release(std::uint32_t slot)
{
    Slot &s = _slots[slot];
    s.cb = nullptr;
    s.live = false;
    s.slipped = false;
    // A new generation turns every outstanding handle to the slot stale.
    s.gen = s.gen + 1 == kGenLimit ? 1 : s.gen + 1;
    _free.push_back(slot);
}

std::uint32_t
ShardedEventQueue::find(EventHandle h) const
{
    // Generations start at 1, so the empty handle matches no slot.
    auto slot = static_cast<std::uint32_t>(h.id & kSlotMask);
    if (slot >= _slots.size())
        return kNoSlot;
    const Slot &s = _slots[slot];
    return s.live && s.gen == (h.id >> kSlotBits) ? slot : kNoSlot;
}

void
ShardedEventQueue::cancel(EventHandle h)
{
    std::uint32_t slot = find(h);
    if (slot == kNoSlot)
        return;
    Slot &s = _slots[slot];
    if (s.slipped) {
        // A batched slip counts an event at (slipped-set cycle - 1, its
        // seq) in dispatch order, before the per-event order reaches
        // it. Cancelling the event before that point takes the count
        // back, so `deferred` stays equal to the per-event count.
        Shard &sh = _shards[s.shard];
        Cycle counted = sh.slipWhen - 1;
        if (counted > _atWhen || (counted == _atWhen && s.seq > _atSeq))
            --sh.stats.deferred;
        --sh.slippedLive;
    }
    s.live = false;
    --_live;
}

std::vector<ShardedEventQueue::Key> *
ShardedEventQueue::nextSet(Shard &sh)
{
    while (!sh.heap.empty() && !_slots[sh.heap.front().slot].live)
        release(pop(sh.heap).slot);
    while (!sh.slipped.empty() && !_slots[sh.slipped.front().slot].live)
        release(pop(sh.slipped).slot);
    if (sh.slipped.empty())
        return sh.heap.empty() ? nullptr : &sh.heap;
    if (sh.heap.empty())
        return &sh.slipped;
    const Key &h = sh.heap.front();
    bool heapFirst = h.when < sh.slipWhen ||
                     (h.when == sh.slipWhen && h.seq < sh.slipped.front().seq);
    return heapFirst ? &sh.heap : &sh.slipped;
}

bool
ShardedEventQueue::peek(Shard &sh, Cycle &when, std::uint64_t &seq)
{
    std::vector<Key> *set = nextSet(sh);
    if (!set)
        return false;
    when = set == &sh.slipped ? sh.slipWhen : set->front().when;
    seq = set->front().seq;
    return true;
}

std::size_t
ShardedEventQueue::slipDue(Shard &sh, Cycle when)
{
    std::size_t slipped = 0;
    if (sh.slipped.empty() || sh.slipWhen == when) {
        // The set already at `when` slips whole: one clock write.
        if (!sh.slipped.empty())
            slipped = sh.slippedLive;
        sh.slipWhen = when + 1;
    }
    sim_assert(sh.slipWhen == when + 1, "slipped set out of step");
    while (!sh.heap.empty() && sh.heap.front().when == when) {
        Key k = pop(sh.heap);
        Slot &s = _slots[k.slot];
        if (!s.live) {
            release(k.slot);
            continue;
        }
        k.when = 0;
        push(sh.slipped, k);
        s.slipped = true;
        ++sh.slippedLive;
        ++slipped;
    }
    return slipped;
}

int
ShardedEventQueue::findEarliest(Cycle &when, std::uint64_t &seq)
{
    int best = -1;
    for (unsigned s = 0; s < _cfg.nshards; ++s) {
        Cycle w;
        std::uint64_t q;
        if (!peek(_shards[s], w, q))
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
    if (bw == 0 || _shards[home].dispatched < bw)
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
        if (t == home || t >= _cfg.nshards || _shards[t].dispatched >= bw)
            continue;
        Cycle w;
        std::uint64_t q;
        if (peek(_shards[t], w, q) && w <= when)
            continue; // Busy itself this cycle; not a thief.
        _stealCursor = (t + 1) % group;
        ++_shards[t].stats.stolen;
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

        Shard &home = _shards[found];
        if (when != _dispatchCycle) {
            // Clock advances: all dispatch slots refill.
            _dispatchCycle = when;
            for (Shard &sh : _shards)
                sh.dispatched = 0;
        }
        int exec = pickExecutor(static_cast<unsigned>(found), when);
        if (exec < 0) {
            // All slots this cycle are spoken for: the event slips. With
            // no possible thief, every other event the shard has due
            // this cycle would slip in turn, so they all slip now.
            if (home.batchSlip) {
                home.stats.deferred += slipDue(home, when);
            } else {
                // The peeked event heads the heap (the shard never
                // batch-slips); it moves one cycle on, keeping its seq
                // and so its order among the events it was ahead of.
                sim_assert(home.slipped.empty(), "slip on a batch shard");
                std::pop_heap(home.heap.begin(), home.heap.end(), Later{});
                ++home.heap.back().when;
                std::push_heap(home.heap.begin(), home.heap.end(), Later{});
                ++home.stats.deferred;
            }
            continue;
        }
        ++_shards[exec].dispatched;
        ++home.stats.drained;
        ++_shards[exec].stats.executed;
        ++_executed;
        _now = when;

        // The earliest key still heads its set: only other shards were
        // peeked since findEarliest.
        std::vector<Key> &set = *nextSet(home);
        std::uint32_t slot = pop(set).slot;
        Slot &s = _slots[slot];
        --_live;
        if (s.slipped)
            --home.slippedLive;
        // Move the callback out before running it: it may schedule, and
        // a growing slab relocates its slots.
        Callback cb = std::move(s.cb);
        release(slot);
        cb();
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
