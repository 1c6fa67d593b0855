#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon {

namespace {

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

EventHandle
EventQueue::schedule(Cycle when, Callback cb)
{
    return scheduleSeq(when, _nextSeq++, std::move(cb));
}

EventHandle
EventQueue::scheduleSeq(Cycle when, std::uint64_t seq, Callback cb)
{
    sim_assert(when >= _now, "scheduling into the past");
    std::uint32_t slot = acquire(seq, std::move(cb));
    push(_heap, Key{when, seq, slot});
    return EventHandle{(std::uint64_t(_slots[slot].gen) << kSlotBits) |
                       slot};
}

std::uint32_t
EventQueue::acquire(std::uint64_t seq, Callback &&cb)
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
    s.live = true;
    ++_live;
    return slot;
}

void
EventQueue::release(std::uint32_t slot)
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
EventQueue::find(EventHandle h) const
{
    auto slot = static_cast<std::uint32_t>(h.id & kSlotMask);
    if (slot >= _slots.size())
        return kNoSlot;
    const Slot &s = _slots[slot];
    return s.live && s.gen == (h.id >> kSlotBits) ? slot : kNoSlot;
}

std::vector<EventQueue::Key> *
EventQueue::nextSet()
{
    while (!_heap.empty() && !_slots[_heap.front().slot].live)
        release(pop(_heap).slot);
    while (!_slipped.empty() && !_slots[_slipped.front().slot].live)
        release(pop(_slipped).slot);
    if (_slipped.empty())
        return _heap.empty() ? nullptr : &_heap;
    if (_heap.empty())
        return &_slipped;
    const Key &h = _heap.front();
    bool heapFirst = h.when < _slipWhen ||
                     (h.when == _slipWhen && h.seq < _slipped.front().seq);
    return heapFirst ? &_heap : &_slipped;
}

bool
EventQueue::peekNext(Cycle &when, std::uint64_t &seq)
{
    std::vector<Key> *set = nextSet();
    if (!set)
        return false;
    when = set == &_slipped ? _slipWhen : set->front().when;
    seq = set->front().seq;
    return true;
}

void
EventQueue::deferNext(Cycle new_when)
{
    sim_assert(_slipped.empty(), "deferNext on a queue with slipped set");
    sim_assert(!_heap.empty(), "deferNext on a drained queue");
    std::pop_heap(_heap.begin(), _heap.end(), Later{});
    Key &k = _heap.back();
    sim_assert(new_when >= k.when, "deferring into the past");
    k.when = new_when;
    std::push_heap(_heap.begin(), _heap.end(), Later{});
}

std::size_t
EventQueue::slipDue(Cycle when)
{
    std::size_t slipped = 0;
    if (_slipped.empty() || _slipWhen == when) {
        // The set already at `when` slips whole: one clock write.
        if (!_slipped.empty())
            slipped = _slippedLive;
        _slipWhen = when + 1;
    }
    sim_assert(_slipWhen == when + 1, "slipped set out of step");
    while (!_heap.empty() && _heap.front().when == when) {
        Key k = pop(_heap);
        Slot &s = _slots[k.slot];
        if (!s.live) {
            release(k.slot);
            continue;
        }
        k.when = 0;
        push(_slipped, k);
        s.slipped = true;
        ++_slippedLive;
        ++slipped;
    }
    return slipped;
}

bool
EventQueue::slipCountedAfter(EventHandle h, Cycle when,
                             std::uint64_t seq) const
{
    std::uint32_t slot = find(h);
    if (slot == kNoSlot || !_slots[slot].slipped)
        return false;
    Cycle counted = _slipWhen - 1;
    return counted > when || (counted == when && _slots[slot].seq > seq);
}

void
EventQueue::cancel(EventHandle h)
{
    if (!h.valid())
        return;
    std::uint32_t slot = find(h);
    if (slot == kNoSlot)
        return;
    Slot &s = _slots[slot];
    s.live = false;
    if (s.slipped)
        --_slippedLive;
    --_live;
}

bool
EventQueue::step()
{
    std::vector<Key> *set = nextSet();
    if (!set)
        return false;
    Cycle when = set == &_slipped ? _slipWhen : set->front().when;
    std::uint32_t slot = pop(*set).slot;
    sim_assert(when >= _now, "event heap out of order");
    _now = when;
    --_live;
    ++_executed;
    if (_slots[slot].slipped)
        --_slippedLive;
    // Move the callback out before running it: it may schedule, and a
    // growing slab relocates its slots.
    Callback cb = std::move(_slots[slot].cb);
    release(slot);
    cb();
    return true;
}

Cycle
EventQueue::run(Cycle maxCycles)
{
    Cycle when;
    std::uint64_t seq;
    while (peekNext(when, seq) && when <= maxCycles)
        step();
    return _now;
}

} // namespace retcon
