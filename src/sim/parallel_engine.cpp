#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <chrono>

#include "sim/logging.hpp"

namespace retcon {

namespace {

/// Mailbox depth per worker pair. The producer (token holder) spins
/// when full while the consumer keeps draining, so capacity only
/// bounds burst size, not correctness.
constexpr std::size_t kRingCapacity = 1024;

} // namespace

ParallelEngine::ParallelEngine(ShardedEventQueue &q, unsigned workers)
    : _q(q), _nworkers(std::max(1u, std::min(workers, q.numShards())))
{
    unsigned n = q.numShards();
    _workers.resize(_nworkers);
    _ownerOf.resize(n);
    unsigned per = n / _nworkers;
    unsigned rem = n % _nworkers;
    unsigned next = 0;
    for (unsigned w = 0; w < _nworkers; ++w) {
        _workers[w].first = next;
        _workers[w].count = per + (w < rem ? 1 : 0);
        for (unsigned s = 0; s < _workers[w].count; ++s)
            _ownerOf[next + s] = w;
        next += _workers[w].count;
    }
    _rings.resize(std::size_t(_nworkers) * _nworkers);
    for (unsigned p = 0; p < _nworkers; ++p)
        for (unsigned c = 0; c < _nworkers; ++c)
            if (p != c)
                _rings[std::size_t(p) * _nworkers + c] =
                    std::make_unique<SpscRing>(kRingCapacity);
    _slots = std::vector<HorizonSlot>(n);
    _sentMail.assign(_nworkers, 0);
    _appliedMail =
        std::make_unique<std::atomic<std::uint64_t>[]>(_nworkers);
    for (unsigned w = 0; w < _nworkers; ++w)
        _appliedMail[w].store(0, std::memory_order_relaxed);
    _mailedMin.assign(n, {kNoEvent, 0});
}

ParallelEngine::~ParallelEngine() = default;

bool
ParallelEngine::lexLess(Cycle aw, std::uint64_t as, Cycle bw,
                        std::uint64_t bs)
{
    return aw < bw || (aw == bw && as < bs);
}

void
ParallelEngine::writeSlot(unsigned shard, Cycle when, std::uint64_t seq)
{
    HorizonSlot &s = _slots[shard];
    while (s.lock.test_and_set(std::memory_order_acquire)) {
    }
    s.when = when;
    s.seq = seq;
    s.lock.clear(std::memory_order_release);
}

std::pair<Cycle, std::uint64_t>
ParallelEngine::readSlot(unsigned shard)
{
    HorizonSlot &s = _slots[shard];
    while (s.lock.test_and_set(std::memory_order_acquire)) {
    }
    std::pair<Cycle, std::uint64_t> out{s.when, s.seq};
    s.lock.clear(std::memory_order_release);
    return out;
}

void
ParallelEngine::publishShards(unsigned w)
{
    const Worker &me = _workers[w];
    for (unsigned i = 0; i < me.count; ++i) {
        unsigned s = me.first + i;
        Cycle when;
        std::uint64_t seq;
        if (_q._shards[s]->peekNext(when, seq))
            writeSlot(s, when, seq);
        else
            writeSlot(s, kNoEvent, 0);
    }
}

void
ParallelEngine::sendMail(unsigned producer, unsigned consumer, Mail &&m)
{
    SpscRing &ring =
        *_rings[std::size_t(producer) * _nworkers + consumer];
    while (!ring.tryPush(std::move(m))) {
        // Full: the consumer is draining concurrently; wait for space.
        std::this_thread::yield();
    }
    ++_stats.mailed;
}

EventHandle
ParallelEngine::routeSchedule(unsigned shard, Cycle when,
                              EventQueue::Callback cb)
{
    unsigned w = _token.load(std::memory_order_relaxed);
    unsigned owner = _ownerOf[shard];
    std::uint64_t seq = _q._nextSeq++;
    if (owner == w) {
        EventHandle h =
            _q._shards[shard]->scheduleSeq(when, seq, std::move(cb));
        sim_assert(h.id < kMailIdBase, "per-shard event ids exhausted");
        ++_q._stats[shard].scheduled;
        h.id |= static_cast<std::uint64_t>(shard)
                << ShardedEventQueue::kShardShift;
        return h;
    }
    std::uint64_t id = _nextMailId++;
    sim_assert(id <= ShardedEventQueue::kIdMask,
               "mailed event ids exhausted");
    Mail m;
    m.kind = Mail::Kind::Schedule;
    m.shard = shard;
    m.when = when;
    m.seq = seq;
    m.id = id;
    m.mailSeq = _sentMail[owner]++;
    m.cb = std::move(cb);
    auto &mm = _mailedMin[shard];
    if (lexLess(when, seq, mm.first, mm.second))
        mm = {when, seq};
    sendMail(w, owner, std::move(m));
    return EventHandle{id | (static_cast<std::uint64_t>(shard)
                             << ShardedEventQueue::kShardShift)};
}

void
ParallelEngine::routeCancel(EventHandle h)
{
    unsigned w = _token.load(std::memory_order_relaxed);
    auto shard =
        static_cast<unsigned>(h.id >> ShardedEventQueue::kShardShift);
    std::uint64_t id = h.id & ShardedEventQueue::kIdMask;
    unsigned owner = _ownerOf[shard];
    if (owner == w) {
        // All mail to the holder was applied before its dispatches
        // began, so the target is in the heap: a direct cancel.
        _q.cancelAt(shard, id, _q._atWhen, _q._atSeq);
        return;
    }
    // Per-consumer mailSeq ordering guarantees the owner applies this
    // after the schedule that created the target — a cancel can never
    // outrun its event. It carries the dispatch position it was issued
    // at, which decides whether a batched slip count is taken back.
    Mail m;
    m.kind = Mail::Kind::Cancel;
    m.shard = shard;
    m.when = _q._atWhen;
    m.seq = _q._atSeq;
    m.id = id;
    m.mailSeq = _sentMail[owner]++;
    sendMail(w, owner, std::move(m));
}

bool
ParallelEngine::drainMail(unsigned w)
{
    Worker &me = _workers[w];
    Mail m;
    for (unsigned p = 0; p < _nworkers; ++p) {
        if (p == w)
            continue;
        SpscRing &ring = *_rings[std::size_t(p) * _nworkers + w];
        while (ring.tryPop(m))
            me.stash.emplace(m.mailSeq, std::move(m));
    }
    bool applied = false;
    while (!me.stash.empty() &&
           me.stash.begin()->first == me.nextApply) {
        Mail mm = std::move(me.stash.begin()->second);
        me.stash.erase(me.stash.begin());
        EventQueue &shard = *_q._shards[mm.shard];
        if (mm.kind == Mail::Kind::Schedule) {
            shard.scheduleSeqId(mm.when, mm.seq, mm.id,
                                std::move(mm.cb));
            ++_q._stats[mm.shard].scheduled;
        } else {
            _q.cancelAt(mm.shard, mm.id, mm.when, mm.seq);
        }
        ++me.nextApply;
        applied = true;
    }
    if (applied) {
        // Horizons first, then the settle counter: when the holder
        // observes applied == sent, every published slot is exact.
        publishShards(w);
        _appliedMail[w].store(me.nextApply, std::memory_order_release);
    }
    return applied;
}

bool
ParallelEngine::holderStep(unsigned w)
{
    Worker &me = _workers[w];
    // All mail to the new holder was sent before the handoff that
    // made it holder (only the holder sends mail, and it never mails
    // itself), so the post-acquire drain in workerLoop applied
    // everything.
    sim_assert(me.stash.empty() && me.nextApply == _sentMail[w],
               "holder has unapplied mail");
    for (unsigned i = 0; i < me.count; ++i)
        _mailedMin[me.first + i] = {kNoEvent, 0};

    // Exact minimum over the holder's own shards.
    bool haveOwn = false;
    unsigned home = 0;
    Cycle when = 0;
    std::uint64_t seq = 0;
    for (unsigned i = 0; i < me.count; ++i) {
        unsigned s = me.first + i;
        Cycle sw;
        std::uint64_t sq;
        if (!_q._shards[s]->peekNext(sw, sq))
            continue;
        if (!haveOwn || lexLess(sw, sq, when, seq)) {
            haveOwn = true;
            home = s;
            when = sw;
            seq = sq;
        }
    }

    // Conservative lower bounds for every foreign shard.
    bool allSettled = true;
    bool haveForeign = false;
    unsigned bestOwner = 0;
    Cycle fWhen = 0;
    std::uint64_t fSeq = 0;
    for (unsigned c = 0; c < _nworkers; ++c) {
        if (c == w)
            continue;
        bool settled =
            _appliedMail[c].load(std::memory_order_acquire) ==
            _sentMail[c];
        if (!settled)
            allSettled = false;
        const Worker &other = _workers[c];
        for (unsigned i = 0; i < other.count; ++i) {
            unsigned s = other.first + i;
            auto [hw, hq] = readSlot(s);
            if (settled) {
                // Mailbox drained: the published horizon is exact and
                // any stale in-flight bound is obsolete.
                _mailedMin[s] = {kNoEvent, 0};
            } else {
                auto &mm = _mailedMin[s];
                if (lexLess(mm.first, mm.second, hw, hq)) {
                    hw = mm.first;
                    hq = mm.second;
                }
            }
            if (hw == kNoEvent)
                continue;
            if (!haveForeign || lexLess(hw, hq, fWhen, fSeq)) {
                haveForeign = true;
                bestOwner = c;
                fWhen = hw;
                fSeq = hq;
            }
        }
    }

    if (!haveOwn && !haveForeign) {
        if (allSettled) {
            // Globally drained: nothing queued, nothing in flight.
            _stop.store(true, std::memory_order_release);
            return true;
        }
        ++_stats.stalls;
        return false;
    }

    if (haveForeign && (!haveOwn || lexLess(fWhen, fSeq, when, seq))) {
        // A foreign shard may hold the global minimum: migrate the
        // token to its owner, which drains its mail and re-decides
        // with exact knowledge of its own shards.
        publishShards(w);
        ++_stats.handoffs;
        _token.store(bestOwner, std::memory_order_release);
        return true;
    }

    // The holder's own event is the global minimum (sequence numbers
    // are unique, so foreign bounds can never tie it).
    _q._atWhen = when;
    _q._atSeq = seq;
    if (when > _maxCycles) {
        // Same contract as the sequential engine: leave it queued. The
        // stop waits for in-flight mail so post-run queue state (live
        // counts, pending cancels) matches the sequential run.
        if (allSettled) {
            _stop.store(true, std::memory_order_release);
            return true;
        }
        ++_stats.stalls;
        return false;
    }

    if (when != _q._dispatchCycle) {
        _q._dispatchCycle = when;
        std::fill(_q._dispatched.begin(), _q._dispatched.end(), 0u);
    }
    unsigned bw = _q._cfg.dispatchBandwidth;
    if (bw != 0 && _q._dispatched[home] >= bw && !allSettled) {
        // The steal busy-probe needs exact foreign horizons; wait for
        // the mailboxes to settle so the probe cannot diverge from the
        // sequential decision.
        ++_stats.stalls;
        return false;
    }
    _q.dispatchAt(home, when,
                  [this, w](unsigned t, Cycle &tw, std::uint64_t &tq) {
                      if (_ownerOf[t] == w)
                          return _q._shards[t]->peekNext(tw, tq);
                      auto [hw, hq] = readSlot(t);
                      tw = hw;
                      tq = hq;
                      return hw != kNoEvent;
                  });
    return true;
}

void
ParallelEngine::workerLoop(unsigned w)
{
    Worker &me = _workers[w];
    for (;;) {
        bool activity = drainMail(w);
        if (_stop.load(std::memory_order_acquire))
            break;
        if (_token.load(std::memory_order_acquire) == w) {
            // Mail can land between the drain above and the token
            // check: the previous holder sends its last batch and
            // THEN releases the token. The acquire load above
            // synchronizes with that release, so one more drain is
            // guaranteed to see every send counted in _sentMail[w] —
            // re-establishing the holder invariant before stepping.
            drainMail(w);
            if (holderStep(w))
                me.idleSpins = 0;
            else if (++me.idleSpins > 64)
                std::this_thread::yield();
            continue;
        }
        if (activity) {
            me.idleSpins = 0;
            continue;
        }
        if (++me.idleSpins < 64) {
            // Tight spin: a handoff or mail burst is likely imminent.
        } else if (me.idleSpins < 65536) {
            std::this_thread::yield();
        } else {
            // Long idle (another worker owns a serial phase): park
            // briefly so oversubscribed hosts — e.g. parallel sweep
            // cells each running an engine — stay cheap.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
}

Cycle
ParallelEngine::run(Cycle maxCycles)
{
    if (_nworkers <= 1) {
        // Degenerate case: no threads, no protocol.
        while (_q.step(maxCycles)) {
        }
        return _q._now;
    }
    auto t0 = std::chrono::steady_clock::now();
    _maxCycles = maxCycles;
    _stop.store(false, std::memory_order_relaxed);
    _token.store(0, std::memory_order_relaxed);
    for (unsigned w = 0; w < _nworkers; ++w) {
        _workers[w].stash.clear();
        _workers[w].nextApply = 0;
        _workers[w].idleSpins = 0;
        _sentMail[w] = 0;
        _appliedMail[w].store(0, std::memory_order_relaxed);
    }
    // Exact initial horizons for every shard (heaps were filled on
    // this thread; spawning the workers publishes them).
    for (unsigned s = 0; s < _q.numShards(); ++s) {
        Cycle when;
        std::uint64_t seq;
        if (_q._shards[s]->peekNext(when, seq))
            writeSlot(s, when, seq);
        else
            writeSlot(s, kNoEvent, 0);
    }
    _active.store(true, std::memory_order_release);
    for (unsigned w = 0; w < _nworkers; ++w)
        _workers[w].thread = std::thread([this, w] { workerLoop(w); });
    for (unsigned w = 0; w < _nworkers; ++w)
        _workers[w].thread.join();
    _active.store(false, std::memory_order_release);
    _stats.workers = _nworkers;
    _stats.wallMs +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return _q._now;
}

} // namespace retcon
