#include "exec/core.hpp"

#include "sim/logging.hpp"

namespace retcon::exec {

namespace {

/**
 * Zombie containment: value-based modes execute on snapshot values,
 * so a doomed transaction can chase stale pointers through an
 * inconsistent structure indefinitely. Early validation (eq-pinned
 * words are revalidated on use) catches almost all of these; this
 * per-attempt memory-operation bound is the backstop.
 */
constexpr std::uint64_t kZombieOpLimit = 100000;

} // namespace

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

void
Barrier::arrive(Core *core, std::coroutine_handle<> h)
{
    ++_arrived;
    _waiters.emplace_back(core, h);
    if (_arrived < _parties)
        return;
    // Last arriver: release everyone one cycle from now.
    auto waiters = std::move(_waiters);
    _waiters.clear();
    _arrived = 0;
    for (auto &[c, wh] : waiters)
        c->resumeFromBarrier(wh, 1);
}

// ---------------------------------------------------------------------
// Awaitables
// ---------------------------------------------------------------------

void
MemOpAwait::await_suspend(std::coroutine_handle<> h)
{
    core->issueMemOp(this, h);
}

void
WorkAwait::await_suspend(std::coroutine_handle<> h)
{
    core->issueWork(cycles, txnal, h);
}

void
BarrierAwait::await_suspend(std::coroutine_handle<> h)
{
    core->enterBarrier(h);
}

void
TxnAwait::await_suspend(std::coroutine_handle<> h)
{
    core->startTxn(this, h);
}

// ---------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------

MemOpAwait
Tx::load(Addr addr, unsigned size)
{
    charge();
    return MemOpAwait{_core, addr, size, false, true, TxValue{}, {}};
}

MemOpAwait
Tx::store(Addr addr, TxValue value, unsigned size)
{
    charge();
    return MemOpAwait{_core, addr, size, true, true, value, {}};
}

WorkAwait
Tx::work(Cycle cycles)
{
    return WorkAwait{_core, cycles, true};
}

TxValue
Tx::add(TxValue v, std::int64_t k)
{
    charge();
    Word c = v.concrete() + static_cast<Word>(k);
    if (v.symbolic()) {
        rtc::SymTag t = *v.sym();
        t.delta += k;
        return TxValue(c, t);
    }
    return TxValue(c);
}

TxValue
Tx::addv(TxValue a, TxValue b)
{
    charge();
    Word c = a.concrete() + b.concrete();
    if (a.symbolic() && b.symbolic()) {
        // At most one symbolic input per operation (§4.1): pin b.
        _core->machine().pinEquality(coreId(), b.sym()->root);
        rtc::SymTag t = *a.sym();
        t.delta += static_cast<std::int64_t>(b.concrete());
        return TxValue(c, t);
    }
    if (a.symbolic()) {
        rtc::SymTag t = *a.sym();
        t.delta += static_cast<std::int64_t>(b.concrete());
        return TxValue(c, t);
    }
    if (b.symbolic()) {
        rtc::SymTag t = *b.sym();
        t.delta += static_cast<std::int64_t>(a.concrete());
        return TxValue(c, t);
    }
    return TxValue(c);
}

TxValue
Tx::fop(TxValue a, TxValue b, std::function<double(double, double)> fn)
{
    charge();
    if (a.symbolic())
        _core->machine().pinEquality(coreId(), a.sym()->root);
    if (b.symbolic())
        _core->machine().pinEquality(coreId(), b.sym()->root);
    double x, y;
    Word wa = a.concrete(), wb = b.concrete();
    static_assert(sizeof(double) == sizeof(Word));
    __builtin_memcpy(&x, &wa, 8);
    __builtin_memcpy(&y, &wb, 8);
    double r = fn(x, y);
    Word out;
    __builtin_memcpy(&out, &r, 8);
    return TxValue(out);
}

bool
Tx::cmp(const TxValue &v, rtc::CmpOp op, std::int64_t k)
{
    charge();
    bool taken = rtc::evalCmp(v.sconcrete(), op, k);
    if (v.symbolic())
        _core->machine().recordBranchConstraint(coreId(), *v.sym(), op, k,
                                                taken);
    return taken;
}

bool
Tx::cmpv(const TxValue &a, rtc::CmpOp op, const TxValue &b)
{
    if (b.symbolic())
        _core->machine().pinEquality(coreId(), b.sym()->root);
    return cmp(a, op, b.sconcrete());
}

Word
Tx::reify(const TxValue &v)
{
    if (v.symbolic())
        _core->machine().pinEquality(coreId(), v.sym()->root);
    return v.concrete();
}

CoreId
Tx::coreId() const
{
    return _core->id();
}

// ---------------------------------------------------------------------
// WorkerCtx
// ---------------------------------------------------------------------

MemOpAwait
WorkerCtx::load(Addr addr, unsigned size)
{
    return MemOpAwait{_core, addr, size, false, false, TxValue{}, {}};
}

MemOpAwait
WorkerCtx::store(Addr addr, Word value, unsigned size)
{
    return MemOpAwait{_core, addr, size, true, false, TxValue(value), {}};
}

WorkAwait
WorkerCtx::work(Cycle cycles)
{
    return WorkAwait{_core, cycles, false};
}

BarrierAwait
WorkerCtx::barrier()
{
    return BarrierAwait{_core};
}

TxnAwait
WorkerCtx::txn(std::function<Task<TxValue>(Tx &)> factory)
{
    return TxnAwait{_core, std::move(factory), TxValue{}};
}

void
WorkerCtx::annotate(Word mark_id)
{
    _core->machine().userMark(_core->id(), mark_id);
}

Cycle
WorkerCtx::now() const
{
    return _core->now();
}

// ---------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------

Core::Core(CoreId id, ShardedEventQueue &eq, htm::TMMachine &tm,
           Barrier &barrier, unsigned nthreads, std::uint64_t seed)
    : _id(id), _eq(eq), _tm(tm), _barrier(barrier), _tx(this)
{
    _ctx.emplace(this, id, nthreads, seed);
}

void
Core::accountTo(Cat cat)
{
    double delta = static_cast<double>(_eq.now() - _lastCycle);
    _lastCycle = _eq.now();
    switch (cat) {
      case Cat::Busy:
        _breakdown.busy += delta;
        break;
      case Cat::Work:
        if (_inTxn)
            _attemptWork += delta;
        else
            _breakdown.busy += delta;
        break;
      case Cat::Stall:
        if (_inTxn)
            _attemptStall += delta;
        else
            _breakdown.conflict += delta;
        break;
      case Cat::Commit:
        if (_inTxn)
            _attemptCommit += delta;
        else
            _breakdown.other += delta;
        break;
      case Cat::Barrier:
        _breakdown.barrier += delta;
        break;
    }
}

void
Core::schedule(Cycle delay, Cat cat, Next next)
{
    // At most one wake is pending (the kernel enforces it), so its
    // category and continuation live here.
    _pendingCat = cat;
    _next = next;
    _eq.wake(_id, delay);
}

void
Core::flushParked()
{
    std::uint64_t k = _eq.takeParked(_id);
    _attemptOps += k;
    _tm.stats().nacks += k;
}

void
Core::fire()
{
    flushParked();
    accountTo(_pendingCat);
    switch (_next) {
      case Next::Start:
        _program.emplace(_programFactory(*_ctx));
        _program->start();
        postResume();
        return;
      case Next::RetryBegin:
        beginTxnAttempt(true);
        return;
      case Next::Launch:
        launchBody();
        return;
      case Next::MemOp:
        tryMemOp(false);
        return;
      case Next::RetryMemOp:
        tryMemOp(true);
        return;
      case Next::Cleanup:
        cleanupAttempt();
        return;
      case Next::Resume:
        resumeCoroutine(_resumePoint);
        return;
      case Next::Deliver:
        deliverResult();
        return;
      case Next::Commit:
        commitLoop(false);
        return;
      case Next::RetryCommit:
        commitLoop(true);
        return;
    }
}

void
Core::start(ProgramFactory factory)
{
    // The factory must outlive the program coroutine: a coroutine
    // produced by a capturing lambda references the lambda object's
    // captures, so the callable is kept for the core's lifetime.
    _programFactory = std::move(factory);
    _lastCycle = _eq.now();
    schedule(0, Cat::Busy, Next::Start);
}

void
Core::resumeCoroutine(std::coroutine_handle<> h)
{
    h.resume();
    postResume();
}

void
Core::postResume()
{
    if (_body && _body->done()) {
        // The transaction body finished: run the commit process.
        TxValue ret;
        try {
            ret = _body->result();
        } catch (const std::exception &e) {
            panic("transaction body threw: %s", e.what());
        }
        _txnAwait->out = ret;
        _tm.setReturnSym(_id, ret.sym());
        commitLoop(false);
        return;
    }
    if (!_inTxn && _program && _program->done()) {
        finishProgram();
    }
}

void
Core::finishProgram()
{
    try {
        _program->result();
    } catch (const std::exception &e) {
        panic("thread program threw: %s", e.what());
    }
    _finished = true;
    _stats.finishCycle = _eq.now();
}

// ---- Transactions ----------------------------------------------------

void
Core::startTxn(TxnAwait *awaitable, std::coroutine_handle<> h)
{
    sim_assert(!_inTxn, "nested transactions are not supported");
    _txnAwait = awaitable;
    _programCont = h;
    _inTxn = true;
    _attemptWork = _attemptStall = _attemptCommit = 0;
    ++_stats.txns;
    beginTxnAttempt(false);
}

void
Core::beginTxnAttempt(bool retry)
{
    htm::MemOpOutcome out = _tm.txBegin(_id, retry);
    if (out.status == htm::OpStatus::Nack) {
        schedule(out.latency, Cat::Stall, Next::RetryBegin);
        return;
    }
    schedule(out.latency, Cat::Commit, Next::Launch);
}

void
Core::launchBody()
{
    _tx._pending = 0;
    _attemptOps = 0;
    _body.emplace(_txnAwait->factory(_tx));
    _body->start();
    postResume();
}

void
Core::issueMemOp(MemOpAwait *op, std::coroutine_handle<> h)
{
    _pendingOp = op;
    _resumePoint = h;
    if (op->txnal) {
        sim_assert(_inTxn, "transactional op outside a transaction");
        Cycle pending = _tx._pending;
        if (pending > 0) {
            _tx._pending = 0;
            schedule(pending, Cat::Work, Next::MemOp);
            return;
        }
    }
    tryMemOp(false);
}

void
Core::tryMemOp(bool is_retry)
{
    MemOpAwait *op = _pendingOp;
    htm::MemOpOutcome out;
    if (op->txnal && ++_attemptOps > kZombieOpLimit) {
        // Doomed snapshot execution (zombie) backstop: discard the
        // attempt; the retry re-reads fresh values.
        _tm.abortSelf(_id, htm::AbortCause::Zombie);
        schedule(0, Cat::Stall, Next::Cleanup);
        return;
    }
    if (op->txnal) {
        if (op->isStore) {
            out = _tm.txStore(_id, op->addr, op->storeValue.concrete(),
                              op->storeValue.sym(), op->size, is_retry);
        } else {
            out = _tm.txLoad(_id, op->addr, op->size, is_retry);
        }
    } else {
        if (op->isStore)
            out = _tm.plainStore(_id, op->addr, op->storeValue.concrete(),
                                 op->size);
        else
            out = _tm.plainLoad(_id, op->addr, op->size);
    }

    switch (out.status) {
      case htm::OpStatus::Ok:
        op->out = out;
        schedule(out.latency, op->txnal ? Cat::Work : Cat::Busy,
                 Next::Resume);
        return;
      case htm::OpStatus::Nack:
        schedule(out.latency, Cat::Stall, Next::RetryMemOp);
        // A pure conflict retry would only NACK again until a holder
        // leaves the block, so the kernel fires it without us (see
        // TMMachine::awaitRelease); the budget stops it at the retry
        // that trips the zombie bound.
        if (out.wait == htm::WaitOn::Conflict && op->txnal &&
            _attemptOps < kZombieOpLimit &&
            _tm.awaitRelease(_id, op->isStore && op->storeValue.symbolic()))
            _eq.park(_id, out.latency, kZombieOpLimit - _attemptOps);
        return;
      case htm::OpStatus::AbortSelf:
        // The machine already rolled us back.
        schedule(0, Cat::Stall, Next::Cleanup);
        return;
    }
}

void
Core::issueWork(Cycle cycles, bool txnal, std::coroutine_handle<> h)
{
    _resumePoint = h;
    Cycle total = cycles;
    if (txnal) {
        total += _tx._pending;
        _tx._pending = 0;
    }
    schedule(total, txnal ? Cat::Work : Cat::Busy, Next::Resume);
}

void
Core::enterBarrier(std::coroutine_handle<> h)
{
    sim_assert(!_inTxn, "barrier inside a transaction");
    _barrier.arrive(this, h);
}

void
Core::resumeFromBarrier(std::coroutine_handle<> h, Cycle delay)
{
    // No operation is in flight while the core waits at a barrier.
    _resumePoint = h;
    schedule(delay, Cat::Barrier, Next::Resume);
}

void
Core::commitLoop(bool is_retry)
{
    htm::CommitStepOutcome out = _tm.commitStep(_id, is_retry);
    switch (out.status) {
      case htm::OpStatus::Ok:
        schedule(out.latency, Cat::Commit,
                 out.done ? Next::Deliver : Next::Commit);
        return;
      case htm::OpStatus::Nack:
        schedule(out.latency, Cat::Stall, Next::RetryCommit);
        return;
      case htm::OpStatus::AbortSelf:
        schedule(0, Cat::Stall, Next::Cleanup);
        return;
    }
}

void
Core::deliverResult()
{
    // Repair the returned register value with the final input values
    // (Figure 7, symbolic register file update).
    if (_txnAwait->out.symbolic())
        _txnAwait->out = TxValue(_tm.returnValue(_id));

    // Resolve attempt accounting: committed work was useful.
    _breakdown.busy += _attemptWork;
    _breakdown.conflict += _attemptStall;
    _breakdown.other += _attemptCommit;
    _attemptWork = _attemptStall = _attemptCommit = 0;

    ++_stats.commits;
    _body.reset();
    _inTxn = false;
    resumeCoroutine(_programCont);
}

void
Core::cleanupAttempt()
{
    sim_assert(_inTxn, "cleanup without a transaction");
    // All cycles spent in the attempt were wasted.
    _breakdown.conflict += _attemptWork + _attemptStall + _attemptCommit;
    _attemptWork = _attemptStall = _attemptCommit = 0;
    ++_stats.aborts;
    _body.reset();
    _tx._pending = 0;
    // Restart delay: the machine's abort-backoff policy plus the
    // contention scheduler's deferral for hot blamed blocks. Both are
    // 0 by default (immediate restart — the baseline behaviour); any
    // wait is conflict time, like every other contention stall.
    Cycle delay = _tm.restartBackoff(_id);
    if (_deferHook)
        delay += _deferHook(_id);
    if (delay > 0) {
        schedule(delay, Cat::Stall, Next::RetryBegin);
        return;
    }
    beginTxnAttempt(true);
}

void
Core::onRemoteAbort([[maybe_unused]] htm::AbortCause cause)
{
    sim_assert(_inTxn, "remote abort of core %u without a transaction",
               _id);
    // Cancel whatever this core was waiting for; rollback was already
    // performed by the machine (zero-cycle rollback). Retries fired
    // while parked stay counted in the slot until the cleanup fires.
    _eq.cancel(_id);
    schedule(0, Cat::Stall, Next::Cleanup);
}

} // namespace retcon::exec
