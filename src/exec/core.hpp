/**
 * @file
 * Simulated in-order core driving workload coroutines (Table 1: 32
 * in-order x86 cores, 1 IPC).
 *
 * Each core runs one root "thread program" coroutine. Transactions are
 * executed as separate attempt coroutines produced by a body factory;
 * an abort destroys the attempt (all simulated state lives in simulated
 * memory, rolled back by the machine's undo log) and the factory is
 * re-invoked — the paper's zero-cycle rollback + immediate restart.
 *
 * Every cycle of a core's lifetime is attributed to one of the Figure 4
 * buckets: busy (useful work), conflict (stalls from contention
 * management plus all work in aborted attempts), barrier, or other
 * (begin/commit overhead including the RETCON pre-commit repair).
 */

#ifndef RETCON_EXEC_CORE_HPP
#define RETCON_EXEC_CORE_HPP

#include <coroutine>
#include <functional>
#include <optional>
#include <vector>

#include "exec/task.hpp"
#include "exec/tx_value.hpp"
#include "htm/machine.hpp"
#include "retcon/interval.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/types.hpp"

namespace retcon::exec {

class Core;
class Tx;
class WorkerCtx;

/** Figure 4 / Figure 10 time buckets. */
struct TimeBreakdown {
    double busy = 0;
    double conflict = 0;
    double barrier = 0;
    double other = 0;

    double
    total() const
    {
        return busy + conflict + barrier + other;
    }

    void
    merge(const TimeBreakdown &o)
    {
        busy += o.busy;
        conflict += o.conflict;
        barrier += o.barrier;
        other += o.other;
    }
};

/** All-thread rendezvous. */
class Barrier
{
  public:
    explicit Barrier(unsigned parties) : _parties(parties) {}

    /** Called by Core; releases everyone when the last thread arrives. */
    void arrive(Core *core, std::coroutine_handle<> h);

  private:
    unsigned _parties;
    unsigned _arrived = 0;
    std::vector<std::pair<Core *, std::coroutine_handle<>>> _waiters;
};

/** Awaitable for a (possibly transactional) memory operation. */
struct MemOpAwait {
    Core *core;
    Addr addr;
    unsigned size;
    bool isStore;
    bool txnal;
    TxValue storeValue;
    htm::MemOpOutcome out;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    TxValue
    await_resume() const
    {
        return TxValue(out.value, out.sym);
    }
};

/** Awaitable for pure compute delay. */
struct WorkAwait {
    Core *core;
    Cycle cycles;
    bool txnal;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
};

/** Awaitable for barrier arrival. */
struct BarrierAwait {
    Core *core;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
};

/** Awaitable executing one whole transaction (with retry). */
struct TxnAwait {
    Core *core;
    std::function<Task<TxValue>(Tx &)> factory;
    TxValue out;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    TxValue await_resume() const { return out; }
};

/**
 * Transactional context handed to body coroutines.
 *
 * Memory ops are awaitable; ALU helpers are synchronous but charge one
 * cycle each (1 IPC), drained before the next awaited operation.
 */
class Tx
{
  public:
    explicit Tx(Core *core) : _core(core) {}

    // ---- Memory -----------------------------------------------------
    MemOpAwait load(Addr addr, unsigned size = 8);
    MemOpAwait store(Addr addr, TxValue value, unsigned size = 8);
    WorkAwait work(Cycle cycles);

    // ---- Symbolic-aware ALU (each charges 1 cycle) -------------------
    /** value + k, symbolically tracked. */
    TxValue add(TxValue v, std::int64_t k);
    /** value - k, symbolically tracked. */
    TxValue
    sub(TxValue v, std::int64_t k)
    {
        return add(v, -k);
    }
    /** a + b; at most one operand may stay symbolic (§4.1). */
    TxValue addv(TxValue a, TxValue b);
    /** Floating-point op: never tracked (models kmeans updates). */
    TxValue fop(TxValue a, TxValue b, std::function<double(double, double)> fn);

    // ---- Control flow ------------------------------------------------
    /** Compare against a constant, recording a symbolic constraint. */
    bool cmp(const TxValue &v, rtc::CmpOp op, std::int64_t k);
    /** Compare two values (pins the right operand when symbolic). */
    bool cmpv(const TxValue &a, rtc::CmpOp op, const TxValue &b);

    /** Obtain the concrete value for addressing / untracked use;
     *  records an equality constraint on symbolic inputs. */
    Word reify(const TxValue &v);

    CoreId coreId() const;

  private:
    friend class Core;
    Core *_core;
    Cycle _pending = 0;

    void charge(Cycle n = 1) { _pending += n; }
};

/** Non-transactional context for the root thread program. */
class WorkerCtx
{
  public:
    WorkerCtx(Core *core, CoreId tid, unsigned nthreads,
              std::uint64_t seed)
        : _core(core), _tid(tid), _nthreads(nthreads),
          _rng(Xoshiro::forThread(seed, tid))
    {}

    MemOpAwait load(Addr addr, unsigned size = 8);
    MemOpAwait store(Addr addr, Word value, unsigned size = 8);
    WorkAwait work(Cycle cycles);
    BarrierAwait barrier();
    TxnAwait txn(std::function<Task<TxValue>(Tx &)> factory);

    /**
     * Drop a workload-level marker into the provenance stream (phase
     * boundaries, operation ids). No-op when tracing is disabled;
     * costs no simulated time either way.
     */
    void annotate(Word mark_id);

    /**
     * The current simulated cycle (the global clock — identical on
     * every shard and host-thread configuration by the determinism
     * contract). Lets open-loop workloads pace themselves against
     * modeled arrival processes (src/scenario/).
     */
    Cycle now() const;

    CoreId tid() const { return _tid; }
    unsigned nthreads() const { return _nthreads; }
    Xoshiro &rng() { return _rng; }

  private:
    Core *_core;
    CoreId _tid;
    unsigned _nthreads;
    Xoshiro _rng;
};

/** Per-core execution statistics. */
struct CoreStats {
    std::uint64_t txns = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    Cycle finishCycle = 0;
};

/** The simulated core. */
class Core
{
  public:
    using BodyFactory = std::function<Task<TxValue>(Tx &)>;
    using ProgramFactory = std::function<Task<void>(WorkerCtx &)>;

    /**
     * Re-dispatch deferral hook (contention-aware scheduling): called
     * with this core's id after an abort, returns extra cycles to
     * wait before restarting the transaction — nonzero when the
     * abort's blamed block is currently hot (exec::Cluster wires this
     * to its per-shard hot-block tables; see exec/scheduler.hpp).
     */
    using DeferFn = std::function<Cycle(CoreId)>;

    /** Core @p id wakes through slot @p id of @p eq. */
    Core(CoreId id, ShardedEventQueue &eq, htm::TMMachine &tm,
         Barrier &barrier, unsigned nthreads, std::uint64_t seed);

    /** Install and start the thread program at the current cycle. */
    void start(ProgramFactory factory);

    /** Install the re-dispatch deferral hook (null disables). */
    void setDeferHook(DeferFn fn) { _deferHook = std::move(fn); }

    bool finished() const { return _finished; }
    CoreId id() const { return _id; }
    /** Current global simulated cycle (see WorkerCtx::now). */
    Cycle now() const { return _eq.now(); }
    const TimeBreakdown &breakdown() const { return _breakdown; }
    const CoreStats &stats() const { return _stats; }
    htm::TMMachine &machine() { return _tm; }

    /** Remote-abort notification from the machine. */
    void onRemoteAbort(htm::AbortCause cause);

    /** Run the continuation whose wake just fired (called by Cluster). */
    void fire();

    /**
     * Apply the retries the kernel fired while this core's wake was
     * parked on a conflict: each one counted a NACK and a memory op
     * toward the zombie bound. fire() calls it first; Cluster::run
     * calls it once a run ends.
     */
    void flushParked();

    // ---- Called by awaitables ---------------------------------------
    void issueMemOp(MemOpAwait *op, std::coroutine_handle<> h);
    void issueWork(Cycle cycles, bool txnal, std::coroutine_handle<> h);
    void enterBarrier(std::coroutine_handle<> h);
    void startTxn(TxnAwait *awaitable, std::coroutine_handle<> h);

    /** Resume a barrier-released coroutine (called by Barrier). */
    void resumeFromBarrier(std::coroutine_handle<> h, Cycle delay);

  private:
    /** Internal accounting categories, resolved at commit/abort. */
    enum class Cat { Busy, Work, Stall, Commit, Barrier };

    /** Continuation of the pending wake; fire() maps each to a call. */
    enum class Next {
        Start, RetryBegin, Launch, MemOp, RetryMemOp,
        Cleanup, Resume, Deliver, Commit, RetryCommit,
    };

    CoreId _id;
    ShardedEventQueue &_eq; ///< Owns this core's wake slot (_id).
    htm::TMMachine &_tm;
    Barrier &_barrier;
    Tx _tx;
    std::optional<WorkerCtx> _ctx;

    ProgramFactory _programFactory;
    DeferFn _deferHook;
    std::optional<Task<void>> _program;
    std::optional<Task<TxValue>> _body;
    TxnAwait *_txnAwait = nullptr;
    std::coroutine_handle<> _programCont;
    /// Suspended at a memory op, a work delay or a barrier.
    std::coroutine_handle<> _resumePoint;
    MemOpAwait *_pendingOp = nullptr;

    bool _inTxn = false;
    bool _finished = false;
    Cat _pendingCat = Cat::Busy; ///< Category of the pending wake.
    Next _next = Next::Start;    ///< Continuation of the pending wake.
    std::uint64_t _attemptOps = 0;

    // Accounting.
    Cycle _lastCycle = 0;
    TimeBreakdown _breakdown;
    double _attemptWork = 0;
    double _attemptStall = 0;
    double _attemptCommit = 0;

    CoreStats _stats;

    void schedule(Cycle delay, Cat cat, Next next);
    void accountTo(Cat cat);
    void resumeCoroutine(std::coroutine_handle<> h);
    void postResume();

    void beginTxnAttempt(bool retry);
    void launchBody();
    void tryMemOp(bool is_retry);
    void commitLoop(bool is_retry);
    void deliverResult();
    void cleanupAttempt();
    void finishProgram();
};

} // namespace retcon::exec

#endif // RETCON_EXEC_CORE_HPP
