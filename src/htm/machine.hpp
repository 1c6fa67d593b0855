/**
 * @file
 * TMMachine: the transactional memory logic for every mode.
 *
 * The execution layer (src/exec) drives one TMMachine shared by all
 * cores. Each operation is synchronous: the machine applies all
 * functional and coherence state changes and returns the latency the
 * calling core must wait before continuing, or NACK/abort outcomes.
 * Remote aborts decided during conflict resolution are performed
 * immediately (rollback restores memory before the winner proceeds —
 * the paper's zero-cycle rollback baseline) and reported through the
 * remote-abort callback so the execution layer can restart the victim.
 *
 * Mode map:
 *  - Serial: global lock, no speculation (sequential baseline / GIL).
 *  - Eager:  baseline HTM of §2 (eager detection + eager versioning,
 *            timestamp oldest-wins CM, permissions-only cache + OneTM).
 *  - Lazy:   TCC-style committer-wins (Figure 2e).
 *  - LazyVB: the paper's lazy-vb — predictor-selected blocks validate
 *            by value at commit, no repair (§5.1).
 *  - Retcon: full symbolic tracking + pre-commit repair (§4, Figure 7).
 *  - DATM:   dependence-aware forwarding (Figure 2b), microbench-grade.
 */

#ifndef RETCON_HTM_MACHINE_HPP
#define RETCON_HTM_MACHINE_HPP

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "htm/tx_state.hpp"
#include "htm/types.hpp"
#include "mem/memory_system.hpp"
#include "retcon/predictor.hpp"
#include "sim/types.hpp"
#include "sim/stats.hpp"
#include "trace/sink.hpp"

namespace retcon::htm {

/** Aggregate machine statistics, including Table 3 columns. */
struct MachineStats {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t abortsByCause[10] = {};
    std::uint64_t conflicts = 0;
    std::uint64_t nacks = 0;
    std::uint64_t overflows = 0;
    std::uint64_t fwdReads = 0; ///< DATM loads of forwarded values
                                ///< (an in-flight producer's store).
    std::uint64_t abortsLazyValueMismatch = 0; ///< Equality-bit misses.

    /// Commit-token arbitration (0 unless modeled).
    std::uint64_t tokenAcquires = 0; ///< Successful multi-bank grabs.
    std::uint64_t tokenWaits = 0;    ///< NACKed acquisition attempts.
    std::uint64_t tokenSteals = 0;   ///< Younger holders aborted by an
                                     ///< older committer (oldest-wins).

    /// Two-level commit across the fleet interconnect (0 unless a
    /// fleet is modeled — see acquireCommitTokens).
    std::uint64_t xcTokenMsgs = 0;   ///< Remote-cluster token contacts.
    std::uint64_t xcTokenWaits = 0;  ///< NACKs blamed on a remote bank.
    std::uint64_t xcTokenCycles = 0; ///< Wire cycles spent on tokens.

    /// NACK/abort backoff (0 unless TMConfig::backoff.policy != None).
    std::uint64_t backoffNacks = 0;    ///< NACK retries delayed extra.
    std::uint64_t backoffRestarts = 0; ///< Post-abort restarts delayed.
    std::uint64_t backoffCycles = 0;   ///< Total extra delay imposed.

    /// DATM cascade back-pressure (0 unless mode == DATM; reported
    /// separately from the backoff counters so policy-None runs still
    /// show 0 there).
    std::uint64_t cascadeBpRestarts = 0; ///< Restarts delayed.
    std::uint64_t cascadeBpCycles = 0;   ///< Total extra delay.

    AvgMax blocksLost;
    AvgMax blocksTracked;
    AvgMax symRegs;
    AvgMax privateStores;
    AvgMax constraintAddrs;
    AvgMax commitCycles;
    double totalCommitCycles = 0;
    double totalTxnCycles = 0;

    /** Commit-stall percentage (Table 3 last column). */
    double
    commitStallPct() const
    {
        return totalTxnCycles > 0
                   ? 100.0 * totalCommitCycles / totalTxnCycles
                   : 0.0;
    }
};

/** The shared transactional machine. */
class TMMachine : public mem::CoherenceListener
{
  public:
    /** Called when a core's transaction is aborted by a remote event. */
    using RemoteAbortFn = std::function<void(CoreId, AbortCause)>;

    /** Called with a core whose awaitRelease wait may have ended. */
    using WaitReleaseFn = std::function<void(CoreId)>;

    /**
     * Contention observation hook (the feed of the exec layer's
     * hot-block tables): called with the blamed key every time a
     * transaction is aborted by a block conflict or a commit-token
     * steal (key = the contested block / tokenBlameKey(bank)) and on
     * every commit-token NACK. Null (the default) disables feeding.
     */
    using ContentionFn = std::function<void(CoreId, Addr)>;

    /**
     * @p clock is only observed (latency stamps, provenance records):
     * pass the driving ShardedEventQueue — the machine never wakes a
     * core itself.
     */
    TMMachine(const SimClock &clock, mem::MemorySystem &ms,
              const TMConfig &cfg);
    ~TMMachine();

    TMMachine(const TMMachine &) = delete;
    TMMachine &operator=(const TMMachine &) = delete;

    void setRemoteAbortHandler(RemoteAbortFn fn) { _onRemoteAbort = fn; }
    void setWaitReleaseHandler(WaitReleaseFn fn)
    {
        _onWaitRelease = std::move(fn);
    }
    void setContentionHook(ContentionFn fn) { _contention = std::move(fn); }

    /**
     * Attach a provenance sink (trace/), the machine's only event
     * channel. Null detaches. With no sink attached every
     * instrumentation point is a single pointer check; simulated
     * timing is identical either way (audit events carry no latency).
     */
    void setTraceSink(trace::TraceSink *sink) { _sink = sink; }

    /**
     * Attach the fleet interconnect (non-owning; null detaches, the
     * single-cluster configuration). When attached, commit-token
     * acquisition runs the two-level protocol: tokens for the
     * committer's own cluster are checked locally, tokens homed on
     * other clusters' banks are requested over the wire and the
     * attempt pays the slowest contacted cluster's round trip —
     * grant or NACK alike, since a NACK is only learned from the
     * reply.
     */
    void setNet(net::Interconnect *net) { _net = net; }

    /** Emit a workload-level annotation into the provenance stream. */
    void userMark(CoreId core, Word id);

    // ---- Non-transactional accesses -------------------------------
    MemOpOutcome plainLoad(CoreId core, Addr addr, unsigned size = 8);
    MemOpOutcome plainStore(CoreId core, Addr addr, Word value,
                            unsigned size = 8);

    // ---- Transaction lifecycle ------------------------------------
    /**
     * Begin (or re-begin after NACK) a transaction. May NACK when a
     * global token (Serial lock, overflow token) is unavailable.
     */
    MemOpOutcome txBegin(CoreId core, bool is_retry);

    /** Transactional load. */
    MemOpOutcome txLoad(CoreId core, Addr addr, unsigned size = 8,
                        bool is_retry = false);

    /**
     * Transactional store. @p sym carries the symbolic tag of the data
     * register, when the executing value is being tracked.
     */
    MemOpOutcome txStore(CoreId core, Addr addr, Word value,
                         const std::optional<rtc::SymTag> &sym,
                         unsigned size = 8, bool is_retry = false);

    /**
     * Drive one step of the commit pipeline: arbitrate (DATM order,
     * then the mode's commit token), walk (RETCON/lazy-vb reacquire
     * and validate), drain (the SSB, or Lazy's write buffer, through
     * the undo log), finalize. Call repeatedly until `done` or
     * `AbortSelf`.
     */
    CommitStepOutcome commitStep(CoreId core, bool is_retry = false);

    /**
     * Hand over the symbolic tag of the transaction's returned register
     * (nullopt when it is concrete) before commit: the one register the
     * exec layer tracks to commit. finalizeCommit repairs it from the
     * root's IVB entry (returnValue); Table 3's `symregs` counts it.
     */
    void setReturnSym(CoreId core, const std::optional<rtc::SymTag> &sym)
    {
        _cores[core]->returnSym = sym;
    }

    /**
     * Record the control-flow constraint implied by a branch on a
     * symbolic value: `([root] + delta) OP rhs` held (@p taken true) or
     * did not hold. Falls back to an equality pin when the constraint
     * buffer is full or the constraint is not interval-representable.
     */
    void recordBranchConstraint(CoreId core, const rtc::SymTag &sym,
                                rtc::CmpOp op, std::int64_t rhs,
                                bool taken);

    /**
     * Pin @p root with an equality constraint (§4.2): the symbolic
     * input was used in a way that cannot be tracked (address
     * computation, complex arithmetic, second symbolic operand).
     */
    void pinEquality(CoreId core, Addr root);

    // ---- mem::CoherenceListener ------------------------------------
    void onRemoteTake(CoreId victim, Addr block, CoreId by,
                      bool by_write) override;
    void onCapacityEvict(CoreId victim, Addr block) override;

    /** Abort the local transaction (explicit workload abort). */
    void abortSelf(CoreId core, AbortCause cause);

    /**
     * After @p core's transactional access got a WaitOn::Conflict
     * NACK: when re-issuing it would change nothing but `nacks` until
     * a holder leaves the NACKing block's touch entry, register @p core
     * as a waiter on that entry and return true. The wait-release
     * handler is then called with @p core once clearTouches edits the
     * entry. Holders only gain priority while they hold (Active ->
     * Committing, overflow timestamp 0) and a waiting core's own
     * timestamp and status are frozen, so leaving the entry is the
     * only way the NACK can end. False without a wait-release
     * handler, and for retries that are not pure: under a backoff
     * policy (a jitter draw per retry) and for a RETCON store of a
     * symbolic value (@p sym_store; it re-pins its input per retry).
     */
    bool awaitRelease(CoreId core, bool sym_store);

    // ---- Queries ----------------------------------------------------
    TxStatus status(CoreId core) const { return _cores[core]->status; }

    /** The returned register's value, repaired at @p core's last
     *  commit (meaningful when that commit had a returnSym). */
    Word returnValue(CoreId core) const { return _cores[core]->returnValue; }

    rtc::ConflictPredictor &predictor() { return _predictor; }
    const MachineStats &stats() const { return _stats; }
    MachineStats &stats() { return _stats; }
    mem::MemorySystem &memorySystem() { return _ms; }
    CoreTxState &coreState(CoreId core) { return *_cores[core]; }

    /** Whether @p core's active attempt read / wrote @p block (the
     *  modeled speculatively-read/-written bits). */
    bool reads(CoreId core, Addr block) const
    {
        return (touchersOf(block).readers >> core) & 1;
    }
    bool writes(CoreId core, Addr block) const
    {
        return (touchersOf(block).writers >> core) & 1;
    }

    /** Per-bank commit-token counters (all zero unless arbitration
     *  is modeled — TMConfig::commitTokenArbitration). */
    struct BankTokenStats {
        std::uint64_t acquires = 0; ///< Grants that included this bank.
        std::uint64_t waits = 0;    ///< NACKs blamed on this bank.
    };
    const BankTokenStats &bankTokenStats(unsigned bank) const
    {
        return _bankTokens[bank].stats;
    }

    /**
     * Extra delay (cycles) the execution layer must wait before
     * restarting @p core's aborted transaction, per the configured
     * backoff policy (0 when the policy is None — the immediate-
     * restart baseline). Counted in MachineStats::backoffRestarts.
     */
    Cycle restartBackoff(CoreId core);

    /**
     * The key blamed for @p core's most recent abort: the contested
     * block for conflict aborts, tokenBlameKey(bank) for commit-token
     * steals, 0 when the abort had no contention blame (constraint
     * violations, zombies, explicit aborts). Consumed by the exec
     * layer's contention-aware re-dispatch.
     */
    Addr abortBlame(CoreId core) const { return _cores[core]->abortBlame; }

  private:
    const SimClock &_eq;
    mem::MemorySystem &_ms;
    TMConfig _cfg;
    rtc::ConflictPredictor _predictor;
    std::vector<std::unique_ptr<CoreTxState>> _cores;
    RemoteAbortFn _onRemoteAbort;
    WaitReleaseFn _onWaitRelease;
    ContentionFn _contention;
    trace::TraceSink *_sink = nullptr;
    std::uint64_t _auditSeq = 1; ///< Global provenance-record order.
    MachineStats _stats;

    std::uint64_t _nextTimestamp = 1;
    std::uint64_t _nextUid = 1;
    std::uint64_t _writeSeq = 1;

    /// Global tokens.
    CoreId _serialLockHolder = kNoCore;
    CoreId _overflowTokenHolder = kNoCore;
    CoreId _lazyCommitToken = kNoCore;

    /// Per-directory-bank commit tokens (modeled arbitration only).
    struct BankToken {
        CoreId holder = kNoCore;
        BankTokenStats stats;
    };
    std::vector<BankToken> _bankTokens;

    /// Fleet interconnect (null = single cluster, no wire costs).
    net::Interconnect *_net = nullptr;

    /// The per-block touch index: bit c of `readers`/`writers` means
    /// core c's active attempt read/wrote the block. An entry exists
    /// only while some bit is set; an attempt's bits are cleared when
    /// it commits or aborts (CoreTxState::touched lists its blocks).
    /// `waiters` are the cores awaitRelease registered on the entry.
    struct Touchers {
        std::uint64_t readers = 0;
        std::uint64_t writers = 0;
        std::uint64_t waiters = 0;

        bool has(CoreId c) const { return ((readers | writers) >> c) & 1; }
    };
    std::unordered_map<Addr, Touchers> _touchers;

    // ---- Internal helpers -------------------------------------------
    struct ConflictInfo {
        std::uint64_t holders = 0; ///< Bit c: core c holds the block.
        bool anyOlder = false;
    };

    /** Effective age for arbitration (overflowed = oldest, non-tx = 0). */
    std::uint64_t effectiveTs(CoreId core, bool txnal) const;

    /** @p block's touch-index entry (all zero when untouched). */
    Touchers
    touchersOf(Addr block) const
    {
        auto it = _touchers.find(block);
        return it == _touchers.end() ? Touchers{} : it->second;
    }

    /** Set @p core's read (or, with @p write, written) bit on
     *  @p block, listing the block on its first touch. */
    void touch(CoreId core, Addr block, bool write);

    /** Clear every bit of @p core's attempt (before it resets) and
     *  release the waiters of every entry it edits. */
    void clearTouches(CoreId core);

    /**
     * The block-toucher query, the one place that looks for another
     * core's claim on a block: call `fn(c, wrote, read)` for each
     * active transaction c other than @p self, in ascending core
     * order, that wrote @p block (with @p with_readers, or read it).
     * One index lookup; it is repeated after @p fn only while
     * candidates remain, because a DATM cascade or a committer-wins
     * abort inside @p fn can retire later touchers (and erase the
     * entry).
     */
    template <typename Fn>
    void forEachToucher(CoreId self, Addr block, bool with_readers,
                        Fn &&fn) const;

    /** Find eager conflicts for an access. */
    ConflictInfo findConflicts(CoreId requester, Addr block,
                               bool is_write) const;

    /**
     * Resolve an eager conflict per the CM policy. Aborts losers as a
     * side effect. @return the outcome status for the requester.
     */
    OpStatus resolveConflict(CoreId requester, bool requester_txnal,
                             Addr block, bool is_write, bool is_retry);

    /**
     * Roll back and reset @p core's transaction (in DATM, with its
     * dataflow successors). @p blame names the
     * contention cause (contested block / token-blame key) when the
     * abort was a contention loss; it is published via abortBlame()
     * and fed to the contention hook.
     */
    void doAbort(CoreId core, AbortCause cause, bool notify_exec,
                 Addr blame = 0);

    /** The rest of an abort, once @p core's memory is rolled back;
     *  @p cascade bumps its DATM cascade streak. */
    void retireAborted(CoreId core, AbortCause cause, Addr blame,
                       bool notify, bool cascade);

    /** Abort @p core for a failed value (@p value_mismatch) or
     *  constraint check on @p block. */
    void violationAbort(CoreId core, Addr block, bool value_mismatch);

    /**
     * NACK retry latency for @p core: the fixed retry delay plus the
     * configured backoff policy's extra delay (which grows with the
     * attempt's consecutive-NACK streak).
     */
    Cycle nackLatency(CoreId core);

    /** Policy-scaled extra delay for a streak of @p steps retries. */
    Cycle backoffExtra(CoreId core, std::uint32_t steps);

    /** Directory banks @p core's commit will write (token set). */
    std::uint64_t neededBankMask(CoreId core) const;

    /**
     * Try to acquire every commit token in @p core's needed bank set,
     * all-or-nothing. Oldest-wins: younger holders are aborted, an
     * older holder makes the requester NACK. @return whether all
     * tokens are held (the commit may proceed), and the attempt's wire
     * latency (max round trip over the remote clusters it contacted),
     * which the commit step pays on grant and NACK alike.
     */
    std::pair<bool, Cycle> acquireCommitTokens(CoreId core);

    /** Release every token @p core holds: serial lock, overflow,
     *  lazy commit and bank commit tokens (at commit or abort). */
    void releaseTokens(CoreId core);

    /** DATM: abort @p core and all transitive successors. */
    void datmAbortCascade(CoreId core, AbortCause cause, bool notify_exec,
                          Addr blame = 0);

    /** DATM: order @p core after the block's other writers (and,
     *  with @p is_write, readers); false if a cycle aborted @p core. */
    bool datmOrderAfter(CoreId core, Addr block, bool is_write);

    /** DATM: would adding edge pred->succ create a dependence cycle? */
    bool datmCreatesCycle(std::uint64_t pred_uid,
                          std::uint64_t succ_uid) const;

    /** DATM: the record of the core running the still-active attempt
     *  @p uid, or null once that attempt committed or aborted. */
    const CoreTxState *activeAttempt(std::uint64_t uid) const;

    /** Common eager load/store path (also Serial, untracked RETCON). */
    MemOpOutcome eagerAccess(CoreId core, Addr addr, bool is_write,
                             Word value, unsigned size, bool txnal,
                             bool is_retry);

    /** RETCON/LazyVB: initial symbolic load of an untracked block. */
    MemOpOutcome symbolicFirstLoad(CoreId core, Addr addr, unsigned size,
                                   bool is_retry);

    /**
     * RETCON/LazyVB eager store path: invalidates any SSB entry for
     * the word and freezes value-tracked words it overwrites.
     */
    MemOpOutcome retconEagerStore(CoreId core, Addr addr, Word value,
                                  unsigned size, bool is_retry);

    /** Checks before every transactional access (deferred violation,
     *  OneTM overflow token); an outcome means: do not proceed. */
    std::optional<MemOpOutcome> txAccessGate(CoreId core);

    /** A NACK waiting on @p on, after the retry latency. */
    MemOpOutcome nack(CoreId core, WaitOn on);

    /** Outcome of an access refused with NACK (a conflict) or
     *  AbortSelf. */
    MemOpOutcome failedAccess(CoreId core, OpStatus s);

    /** Undo-log (@p txnal), write and audit one store; returns its
     *  machine-global write sequence number. */
    std::uint64_t speculativeWrite(CoreId core, Addr addr, Word value,
                                   unsigned size, bool txnal = true);

    /** Charge one commit step's @p latency to the commit. */
    CommitStepOutcome commitCharge(CoreId core, Cycle latency,
                                   OpStatus status = OpStatus::Ok);

    /** The commit-step form of nack; @p wire adds token wire time. */
    CommitStepOutcome commitNack(CoreId core, WaitOn on, Cycle wire = 0);

    /** The commit-step form of failedAccess. */
    CommitStepOutcome commitFailed(CoreId core, OpStatus s);

    /** The commit pipeline's phases (CommitPhase), one step each. */
    CommitStepOutcome commitArbitrate(CoreId core);
    CommitStepOutcome commitWalk(CoreId core, bool is_retry);
    CommitStepOutcome commitDrain(CoreId core, bool is_retry);
    CommitStepOutcome finalizeCommit(CoreId core);

    /** Move @p core's commit into the drain (audits CommitDrain). */
    void enterDrain(CoreId core);

    void sampleTxnStats(CoreId core);

    /** Provenance emission (no-op without a sink). */
    void audit(CoreId core, trace::EventKind kind, Addr addr = 0,
               Word a = 0, Word b = 0,
               const std::optional<rtc::SymTag> &sym = std::nullopt,
               rtc::CmpOp cmp = rtc::CmpOp::EQ, std::uint8_t aux = 0,
               std::uint64_t vid = 0);

    /**
     * DATM: locate the newest speculative store to @p word among
     * active transactions other than @p reader (the store whose value
     * a forwarded load observes). Returns kNoCore when the word's
     * current value is committed data.
     */
    CoreId findForwardProducer(CoreId reader, Addr word,
                               std::uint64_t &store_seq) const;
};

} // namespace retcon::htm

#endif // RETCON_HTM_MACHINE_HPP
