/**
 * @file
 * Per-core transactional state.
 *
 * Groups everything a core's in-flight transaction owns: the list of
 * blocks it touched (their speculatively-read/-written bits live in
 * TMMachine's per-block touch index, which conflict detection reads),
 * the undo log (eager version management), the RETCON structures (IVB,
 * constraint buffer, SSB), the modeled permissions-only cache that
 * absorbs speculative bits evicted from the L2 (OneTM backing, §2), the
 * DATM dependence bookkeeping, the pre-commit walk cursor and the
 * returned register's symbolic tag. It is the machine's only per-core
 * record: the timestamp, backoff streaks and jitter stream, and abort
 * blame live here too and outlast resetSpeculation. The structure
 * capacities are the fixed Table 1 sizes below (lifted by
 * TMConfig::idealized); the permissions-only cache has the fixed
 * mem::kPermOnlyGeometry.
 */

#ifndef RETCON_HTM_TX_STATE_HPP
#define RETCON_HTM_TX_STATE_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "htm/types.hpp"
#include "htm/undo_log.hpp"
#include "mem/memory_system.hpp"
#include "retcon/constraint_buffer.hpp"
#include "retcon/ivb.hpp"
#include "retcon/ssb.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace retcon::htm {

/** The commit pipeline's phases, in order (Figure 7). */
enum class CommitPhase : std::uint8_t {
    Arbitrate, ///< DATM predecessor wait, then the mode's token.
    Walk,      ///< RETCON/lazy-vb: reacquire and validate the IVB.
    Drain,     ///< Write the SSB (Lazy: the write buffer) to memory.
    Finalize,  ///< Publish root values, release tokens, retire.
};

/// RETCON structure capacities (Table 1).
inline constexpr std::size_t kIvbEntries = 16;
inline constexpr std::size_t kConstraintEntries = 16;
inline constexpr std::size_t kSsbEntries = 32;

/** One core's TM record: its current transaction and what outlives it. */
struct CoreTxState {
    CoreTxState(const TMConfig &cfg, CoreId core)
        : ivb(cfg.idealized ? SIZE_MAX : kIvbEntries),
          constraints(cfg.idealized ? SIZE_MAX : kConstraintEntries),
          // TCC's write buffer (Lazy) is unbounded; only RETCON's
          // symbolic store buffer has the Table 1 capacity.
          ssb(cfg.idealized || cfg.mode == TMMode::Lazy ? SIZE_MAX
                                                        : kSsbEntries),
          backoffRng(Xoshiro::forThread(cfg.backoff.seed, core))
    {}

    TxStatus status = TxStatus::Idle;

    /// Timestamp for oldest-wins arbitration; kept across retries so an
    /// aborted transaction ages toward winning (forward progress, §2).
    /// 0 between transactions (the machine hands out 1, 2, ...).
    std::uint64_t timestamp = 0;

    /// Unique id of the current *attempt* (DATM dependence edges).
    std::uint64_t uid = 0;

    /// Blocks this attempt read or wrote, in first-touch order. Their
    /// speculatively-read/-written bits are TMMachine's touch index
    /// (TMMachine::reads/writes), which owns this list: it appends on
    /// first touch and empties it when the attempt ends.
    std::vector<Addr> touched;

    UndoLog undo;

    /// RETCON structures (Figure 5). The SSB doubles as the lazy-mode
    /// write buffer (entries with sym == nullopt).
    rtc::InitialValueBuffer ivb;
    rtc::ConstraintBuffer constraints;
    rtc::SymbolicStoreBuffer ssb;

    /// Permissions-only cache occupancy model: spec blocks evicted from
    /// the L2 land here; evicting a spec block *from here* overflows the
    /// transaction into the OneTM serialized mode.
    mem::SetAssocCache permCache{mem::kPermOnlyGeometry};
    bool overflowed = false;
    bool overflowPending = false;

    /// DATM: uid -> edge kind of transactions that must commit before
    /// this one. Bit 0: anti/output ordering only; bit 1: dataflow
    /// (this transaction consumed or overwrote the predecessor's
    /// speculative data, so the predecessor's abort cascades here).
    std::unordered_map<std::uint64_t, std::uint8_t> datmPreds;

    /// DATM: word -> machine-global write seq of this attempt's latest
    /// store to it. The forwarding-producer index: lets a forwarded
    /// load name the producing store in O(block writers) instead of
    /// scanning undo logs (htm::TMMachine::findForwardProducer).
    std::unordered_map<Addr, std::uint64_t> datmStoreSeq;

    /// DATM: this attempt loaded a value forwarded from another
    /// in-flight transaction (word-level value flow; every such load
    /// also emitted a trace::EventKind::Forward record). Surfaced on
    /// the commit provenance record (trace::kCommitAuxDatmForwarded)
    /// so the reenactment validator knows to re-derive the attempt's
    /// forwarding chain at commit (see docs/trace-format.md).
    bool datmForwardedRead = false;

    /// Per-bank commit tokens held by this commit (bit = bank index).
    /// Managed explicitly by TMMachine::acquireCommitTokens/releaseTokens —
    /// released on commit and on abort, never by resetSpeculation.
    std::uint64_t heldBankMask = 0;

    /// Needed-bank mask cached across NACKed acquisition attempts:
    /// the commit's write targets are fixed once it reaches its
    /// commit point, so the mask is computed on the first attempt
    /// only (a contended token can be re-requested tens of thousands
    /// of times per run). Derived data — cleared by resetSpeculation.
    std::optional<std::uint64_t> commitBankMask;

    /// Position in the commit pipeline (TMMachine::commitStep) and
    /// the walk and drain cursors.
    CommitPhase commitPhase = CommitPhase::Arbitrate;
    std::size_t commitIvbIdx = 0;
    std::size_t commitSsbIdx = 0;

    Cycle txnStartCycle = 0;
    Cycle commitCycles = 0;

    /// Symbolic tag of the transaction's returned register (Figure 7's
    /// symbolic register file, one register deep), handed over by the
    /// execution layer before commit; Table 3's `symregs` counts it.
    std::optional<rtc::SymTag> returnSym;
    /// That register's value, repaired at the last commit.
    Word returnValue = 0;

    /// Block that most recently NACKed us (dedupes predictor training
    /// across the retry loop for the same request).
    Addr lastNackBlock = static_cast<Addr>(-1);

    /// The block of a use-time equality validation that already failed
    /// (set from a context that cannot abort, e.g. mid-instruction
    /// reify); the next machine operation converts it into an abort.
    std::optional<Addr> earlyViolation;

    /// NACK/abort backoff: the NACK streak restarts with each attempt,
    /// the abort and DATM cascade streaks (TMMachine::restartBackoff)
    /// with each commit; the jitter stream is per core.
    std::uint32_t nackStreak = 0;
    std::uint32_t abortStreak = 0;
    std::uint32_t cascadeStreak = 0;
    Xoshiro backoffRng;

    /// Key blamed for the most recent abort (TMMachine::abortBlame).
    Addr abortBlame = 0;

    bool active() const { return status != TxStatus::Idle; }

    /** Reset all speculative state (after commit or abort). */
    void
    resetSpeculation()
    {
        undo.clear();
        ivb.clear();
        constraints.clear();
        ssb.clear();
        permCache.clear();
        datmPreds.clear();
        datmStoreSeq.clear();
        datmForwardedRead = false;
        commitBankMask.reset();
        overflowed = false;
        overflowPending = false;
        commitPhase = CommitPhase::Arbitrate;
        commitIvbIdx = 0;
        commitSsbIdx = 0;
        commitCycles = 0;
        returnSym.reset();
        lastNackBlock = static_cast<Addr>(-1);
        earlyViolation.reset();
        status = TxStatus::Idle;
    }
};

} // namespace retcon::htm

#endif // RETCON_HTM_TX_STATE_HPP
