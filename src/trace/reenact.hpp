/**
 * @file
 * ReenactmentValidator: a live equivalence oracle for RETCON commits.
 *
 * RETCON's correctness claim (§4) is that a repaired commit is
 * indistinguishable from re-executing the transaction against the
 * final committed input values. This sink checks that claim on every
 * commit, independently of the machine's own repair machinery:
 *
 *  - it accumulates each attempt's *symbolic log* from the event
 *    stream: symbolic stores ([root] + delta per word, mirroring the
 *    SSB's last-writer-wins semantics), interval constraints, equality
 *    pins, and input words frozen by local eager stores;
 *  - when the pre-commit walk completes (CommitDrain — every tracked
 *    block has been reacquired and is coherence-protected until the
 *    commit finishes), it snapshots the final value of every
 *    referenced root directly from architectural memory;
 *  - it then re-derives each repaired store via rtc::evalSym over the
 *    snapshot, re-evaluates every constraint and pin, and flags any
 *    disagreement with what htm::TMMachine actually wrote or accepted;
 *  - for DATM commits it additionally re-derives the forwarding
 *    chain: every forwarded read (Forward record) is resolved against
 *    the producing attempt's logged store — matched by value-id, not
 *    by re-reading architectural memory — and scored when the
 *    consumer commits. Records arrive in machine-global seq order, so
 *    resolving links in arrival order walks chains topologically
 *    (producers strictly before consumers), across any number of
 *    event-queue shards.
 *
 * The validator shares only `evalSym`/`evalCmp` (the ~10-line symbolic
 * semantics) with the machine; the IVB/SSB/constraint-buffer walk that
 * produced the commit is reenacted from scratch, so a bookkeeping bug
 * in any of those structures shows up as a mismatch rather than
 * silently corrupting committed state.
 */

#ifndef RETCON_TRACE_REENACT_HPP
#define RETCON_TRACE_REENACT_HPP

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/sink.hpp"

namespace retcon::trace {

/** One detected disagreement between machine and reenactment. */
struct Mismatch {
    enum class What : std::uint8_t {
        RepairValue,   ///< Repaired store != reenacted value.
        Constraint,    ///< Final root value violates an interval
                       ///< constraint the machine accepted.
        PinValue,      ///< Equality-pinned word changed, yet committed.
        UndrainedStore, ///< Symbolic store never drained at commit.
        ForwardValue,  ///< Forwarded value != the producer's
                       ///< re-derived store (DATM chain divergence).
        ForwardChain   ///< Forwarding chain structurally broken: no
                       ///< producing store matches the link's
                       ///< value-id, the producer aborted or was
                       ///< still in flight when the consumer
                       ///< committed (DATM commit order violated), or
                       ///< the commit's forwarded flag disagrees with
                       ///< the links.
    };
    What what = What::RepairValue;
    Cycle cycle = 0;
    CoreId core = 0;
    Addr word = 0;
    Word expected = 0;
    Word got = 0;

    std::string describe() const;
};

/** Aggregate audit results over a run. */
struct ReenactReport {
    std::uint64_t commitsChecked = 0;
    std::uint64_t repairsChecked = 0;
    std::uint64_t constraintsChecked = 0;
    std::uint64_t pinsChecked = 0;
    std::uint64_t abortsSeen = 0;
    /** Forwarded-read links re-derived at consumer commits (DATM). */
    std::uint64_t forwardsChecked = 0;
    /** Commits flagged datm_forwarded whose chains were re-derived. */
    std::uint64_t forwardedCommitsChecked = 0;
    /**
     * Commits flagged datm_forwarded that could not be re-derived
     * (no recorded links — also flagged as a ForwardChain mismatch).
     * Zero on a healthy run: every recorded chain is walked.
     * (Attribution is word-granular, newest writer wins — see
     * docs/trace-format.md for the sub-word scoping caveat.)
     */
    std::uint64_t forwardedCommitsSkipped = 0;
    std::uint64_t mismatches = 0;
    /** First few mismatches, for diagnostics (capped). */
    std::vector<Mismatch> samples;

    bool ok() const { return mismatches == 0; }
    std::string summary() const;
};

/** Sink that reenacts every RETCON/lazy-vb commit as it happens. */
class ReenactmentValidator final : public TraceSink
{
  public:
    /** Reads one aligned word of architectural memory. */
    using ReadWordFn = std::function<Word(Addr)>;

    explicit ReenactmentValidator(ReadWordFn read_word,
                                  std::size_t max_samples = 16);

    void onEvent(const Record &r) override;

    const ReenactReport &report() const { return _report; }

    /**
     * Attempts currently holding resident log state. Per-attempt logs
     * retire at commit/abort, so this — not the run length — bounds
     * the validator's memory: the windowed-validation contract
     * (docs/trace-format.md).
     */
    std::size_t openAttempts() const;

  private:
    /** One word's pending symbolic/concrete store (SSB mirror). */
    struct StoreEnt {
        Word concrete = 0;
        rtc::SymTag sym{};
        bool symbolic = false;
        bool repaired = false;
    };

    struct ConstraintEnt {
        Addr root = 0;
        rtc::CmpOp op = rtc::CmpOp::EQ;
        std::int64_t rhs = 0;
    };

    struct PinEnt {
        Addr root = 0;
        Word initValue = 0;
    };

    /** One eager store of the attempt (word granularity, DATM/eager). */
    struct WriteEnt {
        Word word = 0;         ///< Resulting word value after the store.
        std::uint64_t vid = 0; ///< Machine-global write sequence.
    };

    /**
     * One forwarded-read edge of a DATM chain, resolved at read time
     * against the producer's logged store (records arrive in
     * machine-global seq order, so the producing store — and every
     * upstream link of the chain — has already been processed: the
     * seq walk IS the topological walk). The verdict is only scored
     * if the consuming attempt commits.
     */
    struct FwdLink {
        Cycle cycle = 0;
        Addr word = 0;
        std::uint64_t producerUid = 0;
        Word delivered = 0;    ///< Word value the consumer observed.
        Word derived = 0;      ///< Producer's re-derived store value.
        bool resolved = false; ///< Producing store found (vid match).
        bool poisoned = false; ///< Producer aborted after forwarding.
    };

    /** The reenactment log of one core's in-flight attempt. */
    struct TxLog {
        bool active = false;
        bool draining = false;
        std::uint64_t uid = 0;
        std::unordered_map<Addr, StoreEnt> stores;
        std::vector<ConstraintEnt> constraints;
        std::vector<PinEnt> pins;
        std::unordered_map<Addr, Word> frozen;
        /** Final root values snapshotted at CommitDrain. */
        std::unordered_map<Addr, Word> roots;
        /** Eager stores by word (the forwarding producers' side). */
        std::unordered_map<Addr, WriteEnt> writes;
        /** Forwarded reads consumed by this attempt. */
        std::vector<FwdLink> links;

        void
        clear()
        {
            active = false;
            draining = false;
            uid = 0;
            stores.clear();
            constraints.clear();
            pins.clear();
            frozen.clear();
            roots.clear();
            writes.clear();
            links.clear();
        }
    };

    TxLog &log(CoreId core);
    void snapshotRoots(TxLog &t);
    Word rootValue(const TxLog &t, Addr root) const;
    void checkRepair(TxLog &t, const Record &r);
    void finishCommit(TxLog &t, const Record &r);
    void resolveForward(TxLog &t, const Record &r);
    void checkForwardChain(TxLog &t, const Record &r);
    void poisonLinksFrom(std::uint64_t producer_uid);
    void flag(Mismatch m);

    ReadWordFn _readWord;
    std::size_t _maxSamples;
    std::vector<TxLog> _logs;
    /** Attempt uid -> core, for resolving forward links. */
    std::unordered_map<std::uint64_t, CoreId> _uidCore;
    ReenactReport _report;
};

} // namespace retcon::trace

#endif // RETCON_TRACE_REENACT_HPP
