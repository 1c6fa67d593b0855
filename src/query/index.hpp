/**
 * @file
 * TraceIndex: the query-side view of a recorded provenance stream
 * (docs/trace-query.md). One pass over the records builds:
 *
 *  - **attempts**: every transaction attempt's interval (begin ->
 *    commit/abort), outcome, blamed block, repairs, and record span;
 *  - **block timelines**: per coherence block, every record that
 *    touched it plus the aborts that blamed it, in seq order — the
 *    conflict history of one address;
 *  - **annotation spans**: `WorkerCtx::annotate` marks partition each
 *    core's stream into named phases (a mark opens a span on its core
 *    until the core's next mark), so queries can anchor on workload
 *    phases instead of raw seq ranges;
 *  - **blame chains**: an aborted attempt names the block that killed
 *    it (the abort record's blame addr); the chain walks to the
 *    attempt that held that block at abort time, then to *its*
 *    killer, transitively — the debugging surface *Transactions Make
 *    Debugging Easy* argues for;
 *  - **repair diffs**: a committed attempt's before/after memory
 *    delta, straight from its `repair` records;
 *  - **overlaps**: two attempts in flight on the same coherence block
 *    at once, found with a per-block set of in-flight touchers. They
 *    heat the block in `stats()` and, with the records that only
 *    exist because attempts met (`abort`, `token-wait`, `block-lost`,
 *    `forward`), date the stream's first cross-attempt interaction —
 *    the reach bound of a what-if change (src/api/whatif).
 */

#ifndef RETCON_QUERY_INDEX_HPP
#define RETCON_QUERY_INDEX_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"

namespace retcon::query {

/** One transaction attempt as the index sees it. */
struct Attempt {
    std::uint64_t uid = 0;
    CoreId core = 0;
    std::uint64_t beginSeq = 0;
    Cycle beginCycle = 0;
    std::uint64_t endSeq = trace::kSeqUnreached; ///< In flight if unset.
    Cycle endCycle = 0;
    bool committed = false;
    bool aborted = false;
    std::uint8_t abortCause = 0;  ///< htm::AbortCause when aborted.
    Addr blameBlock = 0;          ///< Abort blame (0 = none recorded).
    std::uint64_t repairs = 0;    ///< Repair records at commit.
    std::uint64_t forwards = 0;   ///< DATM forwarded reads consumed.
    /** Annotation mark active on the core when the attempt began
     *  (nullopt before any mark). */
    std::optional<Word> annotation;
    /** Indices into the indexed record vector. */
    std::vector<std::size_t> recordIdx;
};

/** One step of a block's conflict timeline. */
struct TimelineEntry {
    std::size_t recordIdx = 0;     ///< Into the indexed records.
    std::uint64_t uid = 0;         ///< Attempt (0 = outside any).
};

/** One core's annotation span: [startSeq, endSeq). */
struct AnnotationSpan {
    Word mark = 0;
    CoreId core = 0;
    std::uint64_t startSeq = 0;
    std::uint64_t endSeq = trace::kSeqUnreached; ///< Open if unset.
};

/** One link of an abort-blame chain. */
struct BlameLink {
    std::uint64_t uid = 0;   ///< The aborted attempt.
    Addr block = 0;          ///< Block its abort blamed.
    std::uint8_t cause = 0;  ///< htm::AbortCause.
    /** The attempt holding the blamed block at abort time (the
     *  conflict winner); 0 when no holder is visible in the trace. */
    std::uint64_t winnerUid = 0;
};

/** One repaired word of a commit's before/after diff. */
struct RepairDelta {
    Addr word = 0;
    Word before = 0;
    Word after = 0;
    bool symbolic = false;
    rtc::SymTag sym{};
};

/** Aggregate stream statistics. */
struct TraceStats {
    std::uint64_t records = 0;
    std::uint64_t kindCounts[17] = {};
    std::uint64_t attempts = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t abortsByCause[10] = {};
    std::uint64_t repairs = 0;
    std::uint64_t forwards = 0;
    std::uint64_t marks = 0;
    std::uint64_t distinctBlocks = 0;
    /** Times an attempt first touched a block another in-flight
     *  attempt already held (one per pair and block). */
    std::uint64_t overlaps = 0;
    Cycle firstCycle = 0;
    Cycle lastCycle = 0;
    /** Blocks ranked by conflict pressure (aborts blaming them +
     *  block-lost + overlaps), hottest first. */
    std::vector<std::pair<Addr, std::uint64_t>> hotBlocks;
};

/**
 * The first seq of each record class a what-if change can reach
 * (kSeqUnreached when the stream has none).
 */
struct ReachSeqs {
    std::uint64_t first = trace::kSeqUnreached; ///< First record.
    /** First cross-attempt interaction: an overlap, `abort`,
     *  `token-wait`, `block-lost` or `forward`. */
    std::uint64_t contention = trace::kSeqUnreached;
    std::uint64_t repair = trace::kSeqUnreached;  ///< First `repair`.
    std::uint64_t forward = trace::kSeqUnreached; ///< First `forward`.
};

/** Indexed view over one recorded stream (records are copied in). */
class TraceIndex
{
  public:
    explicit TraceIndex(std::vector<trace::Record> recs);

    const std::vector<trace::Record> &records() const { return _recs; }
    const ReachSeqs &reach() const { return _reach; }

    const std::unordered_map<std::uint64_t, Attempt> &attempts() const
    {
        return _attempts;
    }
    const Attempt *attempt(std::uint64_t uid) const;

    /** All records touching @p block (any address inside it). */
    std::vector<TimelineEntry> blockTimeline(Addr block) const;

    /**
     * Walk the abort-blame chain from @p uid: its abort's blamed
     * block, the attempt that held that block when the abort fired,
     * that attempt's own abort (if any), and so on. Cycles and
     * unbroken chains terminate at @p max_depth links.
     */
    std::vector<BlameLink> blameChain(std::uint64_t uid,
                                      std::size_t max_depth = 16) const;

    /** Aborted attempts whose begin-time annotation equals @p mark. */
    std::vector<std::uint64_t> abortsUnderMark(Word mark) const;

    /** All annotation spans, in seq order. */
    const std::vector<AnnotationSpan> &annotationSpans() const
    {
        return _spans;
    }

    /** Spans carrying @p mark (empty = annotation miss). */
    std::vector<AnnotationSpan> spansForMark(Word mark) const;

    /**
     * Before/after diff of the commit whose `commit` record carries
     * @p commit_seq (or whose attempt contains that seq). nullopt when
     * no committed attempt matches.
     */
    std::optional<std::vector<RepairDelta>>
    commitDiff(std::uint64_t commit_seq) const;

    /** Attempt whose record span contains @p seq (0 = none). */
    std::uint64_t attemptAtSeq(std::uint64_t seq) const;

    TraceStats stats() const;

  private:
    std::vector<trace::Record> _recs;
    ReachSeqs _reach;
    std::unordered_map<std::uint64_t, Attempt> _attempts;
    std::vector<AnnotationSpan> _spans;
    /** Block -> indices of records touching it (including blames). */
    std::unordered_map<Addr, std::vector<std::size_t>> _blockIdx;
    /** Record index -> attempt uid (0 = outside any attempt). */
    std::vector<std::uint64_t> _recAttempt;
    /** Block -> overlaps on it. */
    std::unordered_map<Addr, std::uint64_t> _overlaps;
};

} // namespace retcon::query

#endif // RETCON_QUERY_INDEX_HPP
