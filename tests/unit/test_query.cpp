/**
 * @file
 * Tests for the trace-query layer (src/query) and the what-if
 * reenactment engine (src/api/whatif): index surfaces on a recorded
 * contended-counter run, annotation anchoring, offline replay, and
 * the what-if proofs — the no-change bit-identity self-check, and
 * reach soundness under conflict-, repair- and everything-class knob
 * changes, also on a run of more than 65,536 records.
 */

#include <gtest/gtest.h>

#include "api/whatif.hpp"
#include "exec/cluster.hpp"
#include "query/index.hpp"
#include "query/replay.hpp"
#include "trace/sink.hpp"

#include "counter_harness.hpp"

using namespace retcon;
using namespace retcon::exec;
using namespace retcon::test;

namespace {

constexpr Word kPhaseMark = 7;

/** Contended-counter run under RETCON, fully recorded. */
std::vector<trace::Record>
recordCounterRun(bool annotate = false)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    std::vector<trace::Record> recs;
    trace::CaptureSink capture(recs);
    cluster.setTraceSink(&capture);
    cluster.start([annotate](WorkerCtx &ctx) -> Task<void> {
        if (annotate)
            ctx.annotate(kPhaseMark);
        co_await counterLoop(ctx);
        if (annotate)
            ctx.annotate(kPhaseMark + 1);
        co_await ctx.barrier();
    });
    cluster.run();
    EXPECT_EQ(cluster.memory().readWord(kCounter),
              Word{kThreads} * kIters);
    return recs;
}

/** Quick contended service base config for the what-if proofs. */
api::RunConfig
whatIfBase()
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.annotatePhases = true;
    cfg.trace.enabled = true;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// TraceIndex surfaces on a recorded contended run
// ---------------------------------------------------------------------

TEST(QueryIndex, TimelineCoversTheContendedBlock)
{
    query::TraceIndex idx(recordCounterRun());
    auto tl = idx.blockTimeline(kCounter);
    ASSERT_FALSE(tl.empty());
    std::uint64_t prevSeq = 0;
    for (const query::TimelineEntry &e : tl) {
        const trace::Record &r = idx.records()[e.recordIdx];
        // Every entry touches (or blames) the counter's block, in
        // strictly ascending seq order.
        EXPECT_EQ(blockAddr(r.addr), blockAddr(kCounter));
        EXPECT_GT(r.seq, prevSeq);
        prevSeq = r.seq;
    }
    // All 200 increments flow through this one block: every repair in
    // the run lands on its timeline.
    query::TraceStats st = idx.stats();
    ASSERT_GT(st.repairs, 0u);
    std::uint64_t repairsOnBlock = 0;
    for (const query::TimelineEntry &e : tl)
        repairsOnBlock += idx.records()[e.recordIdx].kind ==
                          trace::EventKind::Repair;
    EXPECT_EQ(repairsOnBlock, st.repairs);
    ASSERT_FALSE(st.hotBlocks.empty());
    EXPECT_EQ(st.hotBlocks.front().first, blockAddr(kCounter));
    EXPECT_GT(st.overlaps, 0u);

    // The reach seqs, against a linear scan of the stream.
    const query::ReachSeqs &reach = idx.reach();
    auto firstOf = [&](trace::EventKind k) {
        for (const trace::Record &r : idx.records())
            if (r.kind == k)
                return r.seq;
        return trace::kSeqUnreached;
    };
    EXPECT_EQ(reach.first, idx.records().front().seq);
    EXPECT_EQ(reach.repair, firstOf(trace::EventKind::Repair));
    EXPECT_EQ(reach.forward, trace::kSeqUnreached);
    std::uint64_t firstAbort = firstOf(trace::EventKind::Abort);
    ASSERT_NE(firstAbort, trace::kSeqUnreached);
    EXPECT_GT(reach.contention, firstOf(trace::EventKind::TxBegin));
    EXPECT_LE(reach.contention, firstAbort);
}

TEST(QueryIndex, AttemptsPartitionTheStream)
{
    query::TraceIndex idx(recordCounterRun());
    query::TraceStats st = idx.stats();
    EXPECT_EQ(st.attempts, idx.attempts().size());
    EXPECT_EQ(st.commits, Word{kThreads} * kIters);
    for (const auto &[uid, at] : idx.attempts()) {
        EXPECT_EQ(at.uid, uid);
        EXPECT_FALSE(at.committed && at.aborted);
        EXPECT_FALSE(at.recordIdx.empty());
        if (at.committed || at.aborted) {
            EXPECT_GT(at.endSeq, at.beginSeq);
        }
        // attemptAtSeq maps the interval back to the attempt.
        EXPECT_EQ(idx.attemptAtSeq(at.beginSeq), uid);
    }
}

TEST(QueryIndex, BlameChainsNameTheKillerBlock)
{
    query::TraceIndex idx(recordCounterRun());
    std::size_t chained = 0;
    for (const auto &[uid, at] : idx.attempts()) {
        if (!at.aborted)
            continue;
        auto chain = idx.blameChain(uid);
        ASSERT_FALSE(chain.empty());
        EXPECT_EQ(chain.front().uid, uid);
        EXPECT_EQ(chain.front().cause, at.abortCause);
        if (at.blameBlock != 0) {
            EXPECT_EQ(chain.front().block, blockAddr(kCounter));
            ++chained;
        }
        // A non-aborted attempt has nothing to blame.
        if (chain.front().winnerUid != 0) {
            const query::Attempt *w = idx.attempt(chain.front().winnerUid);
            ASSERT_NE(w, nullptr);
            EXPECT_NE(w->uid, uid);
        }
    }
    // The contended counter aborts with the counter block to blame at
    // least once in 200 racing increments.
    EXPECT_GT(chained, 0u);
}

TEST(QueryIndex, CommitDiffReplaysTheRepairedIncrement)
{
    query::TraceIndex idx(recordCounterRun());
    std::size_t diffs = 0;
    for (const auto &[uid, at] : idx.attempts()) {
        if (!at.committed || at.repairs == 0)
            continue;
        auto d = idx.commitDiff(at.endSeq);
        ASSERT_TRUE(d.has_value());
        ASSERT_EQ(d->size(), at.repairs);
        for (const query::RepairDelta &delta : *d) {
            // The counter increment: before + 1, symbolically tagged.
            EXPECT_EQ(delta.word, wordAddr(kCounter));
            EXPECT_EQ(delta.after, delta.before + 1);
            EXPECT_TRUE(delta.symbolic);
            EXPECT_EQ(delta.sym.delta, 1);
        }
        ++diffs;
    }
    EXPECT_GT(diffs, 0u);
    // A seq outside every committed attempt has no diff.
    EXPECT_FALSE(idx.commitDiff(~std::uint64_t{0} - 1).has_value());
}

TEST(QueryIndex, AnnotationSpansAnchorAttempts)
{
    query::TraceIndex idx(recordCounterRun(/*annotate=*/true));

    // Hit: every core opened a kPhaseMark span and closed it at its
    // second mark.
    auto spans = idx.spansForMark(kPhaseMark);
    ASSERT_EQ(spans.size(), kThreads);
    for (const query::AnnotationSpan &s : spans)
        EXPECT_LT(s.startSeq, s.endSeq);
    // Every attempt began inside a kPhaseMark span (the second mark
    // fires after the loop, before the barrier).
    for (const auto &[uid, at] : idx.attempts()) {
        ASSERT_TRUE(at.annotation.has_value());
        EXPECT_EQ(*at.annotation, kPhaseMark);
    }
    // abortsUnderMark partitions exactly the aborted attempts.
    query::TraceStats st = idx.stats();
    EXPECT_EQ(idx.abortsUnderMark(kPhaseMark).size(), st.aborts);

    // Miss: an unknown mark matches nothing.
    EXPECT_TRUE(idx.spansForMark(0xDEAD).empty());
    EXPECT_TRUE(idx.abortsUnderMark(0xDEAD).empty());
}

TEST(QueryReplay, RecordedCounterRunReenactsOffline)
{
    std::vector<trace::Record> recs = recordCounterRun();
    query::ReplayResult rep = query::replayValidate(recs);
    EXPECT_TRUE(rep.report.ok()) << rep.report.summary();
    EXPECT_GT(rep.report.commitsChecked, 0u);
    EXPECT_GT(rep.report.repairsChecked, 0u);
    // The complete stream reveals every word before it is needed.
    EXPECT_EQ(rep.unknownReads, 0u);
}

// ---------------------------------------------------------------------
// What-if reenactment
// ---------------------------------------------------------------------

TEST(WhatIf, NoChangeIsBitIdenticalAndReachesNothing)
{
    api::WhatIfResult w = api::runWhatIf(whatIfBase(), {});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Nothing);
    EXPECT_TRUE(w.bitIdentical);
    EXPECT_FALSE(w.diverged);
    EXPECT_EQ(w.firstReachableSeq, trace::kSeqUnreached);
    EXPECT_TRUE(w.reachHeld);
    EXPECT_TRUE(w.blockDeltas.empty());
    // The variant is the recorded stream, and it reenacts.
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
}

TEST(WhatIf, ConflictKnobDivergesAtOrAfterTheFrontier)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"backoff", "exp"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Conflicts);
    // The contended service recording must have a first interaction
    // after its first record, else the soundness claim below is
    // vacuous.
    ASSERT_NE(w.firstReachableSeq, trace::kSeqUnreached);
    EXPECT_GT(w.firstReachableSeq, w.recorded.front().seq);
    EXPECT_LE(w.firstReachableSeq, w.recorded.back().seq);
    // Reach soundness: backoff only acts where attempts interact, so
    // nothing before the first interaction may move.
    EXPECT_TRUE(w.reachHeld);
    if (w.diverged) {
        EXPECT_GE(w.firstDivergentSeq, w.firstReachableSeq);
    }
    // The variant stream is a coherent history.
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
    // Both runs were real, audited runs.
    EXPECT_TRUE(w.baseResult.validation.ok);
    EXPECT_TRUE(w.variantResult.validation.ok);
    EXPECT_TRUE(w.baseResult.reenact.ok());
    EXPECT_TRUE(w.variantResult.reenact.ok());
}

TEST(WhatIf, LongRunCapturesTheWholeStream)
{
    // The configuration of `retcon-query whatif --scale 1.5` (ctest
    // query_whatif_long): one shard, more than 65,536 records. The
    // capture must be the complete stream; a window that starts
    // mid-run fails the reach proof for no real reason.
    api::RunConfig base;
    base.workload = "service";
    base.nthreads = 8;
    base.scale = 1.5;
    api::WhatIfResult w = api::runWhatIf(base, {{"backoff", "exp"}});
    ASSERT_TRUE(w.ok) << w.error;
    ASSERT_GT(w.recorded.size(), std::size_t{1} << 16);
    EXPECT_EQ(w.recorded.size(), w.baseResult.traceEvents);
    EXPECT_EQ(w.variant.size(), w.variantResult.traceEvents);
    EXPECT_EQ(w.recorded.front().seq, 1u);
    EXPECT_EQ(w.recorded.back().seq, w.recorded.size());
    EXPECT_TRUE(w.reachHeld);
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
}

TEST(WhatIf, EverythingClassKnobReachesTheWholeStream)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"seed", "2"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Everything);
    // Everything is reachable, from the first record on...
    EXPECT_EQ(w.firstReachableSeq, w.recorded.front().seq);
    // ...and a different seed genuinely diverges.
    EXPECT_TRUE(w.diverged);
    EXPECT_GE(w.firstDivergentSeq, w.recorded.front().seq);
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
}

TEST(WhatIf, RepairFaultDivergesAtTheFirstRepair)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"faultInjectRepairXor", "1"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Repairs);
    // The contended recording repairs, so the bound is a real record.
    ASSERT_NE(w.firstReachableSeq, trace::kSeqUnreached);
    EXPECT_TRUE(w.diverged);
    EXPECT_TRUE(w.reachHeld);
    // The first corrupted value is the first repair record itself.
    EXPECT_EQ(w.firstDivergentSeq, w.firstReachableSeq);
    // Both validators catch the corrupted repairs: the offline replay
    // of the variant and the live audit of the variant run.
    EXPECT_FALSE(w.reenact.report.ok());
    EXPECT_FALSE(w.variantResult.reenact.ok());
}

TEST(WhatIf, BadKnobIsRejected)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"warp-factor", "9"}});
    EXPECT_FALSE(w.ok);
    EXPECT_NE(w.error.find("warp-factor"), std::string::npos);

    api::RunConfig cfg;
    EXPECT_FALSE(api::applyKnob(cfg, "backoff", "sideways"));
    EXPECT_FALSE(api::applyKnob(cfg, "nthreads", "0"));
    EXPECT_TRUE(api::applyKnob(cfg, "backoff", "exp"));
    EXPECT_EQ(cfg.tm.backoff.policy, htm::BackoffPolicy::ExpCapped);
}
