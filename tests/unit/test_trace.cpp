/**
 * @file
 * Tests for the provenance & repair-audit subsystem (src/trace):
 * the refusal of ring retention, the disabled-sink fast path (identical
 * simulated timing with tracing on/off), reenactment agreement on the
 * contended shared-counter workload in every TM mode, detection of
 * deliberately corrupted repairs, and the JSON view's per-kind fields.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "api/runner.hpp"
#include "exec/cluster.hpp"
#include "trace/export.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

#include "counter_harness.hpp"

using namespace retcon;
using namespace retcon::exec;
using namespace retcon::test;

namespace {

/** Branches on the symbolic counter so constraints get recorded. */
Task<TxValue>
boundedIncrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    if (tx.cmp(v, rtc::CmpOp::LT, 1'000'000))
        v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

struct RunOutput {
    Cycle cycles = 0;
    Word counter = 0;
    trace::ReenactReport report;
};

RunOutput
runCounter(htm::TMMode mode, bool traced, Word fault_xor = 0,
           bool bounded = false, trace::CaptureSink *capture = nullptr,
           Word fwd_fault_xor = 0)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.tm.mode = mode;
    cfg.tm.faultInjectRepairXor = fault_xor;
    cfg.tm.faultInjectForwardXor = fwd_fault_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    trace::MultiSink sink;
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    if (traced) {
        sink.add(&validator);
        sink.add(capture);
        cluster.setTraceSink(&sink);
    }

    cluster.start([bounded](WorkerCtx &ctx) {
        return threadMain(ctx, bounded ? boundedIncrementBody
                                       : incrementBody);
    });
    RunOutput out;
    out.cycles = cluster.run();
    out.counter = cluster.memory().readWord(kCounter);
    out.report = validator.report();
    return out;
}

/** The `retcon-query dump` rendering of records: one JSON object per
 *  line. */
std::string
jsonLines(const std::vector<trace::Record> &recs)
{
    std::ostringstream os;
    for (const trace::Record &r : recs) {
        trace::writeJsonRecord(r, os);
        os << '\n';
    }
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// No rings: records leave a run only through live downstreams
// ---------------------------------------------------------------------

TEST(TraceRings, NonzeroRingCapacityFailsLoudly)
{
    EXPECT_DEATH(trace::ShardMux(
                     1, [](CoreId) { return 0u; }, /*ring_capacity=*/16),
                 "keeps no rings");
    api::RunConfig cfg;
    cfg.trace.enabled = true;
    cfg.trace.ringCapacity = 16;
    EXPECT_DEATH(api::runOnce(cfg), "keep no trace rings");
}

// ---------------------------------------------------------------------
// Disabled fast path
// ---------------------------------------------------------------------

TEST(TraceDisabled, TimingIdenticalWithAndWithoutSink)
{
    // Tracing must observe, never perturb: the deterministic simulation
    // must produce cycle-identical runs with the sink on and off.
    for (htm::TMMode mode :
         {htm::TMMode::Eager, htm::TMMode::Retcon, htm::TMMode::Lazy}) {
        RunOutput off = runCounter(mode, false);
        RunOutput on = runCounter(mode, true);
        EXPECT_EQ(off.cycles, on.cycles) << htm::tmModeName(mode);
        EXPECT_EQ(off.counter, on.counter) << htm::tmModeName(mode);
    }
}

TEST(TraceDisabled, NoSinkReportsNothing)
{
    RunOutput off = runCounter(htm::TMMode::Retcon, false);
    EXPECT_EQ(off.counter, Word(kThreads * kIters));
    EXPECT_EQ(off.report.commitsChecked, 0u);
    EXPECT_EQ(off.report.repairsChecked, 0u);
}

// ---------------------------------------------------------------------
// Reenactment agreement
// ---------------------------------------------------------------------

TEST(Reenactment, SharedCounterAgreesInEveryMode)
{
    for (htm::TMMode mode :
         {htm::TMMode::Serial, htm::TMMode::Eager, htm::TMMode::Lazy,
          htm::TMMode::LazyVB, htm::TMMode::Retcon, htm::TMMode::DATM}) {
        RunOutput out = runCounter(mode, true);
        EXPECT_EQ(out.counter, Word(kThreads * kIters))
            << htm::tmModeName(mode);
        EXPECT_EQ(out.report.mismatches, 0u) << htm::tmModeName(mode);
        EXPECT_EQ(out.report.commitsChecked,
                  std::uint64_t(kThreads * kIters))
            << htm::tmModeName(mode);
    }
}

TEST(Reenactment, RetconRepairsAreChecked)
{
    RunOutput out = runCounter(htm::TMMode::Retcon, true);
    // Contended symbolic counter: commits must actually repair.
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_EQ(out.report.mismatches, 0u);
}

TEST(Reenactment, LazyVbPinsAreChecked)
{
    // lazy-vb degrades every tracked word to value validation: the
    // audit must re-verify those equality pins at commit.
    RunOutput out = runCounter(htm::TMMode::LazyVB, true);
    EXPECT_GT(out.report.pinsChecked, 0u);
    EXPECT_EQ(out.report.mismatches, 0u);
}

TEST(Reenactment, BranchConstraintsAreReplayed)
{
    RunOutput out =
        runCounter(htm::TMMode::Retcon, true, 0, /*bounded=*/true);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    EXPECT_GT(out.report.constraintsChecked, 0u);
    EXPECT_EQ(out.report.mismatches, 0u);
}

TEST(Reenactment, CorruptedRepairIsFlagged)
{
    // Fault-inject a bit flip into every repaired commit store: the
    // machine happily commits, so only the reenactment oracle stands
    // between the bug and silently corrupted committed state.
    RunOutput out = runCounter(htm::TMMode::Retcon, true, /*xor=*/0x10);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::RepairValue);
    // expected ^ got must show exactly the injected fault.
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x10));
}

TEST(Reenactment, CorruptedLazyDrainIsFlagged)
{
    // The lazy write-buffer drain is also a commit-time repair path;
    // fault injection must be observable by the oracle there too.
    RunOutput out = runCounter(htm::TMMode::Lazy, true, /*xor=*/0x4);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
}

// ---------------------------------------------------------------------
// JSON view
// ---------------------------------------------------------------------

TEST(TraceExport, AnnotationMarksSurfaceInTheJsonView)
{
    // WorkerCtx::annotate stamps a UserMark record into the stream;
    // the JSON view must surface the mark id in a dedicated
    // `annotation` field so consumers can correlate workload phases
    // with machine events (docs/trace-format.md).
    ClusterConfig cfg;
    cfg.numThreads = 2;
    std::vector<trace::Record> recs;
    trace::CaptureSink capture(recs);
    Cluster cluster(cfg);
    cluster.setTraceSink(&capture);
    cluster.start([](WorkerCtx &ctx) -> Task<void> {
        ctx.annotate(0xBEE5 + ctx.tid());
        co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
        ctx.annotate(0xD0CE);
        co_await ctx.barrier();
    });
    cluster.run();

    std::uint64_t marks = 0;
    for (const trace::Record &r : recs)
        marks += r.kind == trace::EventKind::UserMark;
    EXPECT_EQ(marks, 4u); // Two per thread.

    const std::string json = jsonLines(recs);
    EXPECT_NE(json.find("\"kind\":\"mark\""), std::string::npos);
    EXPECT_NE(json.find("\"annotation\":" + std::to_string(0xBEE5)),
              std::string::npos);
    EXPECT_NE(json.find("\"annotation\":" + std::to_string(0xD0CE)),
              std::string::npos);
    // Non-mark records must not carry the field.
    EXPECT_EQ(json.find("\"kind\":\"commit\",\"annotation\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// DATM forwarding visibility
// ---------------------------------------------------------------------

TEST(TraceDatm, ForwardedCommitsCarryTheDatmForwardedFlag)
{
    // Every commit that consumed forwarded data is flagged, and every
    // flagged commit's chain is re-derived by the validator (the
    // Forward records name the producing attempt + store).
    std::vector<trace::Record> recs;
    trace::CaptureSink capture(recs);
    RunOutput out =
        runCounter(htm::TMMode::DATM, true, 0, false, &capture);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    std::uint64_t commits = 0, flagged = 0;
    for (const trace::Record &r : recs) {
        if (r.kind != trace::EventKind::Commit)
            continue;
        ++commits;
        if (r.aux & trace::kCommitAuxDatmForwarded)
            ++flagged;
    }
    EXPECT_EQ(commits, std::uint64_t(kThreads * kIters));
    // The contended counter forwards constantly under DATM.
    EXPECT_GT(flagged, 0u);
    EXPECT_LT(flagged, commits); // Uncontended commits stay unflagged.
    // The flag and the validator agree commit by commit.
    EXPECT_EQ(out.report.forwardedCommitsChecked, flagged);
    EXPECT_EQ(out.report.forwardedCommitsSkipped, 0u);

    // And the flag surfaces in the JSON view.
    const std::string json = jsonLines(recs);
    EXPECT_NE(json.find("\"datm_forwarded\":true"), std::string::npos);
    EXPECT_NE(json.find("\"datm_forwarded\":false"), std::string::npos);
}

TEST(TraceDatm, ForwardingChainsAreReDerived)
{
    // The tentpole guarantee: zero chains skipped, every forwarded
    // read resolved against the producer's logged store — the audit
    // is no longer "sound except on the interesting path".
    RunOutput out = runCounter(htm::TMMode::DATM, true);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.forwardedCommitsChecked, 0u);
    EXPECT_EQ(out.report.forwardedCommitsSkipped, 0u);
    EXPECT_EQ(out.report.mismatches, 0u) << out.report.summary();
}

TEST(TraceDatm, ForwardRecordsNameProducerAndValueId)
{
    std::vector<trace::Record> recs;
    trace::CaptureSink capture(recs);
    runCounter(htm::TMMode::DATM, true, 0, false, &capture);
    std::uint64_t forwards = 0;
    for (const trace::Record &r : recs) {
        if (r.kind != trace::EventKind::Forward)
            continue;
        ++forwards;
        EXPECT_NE(r.b, 0u);   // Producer attempt uid.
        EXPECT_NE(r.vid, 0u); // Producing store's write seq.
        EXPECT_EQ(r.addr % kWordBytes, 0u);
    }
    EXPECT_GT(forwards, 0u);

    // Forward records surface in the JSON view.
    const std::string json = jsonLines(recs);
    EXPECT_NE(json.find("\"kind\":\"forward\""), std::string::npos);
    EXPECT_NE(json.find("\"producer_uid\":"), std::string::npos);
    EXPECT_NE(json.find("\"vid\":"), std::string::npos);
}

TEST(TraceDatm, CorruptedForwardedValueIsFlagged)
{
    // Fault-inject a bit flip into every forwarded value as it is
    // delivered (architectural memory keeps the producer's real
    // value). The machine commits regardless; only the chain
    // re-derivation stands between the bug and silently wrong
    // committed state. Do not assert the final counter here — the
    // injected corruption really does poison the computed sums.
    RunOutput out = runCounter(htm::TMMode::DATM, true, 0, false,
                               nullptr, /*fwd_xor=*/0x20);
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::ForwardValue);
    // expected ^ got must show exactly the injected fault.
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x20));
}

TEST(TraceDatm, CleanModesNeverRecordForwards)
{
    for (htm::TMMode mode :
         {htm::TMMode::Eager, htm::TMMode::Lazy, htm::TMMode::Retcon}) {
        RunOutput out = runCounter(mode, true);
        EXPECT_EQ(out.report.forwardsChecked, 0u)
            << htm::tmModeName(mode);
        EXPECT_EQ(out.report.forwardedCommitsChecked, 0u)
            << htm::tmModeName(mode);
    }
}

// ---------------------------------------------------------------------
// Validator protocol checks on synthetic streams
//
// The machine enforces DATM commit order, so the broken interleavings
// below can only be produced by a buggy machine — which is precisely
// what the audit exists to catch. Feed the validator hand-crafted
// record streams and pin each verdict.
// ---------------------------------------------------------------------

namespace {

trace::Record
rec(trace::EventKind kind, CoreId core, Addr addr = 0, Word a = 0,
    Word b = 0, std::uint8_t aux = 0, std::uint64_t vid = 0)
{
    static std::uint64_t seq = 1;
    trace::Record r;
    r.kind = kind;
    r.core = core;
    r.addr = addr;
    r.a = a;
    r.b = b;
    r.aux = aux;
    r.vid = vid;
    r.seq = seq++;
    return r;
}

trace::ReenactmentValidator
makeValidator()
{
    return trace::ReenactmentValidator([](Addr) { return Word(0); });
}

} // namespace

TEST(TraceDatmProtocol, CleanHandoffValidates)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, /*uid=*/101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, /*uid=*/102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Commit, 0)); // Producer first.
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().mismatches, 0u) << v.report().summary();
    EXPECT_EQ(v.report().forwardsChecked, 1u);
    EXPECT_EQ(v.report().forwardedCommitsChecked, 1u);
    EXPECT_EQ(v.report().forwardedCommitsSkipped, 0u);
}

TEST(TraceDatmProtocol, ConsumerCommitBeforeProducerResolvesIsFlagged)
{
    // The consumer commits while its producer is still in flight:
    // DATM commit order violated, whatever the producer does later.
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().mismatches, 1u);
    ASSERT_FALSE(v.report().samples.empty());
    EXPECT_EQ(v.report().samples[0].what,
              trace::Mismatch::What::ForwardChain);
}

TEST(TraceDatmProtocol, ProducerAbortPoisonsConsumersLinks)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Abort, 0)); // Producer dies...
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded)); // ...consumer not.
    EXPECT_EQ(v.report().mismatches, 1u);
    ASSERT_FALSE(v.report().samples.empty());
    EXPECT_EQ(v.report().samples[0].what,
              trace::Mismatch::What::ForwardChain);
}

TEST(TraceDatmProtocol, ValueIdMismatchBreaksTheChain)
{
    // The Forward names a store the producer's log does not hold
    // (wrong vid): the machine forwarded a value with no matching
    // provenance.
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 12));
    v.onEvent(rec(trace::EventKind::Commit, 0));
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().mismatches, 1u);
    ASSERT_FALSE(v.report().samples.empty());
    EXPECT_EQ(v.report().samples[0].what,
              trace::Mismatch::What::ForwardChain);
}

TEST(TraceDatmProtocol, FlaggedCommitWithoutLinksCountsAsSkipped)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Commit, 0, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().forwardedCommitsSkipped, 1u);
    EXPECT_EQ(v.report().mismatches, 1u);
}

TEST(TraceDatmProtocol, LinksWithoutTheCommitFlagAreFlagged)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Commit, 0));
    v.onEvent(rec(trace::EventKind::Commit, 1)); // Flag lost.
    EXPECT_EQ(v.report().mismatches, 1u);
    // The links are still scored after the structural flag.
    EXPECT_EQ(v.report().forwardsChecked, 1u);
}

TEST(TraceDatm, NonDatmCommitsNeverCarryTheFlag)
{
    std::vector<trace::Record> recs;
    trace::CaptureSink capture(recs);
    runCounter(htm::TMMode::Retcon, true, 0, false, &capture);
    for (const trace::Record &r : recs) {
        if (r.kind == trace::EventKind::Commit) {
            EXPECT_EQ(r.aux & trace::kCommitAuxDatmForwarded, 0);
        }
    }
}
