/**
 * @file
 * Cluster-level tests for parked conflict retries: a core whose
 * transactional access got a conflict NACK parks its wake in the event
 * kernel, which fires the retries without the core until a holder
 * leaves the block's touch entry (exec::Core, htm::TMMachine::
 * awaitRelease, ShardedEventQueue::park). Each test pins a cycle or a
 * count to its closed form, and also requires the run to equal the
 * same run with parking off (no wait-release handler: every retry
 * polls through the core and the machine).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/cluster.hpp"
#include "trace/sink.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Cycle kRetry = 25;              ///< htm kNackRetryCycles.
constexpr std::uint64_t kZombie = 100000; ///< exec kZombieOpLimit.
constexpr Addr kX = 0x10000;              ///< The contested block.
constexpr Addr kY = 0x20000;
constexpr Addr kRoot = 0x30000;           ///< RETCON symbolic input.
constexpr Addr kSpill = 0x40000;          ///< SSB fill targets.

/** Cycles a body marked, in order, over all its attempts. */
using Marks = std::vector<Cycle>;

/** The older core's transaction: write kX, hold it @p hold cycles,
 *  then (if @p hold2) write kY and hold that @p hold2 more. */
Task<TxValue>
holder(Tx &tx, Cycle hold, Cycle hold2)
{
    co_await tx.store(kX, TxValue(Word(1)));
    co_await tx.work(hold);
    if (hold2) {
        co_await tx.store(kY, TxValue(Word(2)));
        co_await tx.work(hold2);
    }
    co_return TxValue(Word(0));
}

/** Mark the clock, then load kX. */
Task<TxValue>
markThenLoad(Tx &tx, const SimClock *clk, Marks *marks)
{
    marks->push_back(clk->now());
    co_return co_await tx.load(kX);
}

/** Mark, store kY, mark, load kX. */
Task<TxValue>
storeThenLoad(Tx &tx, const SimClock *clk, Marks *marks)
{
    marks->push_back(clk->now());
    co_await tx.store(kY, TxValue(Word(7)));
    marks->push_back(clk->now());
    co_return co_await tx.load(kX);
}

/** RETCON: fill the SSB with symbolic stores of [kRoot] + i, mark,
 *  then store one more symbolic value into kX (SSB full). */
Task<TxValue>
fillSsbThenStore(Tx &tx, const SimClock *clk, Marks *marks)
{
    TxValue v = co_await tx.load(kRoot);
    for (unsigned i = 0; i < htm::kSsbEntries; ++i)
        co_await tx.store(kSpill + i * kWordBytes, tx.add(v, i));
    marks->push_back(clk->now());
    co_await tx.store(kX, tx.add(v, 100));
    co_return TxValue(Word(0));
}

/** What a run leaves behind, compared between parked and polled. */
struct Outcome {
    Cycle end = 0;
    std::uint64_t events = 0;
    std::uint64_t nacks = 0;
    std::uint64_t aborts = 0;
    std::uint64_t commits = 0;
    std::vector<double> breakdown;
    std::vector<trace::Record> records;
    Marks marks;

    bool
    operator==(const Outcome &o) const
    {
        return end == o.end && events == o.events && nacks == o.nacks &&
               aborts == o.aborts && commits == o.commits &&
               breakdown == o.breakdown && marks == o.marks &&
               std::equal(records.begin(), records.end(),
                          o.records.begin(), o.records.end(),
                          trace::recordsIdentical);
    }

    /** Cycle of the @p n-th record of @p kind from @p core. */
    Cycle
    at(CoreId core, trace::EventKind kind, unsigned n = 0) const
    {
        for (const trace::Record &r : records)
            if (r.core == core && r.kind == kind && n-- == 0)
                return r.cycle;
        ADD_FAILURE() << "no such record";
        return 0;
    }

    unsigned
    count(CoreId core, trace::EventKind kind, Addr addr) const
    {
        return static_cast<unsigned>(
            std::count_if(records.begin(), records.end(),
                          [&](const trace::Record &r) {
                              return r.core == core && r.kind == kind &&
                                     r.addr == addr;
                          }));
    }
};

using Body = Task<TxValue> (*)(Tx &, const SimClock *, Marks *);

/**
 * Core 0 runs holder(@p hold, @p hold2) from cycle 0 (so it is the
 * older transaction); core 1 works 10 cycles, then runs @p body once.
 * With @p parking false the cluster has no wait-release handler.
 */
Outcome
runPair(htm::TMMode mode, Cycle hold, Cycle hold2, Body body, bool parking,
        Cycle maxCycles = 0)
{
    ClusterConfig cfg;
    cfg.numThreads = 2;
    cfg.tm.mode = mode;
    if (maxCycles)
        cfg.maxCycles = maxCycles;
    Cluster cl(cfg);
    if (!parking)
        cl.machine().setWaitReleaseHandler(nullptr);
    if (mode == htm::TMMode::Retcon)
        cl.machine().predictor().observeConflict(blockAddr(kRoot));
    Outcome out;
    trace::CaptureSink sink(out.records);
    cl.setTraceSink(&sink);
    const SimClock *clk = &cl.eventQueue();
    Marks *marks = &out.marks;
    cl.start([=](WorkerCtx &ctx) -> Task<void> {
        if (ctx.tid() == 0) {
            co_await ctx.txn([=](Tx &tx) { return holder(tx, hold, hold2); });
        } else {
            co_await ctx.work(10);
            co_await ctx.txn(
                [=](Tx &tx) { return body(tx, clk, marks); });
        }
    });
    out.end = cl.run();
    out.events = cl.eventQueue().executed();
    const htm::MachineStats &ms = cl.machine().stats();
    out.nacks = ms.nacks;
    out.aborts = ms.aborts;
    out.commits = ms.commits;
    for (CoreId c = 0; c < 2; ++c) {
        const TimeBreakdown &b = cl.core(c).breakdown();
        out.breakdown.insert(out.breakdown.end(),
                             {b.busy, b.conflict, b.barrier, b.other});
    }
    return out;
}

/** Retries after a NACK at @p from that still see a holder that
 *  leaves at @p until, plus that first NACK (no same-cycle tie). */
std::uint64_t
nacksUntil(Cycle from, Cycle until)
{
    EXPECT_NE((until - from) % kRetry, 0u) << "same-cycle tie";
    return (until - from + kRetry - 1) / kRetry;
}

} // namespace

TEST(ParkedRetry, ResumesAtTheFirstRetryAfterTheHolderCommits)
{
    // Core 1's load of kX NACKs on older core 0's write at Tn and is
    // parked; core 0 commits at Tc. The load succeeds at the first
    // 25-cycle retry point after Tc, and every retry before it NACKed.
    // Fails if clearTouches stops releasing waiters: the load would
    // stay parked until the zombie bound.
    Outcome run = runPair(htm::TMMode::Eager, 600, 0, markThenLoad, true);
    ASSERT_EQ(run.marks.size(), 1u);
    Cycle tn = run.marks[0] + 1; // The load's 1-cycle charge.
    Cycle tc = run.at(0, trace::EventKind::Commit);
    std::uint64_t k = nacksUntil(tn, tc);
    EXPECT_EQ(run.at(1, trace::EventKind::Load), tn + k * kRetry);
    EXPECT_EQ(run.nacks, k);
    EXPECT_GT(k, 10u);
    EXPECT_EQ(run.aborts, 0u);
    EXPECT_EQ(run.commits, 2u);
    EXPECT_EQ(run, runPair(htm::TMMode::Eager, 600, 0, markThenLoad, false));
}

TEST(ParkedRetry, ZombieBoundAbortsAtTheExactRetry)
{
    // Core 0 holds kX past kZombie retries. Core 1's load is its
    // attempt's first memory op, so retry kZombie is op kZombie + 1 and
    // aborts the attempt as Zombie at Tn + kZombie * 25, after exactly
    // kZombie NACKs. The restarted attempt (begin 2 cycles, load
    // charge 1) waits again until core 0 commits.
    Cycle hold = kZombie * kRetry + 500;
    Outcome run = runPair(htm::TMMode::Eager, hold, 0, markThenLoad, true);
    ASSERT_EQ(run.marks.size(), 2u);
    Cycle tn = run.marks[0] + 1;
    Cycle tz = run.at(1, trace::EventKind::Abort);
    EXPECT_EQ(tz, tn + kZombie * kRetry);
    EXPECT_EQ(run.marks[1], tz + 2);
    Cycle tc = run.at(0, trace::EventKind::Commit);
    EXPECT_EQ(run.nacks, kZombie + nacksUntil(run.marks[1] + 1, tc));
    EXPECT_EQ(run.aborts, 1u);
    const auto &recs = run.records;
    auto abort = std::find_if(recs.begin(), recs.end(), [](const auto &r) {
        return r.kind == trace::EventKind::Abort;
    });
    EXPECT_EQ(abort->aux, static_cast<std::uint8_t>(htm::AbortCause::Zombie));
    EXPECT_EQ(run, runPair(htm::TMMode::Eager, hold, 0, markThenLoad, false));
}

TEST(ParkedRetry, RemoteAbortOfAParkedCoreKeepsItsNacks)
{
    // Core 1 writes kY, then parks on kX. Older core 0 then writes kY
    // and aborts it at Ta: the retries fired while parked stay counted.
    // The restarted attempt NACKs on kY (2 cycles of begin, 1 of store
    // charge) until core 0 commits at Tc.
    Outcome run = runPair(htm::TMMode::Eager, 300, 300, storeThenLoad, true);
    ASSERT_EQ(run.marks.size(), 4u);
    Cycle tn = run.marks[1] + 1;
    Cycle ta = run.at(1, trace::EventKind::Abort);
    EXPECT_EQ(run.marks[2], ta + 2);
    Cycle tc = run.at(0, trace::EventKind::Commit);
    std::uint64_t first = nacksUntil(tn, ta);
    EXPECT_GT(first, 5u);
    EXPECT_EQ(run.nacks, first + nacksUntil(ta + 3, tc));
    EXPECT_EQ(run.aborts, 1u);
    EXPECT_EQ(run.commits, 2u);
    EXPECT_EQ(run,
              runPair(htm::TMMode::Eager, 300, 300, storeThenLoad, false));
}

TEST(ParkedRetry, RunCutAtMaxCyclesKeepsParkedNacks)
{
    // Core 0 holds kX past the 5000-cycle cap: core 1 is still parked
    // when the run stops, and every retry up to the cap is counted.
    constexpr Cycle kCap = 5000;
    Outcome run =
        runPair(htm::TMMode::Eager, 100000, 0, markThenLoad, true, kCap);
    ASSERT_EQ(run.marks.size(), 1u);
    Cycle tn = run.marks[0] + 1;
    EXPECT_EQ(run.nacks, (kCap - tn) / kRetry + 1);
    EXPECT_EQ(run.commits, 0u);
    EXPECT_EQ(run, runPair(htm::TMMode::Eager, 100000, 0, markThenLoad,
                           false, kCap));
}

TEST(ParkedRetry, SsbFullSymbolicStoreKeepsPolling)
{
    // With the SSB full, RETCON stores a symbolic value eagerly and pins
    // its root first, so each retry of the NACKed store emits a Pin:
    // that retry is not pure and is never parked. One Pin per NACK plus
    // one for the store that finally succeeds.
    Outcome run = runPair(htm::TMMode::Retcon, 600, 0, fillSsbThenStore, true);
    ASSERT_EQ(run.marks.size(), 1u);
    Cycle tn = run.marks[0] + 1;
    Cycle tc = run.at(0, trace::EventKind::Commit);
    std::uint64_t k = nacksUntil(tn, tc);
    EXPECT_GT(k, 10u);
    EXPECT_EQ(run.nacks, k);
    EXPECT_EQ(run.count(1, trace::EventKind::Pin, kRoot), k + 1);
    EXPECT_EQ(run.commits, 2u);
    EXPECT_EQ(run,
              runPair(htm::TMMode::Retcon, 600, 0, fillSsbThenStore, false));
}
