/**
 * @file
 * Quickstart: simulate 8 cores incrementing a shared counter inside
 * transactions, under the baseline eager HTM and under RETCON, and
 * print the cycle counts. Demonstrates the whole public API surface:
 * Cluster construction, coroutine thread programs, transactional
 * load/add/store with symbolic tracking, and statistics.
 *
 * Expected output: both runs produce the correct final counter value
 * (the program exits 1 otherwise); RETCON commits with far fewer
 * aborts and fewer total cycles because remote increments are
 * repaired at commit instead of causing aborts.
 */

#include <cstdio>

#include "exec/cluster.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIncrementsPerThread = 100;

/** One transaction: counter += 1, tracked symbolically. */
Task<TxValue>
increment(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

/** Per-thread program: increment, then do some private work. */
Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kIncrementsPerThread; ++i) {
        co_await ctx.txn([](Tx &tx) { return increment(tx); });
        co_await ctx.work(50);
    }
    co_await ctx.barrier();
}

/** Run one mode; clears @p ok unless the counter ends at 800. */
Cycle
runMode(htm::TMMode mode, const char *label, bool &ok)
{
    ClusterConfig cfg;
    cfg.numThreads = 8;
    cfg.tm.mode = mode;
    Cluster cluster(cfg);
    // Pre-train the conflict predictor for the counter block, as a
    // warmed-up system would be.
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    Cycle cycles = cluster.run();
    auto stats = cluster.aggregateStats();
    Word counter = cluster.memory().readWord(kCounter);
    ok = ok && counter == cfg.numThreads * kIncrementsPerThread;
    std::printf("%-8s counter=%llu cycles=%llu commits=%llu aborts=%llu\n",
                label, (unsigned long long)counter,
                (unsigned long long)cycles,
                (unsigned long long)stats.commits,
                (unsigned long long)stats.aborts);
    return cycles;
}

} // namespace

int
main()
{
    std::printf("8 threads x %d transactional increments of one shared "
                "counter\n",
                kIncrementsPerThread);
    bool ok = true;
    Cycle eager = runMode(htm::TMMode::Eager, "eager", ok);
    Cycle rc = runMode(htm::TMMode::Retcon, "retcon", ok);
    std::printf("RETCON speedup over eager: %.2fx\n",
                double(eager) / double(rc));
    return ok ? 0 : 1;
}
