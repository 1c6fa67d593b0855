/**
 * @file
 * The hashtable size-field scenario (§3): threads insert distinct keys
 * into a shared resizable hashtable. Every insert increments the
 * shared size field — a conceptually non-conflicting update that
 * serializes the baseline HTM and that RETCON repairs symbolically at
 * commit. Uses the ds::SimHashtable directly to show how simulated
 * data structures are driven from coroutine transaction bodies.
 * Exits 1 unless every mode ends with all 512 keys in the table.
 */

#include <cstdio>

#include "ds/hashtable.hpp"
#include "exec/cluster.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

ds::SimHashtable table;
std::unique_ptr<ds::SimAllocator> alloc;
constexpr int kInsertsPerThread = 64;

Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kInsertsPerThread; ++i) {
        Word key =
            ds::hashKey(ctx.tid() * kInsertsPerThread + i + 1);
        co_await ctx.txn([&ctx, key](Tx &tx) {
            return table.insert(tx, ctx.tid(), key, key);
        });
        co_await ctx.work(400); // Per-item application work.
    }
    co_await ctx.barrier();
}

} // namespace

int
main()
{
    std::printf("8 threads x %d inserts into one resizable hashtable\n",
                kInsertsPerThread);
    bool ok = true;
    for (auto mode : {htm::TMMode::Eager, htm::TMMode::Retcon}) {
        ClusterConfig cfg;
        cfg.numThreads = 8;
        cfg.tm.mode = mode;
        Cluster cluster(cfg);
        alloc = std::make_unique<ds::SimAllocator>(0x10000000, 4 << 20,
                                                   cfg.numThreads);
        table = ds::SimHashtable::create(cluster.memory(), *alloc, 256,
                                         /*resizable=*/true);
        cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
        Cycle cycles = cluster.run();
        auto stats = cluster.aggregateStats();
        auto size = table.hostSize(cluster.memory());
        ok = ok && size == cfg.numThreads * kInsertsPerThread;
        std::printf("%-8s size=%llu cycles=%llu aborts=%llu\n",
                    htm::tmModeName(mode), (unsigned long long)size,
                    (unsigned long long)cycles,
                    (unsigned long long)stats.aborts);
    }
    return ok ? 0 : 1;
}
