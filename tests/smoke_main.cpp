// Quick end-to-end smoke driver (not a gtest). Phase 1: N threads
// increment a shared counter K times each inside transactions, under
// several modes. Phase 2: the service workload (Zipfian queue +
// hashtable request mix) across event-queue shard counts. Every run
// has the trace/reenact audit oracle attached: each commit the machine
// performs must be independently re-derivable from its recorded
// symbolic log (zero mismatches required).
#include <cstdio>

#include "api/runner.hpp"
#include "exec/cluster.hpp"
#include "trace/reenact.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIters = 50;

Task<TxValue>
incrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kIters; ++i) {
        co_await ctx.txn(
            [](Tx &tx) { return incrementBody(tx); });
        co_await ctx.work(20);
    }
    co_await ctx.barrier();
}

} // namespace

int
main()
{
    std::uint64_t retconRepairs = 0;
    std::uint64_t datmChains = 0;
    for (htm::TMMode mode :
         {htm::TMMode::Serial, htm::TMMode::Eager, htm::TMMode::Lazy,
          htm::TMMode::LazyVB, htm::TMMode::Retcon, htm::TMMode::DATM}) {
        ClusterConfig cfg;
        cfg.numThreads = 8;
        cfg.tm.mode = mode;
        // Pre-train the predictor so RETCON tracks the counter block.
        Cluster cluster(cfg);
        cluster.machine().predictor().observeConflict(
            blockAddr(kCounter));
        trace::ReenactmentValidator validator(
            [&cluster](Addr a) { return cluster.memory().readWord(a); });
        cluster.setTraceSink(&validator);
        cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
        Cycle end = cluster.run();
        Word final = cluster.memory().readWord(kCounter);
        auto agg = cluster.aggregateStats();
        const auto &audit = validator.report();
        std::printf(
            "%-8s final=%llu (want %d) cycles=%llu commits=%llu "
            "aborts=%llu audit-repairs=%llu audit-fwd=%llu/%llu "
            "audit-mismatch=%llu\n",
            htm::tmModeName(mode), (unsigned long long)final,
            8 * kIters, (unsigned long long)end,
            (unsigned long long)agg.commits,
            (unsigned long long)agg.aborts,
            (unsigned long long)audit.repairsChecked,
            (unsigned long long)audit.forwardedCommitsChecked,
            (unsigned long long)audit.forwardedCommitsSkipped,
            (unsigned long long)audit.mismatches);
        if (final != Word(8 * kIters))
            return 1;
        if (!audit.ok() || audit.commitsChecked == 0) {
            std::printf("reenactment audit failed: %s\n",
                        audit.summary().c_str());
            return 1;
        }
        if (audit.forwardedCommitsSkipped != 0) {
            std::printf("audit skipped %llu forwarding chains\n",
                        (unsigned long long)
                            audit.forwardedCommitsSkipped);
            return 1;
        }
        if (mode == htm::TMMode::Retcon)
            retconRepairs = audit.repairsChecked;
        if (mode == htm::TMMode::DATM)
            datmChains = audit.forwardedCommitsChecked;
    }
    if (retconRepairs == 0) {
        std::printf("RETCON run repaired nothing — audit was vacuous\n");
        return 1;
    }
    if (datmChains == 0) {
        std::printf("DATM run forwarded nothing — the chain audit was "
                    "vacuous\n");
        return 1;
    }

    // Phase 2: the service workload across shard counts. Shard count
    // must not perturb committed state (the audit re-derives every
    // commit either way), and RETCON must be repairing the Zipfian-hot
    // counters, not just committing eagerly.
    for (htm::TMMode mode :
         {htm::TMMode::Eager, htm::TMMode::LazyVB, htm::TMMode::Retcon}) {
        for (unsigned shards : {1u, 4u}) {
            api::RunConfig cfg;
            cfg.workload = "service";
            cfg.nthreads = 8;
            cfg.scale = 0.05;
            cfg.shards = shards;
            cfg.tm.mode = mode;
            cfg.trace.enabled = true;
            api::RunResult r = api::runOnce(cfg);
            std::uint64_t repairs = 0;
            for (const auto &s : r.shards)
                repairs += s.repairs;
            std::printf("service  %-8s shards=%u cycles=%llu "
                        "commits=%llu repairs=%llu mismatch=%llu\n",
                        htm::tmModeName(mode), shards,
                        (unsigned long long)r.cycles,
                        (unsigned long long)r.coreStats.commits,
                        (unsigned long long)repairs,
                        (unsigned long long)r.reenact.mismatches);
            if (!r.validation.ok) {
                std::printf("service validation failed: %s\n",
                            r.validation.note.c_str());
                return 1;
            }
            if (!r.reenact.ok() || r.reenact.commitsChecked == 0) {
                std::printf("service reenactment audit failed: %s\n",
                            r.reenact.summary().c_str());
                return 1;
            }
            if (mode == htm::TMMode::Retcon && repairs == 0) {
                std::printf("service under RETCON repaired nothing — "
                            "audit was vacuous\n");
                return 1;
            }
        }
    }
    std::printf("smoke OK\n");
    return 0;
}
