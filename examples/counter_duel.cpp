/**
 * @file
 * Figure 2 as a runnable example: two processors repeatedly increment
 * one shared counter under four conflict-handling schemes, with a
 * provenance sink printing the first records of each run so the
 * mechanisms are visible (RETCON's repair, DATM's forwarding and
 * cycle abort, eager aborts, lazy committer-wins); eager's stalls show
 * in the NACK count printed after each run. Exits 1 unless every
 * scheme ends with the counter at 12.
 */

#include <cstdio>

#include "exec/cluster.hpp"
#include "trace/sink.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x2000;

Task<TxValue>
twoIncrements(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    co_await tx.store(kCounter, tx.add(v, 1));
    co_await tx.work(30);
    TxValue w = co_await tx.load(kCounter);
    co_await tx.store(kCounter, tx.add(w, 1));
    co_return w;
}

Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < 3; ++i)
        co_await ctx.txn([](Tx &tx) { return twoIncrements(tx); });
    co_await ctx.barrier();
}

/** Prints the first kShown provenance records of a run. */
class TimelinePrinter final : public trace::TraceSink
{
  public:
    static constexpr int kShown = 24;

    void
    onEvent(const trace::Record &r) override
    {
        if (_shown++ < kShown)
            std::printf("  cyc %5llu  p%u  %-12s addr=0x%llx a=%llu\n",
                        (unsigned long long)r.cycle, r.core,
                        trace::eventKindName(r.kind),
                        (unsigned long long)r.addr,
                        (unsigned long long)r.a);
    }

  private:
    int _shown = 0;
};

} // namespace

int
main()
{
    bool ok = true;
    for (auto mode : {htm::TMMode::Retcon, htm::TMMode::DATM,
                      htm::TMMode::Eager, htm::TMMode::Lazy}) {
        std::printf("=== %s ===\n", htm::tmModeName(mode));
        TimelinePrinter printer;
        ClusterConfig cfg;
        cfg.numThreads = 2;
        cfg.tm.mode = mode;
        Cluster cluster(cfg);
        cluster.setTraceSink(&printer);
        cluster.machine().predictor().observeConflict(
            blockAddr(kCounter));
        cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
        Cycle end = cluster.run();
        Word final_value = cluster.memory().readWord(kCounter);
        const htm::MachineStats &ms = cluster.machine().stats();
        std::printf("  final=%llu (want 12) in %llu cycles, "
                    "%llu aborts, %llu nacks\n",
                    (unsigned long long)final_value,
                    (unsigned long long)end,
                    (unsigned long long)ms.aborts,
                    (unsigned long long)ms.nacks);
        ok = ok && final_value == 12;
    }
    return ok ? 0 : 1;
}
