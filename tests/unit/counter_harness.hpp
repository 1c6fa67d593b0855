/**
 * @file
 * The contended shared-counter workload the unit tests run: kThreads
 * cores each commit kIters increments of one word, with 20 cycles of
 * non-transactional work after each. Each test file keeps its own run
 * function (cluster config, sinks, what it checks); this header holds
 * only the workload itself.
 */

#ifndef RETCON_TESTS_UNIT_COUNTER_HARNESS_HPP
#define RETCON_TESTS_UNIT_COUNTER_HARNESS_HPP

#include "exec/core.hpp"

namespace retcon::test {

using exec::Task;
using exec::Tx;
using exec::TxValue;
using exec::WorkerCtx;

inline constexpr Addr kCounter = 0x1000;
inline constexpr int kIters = 25;
inline constexpr unsigned kThreads = 8;

/** One transactional increment of kCounter. */
inline Task<TxValue>
incrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

using TxBody = Task<TxValue> (*)(Tx &);

/** kIters transactions of @p body, each followed by 20 work cycles. */
inline Task<void>
counterLoop(WorkerCtx &ctx, TxBody body = incrementBody)
{
    for (int i = 0; i < kIters; ++i) {
        co_await ctx.txn(body);
        co_await ctx.work(20);
    }
}

/** One worker thread: counterLoop, then the end-of-run barrier. */
inline Task<void>
threadMain(WorkerCtx &ctx, TxBody body = incrementBody)
{
    co_await counterLoop(ctx, body);
    co_await ctx.barrier();
}

} // namespace retcon::test

#endif // RETCON_TESTS_UNIT_COUNTER_HARNESS_HPP
