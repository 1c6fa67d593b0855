/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot structures:
 * event queue throughput (parked retries too), cache tag lookups,
 * interval constraint recording, IVB/SSB operations, predictor
 * queries, and the TM machine's NACK retry. These bound the host-side
 * cost per simulated memory operation.
 */

#include <benchmark/benchmark.h>

#include "htm/machine.hpp"
#include "mem/cache.hpp"
#include "retcon/constraint_buffer.hpp"
#include "retcon/ivb.hpp"
#include "retcon/predictor.hpp"
#include "retcon/ssb.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

using namespace retcon;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // One wake per slot of a full 64-core table, woken in scrambled
    // order, then drained. One item is one wake + dispatch.
    constexpr unsigned kSlots = 64;
    ShardedEventQueue eq({}, std::vector<unsigned>(kSlots, 0));
    for (auto _ : state) {
        for (unsigned i = 0; i < kSlots; ++i)
            eq.wake((i * 37) % kSlots, i);
        while (eq.step() >= 0) {
        }
    }
    benchmark::DoNotOptimize(eq.executed());
    state.SetItemsProcessed(state.iterations() * kSlots);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_ShardedQueueSaturated(benchmark::State &state)
{
    // The monolith's shape: one shard dispatching one wake per cycle
    // under 32 self-rewaking cores, so most due wakes slip.
    constexpr int kEvents = 4096;
    constexpr unsigned kCores = 32;
    for (auto _ : state) {
        ShardedQueueConfig cfg;
        cfg.dispatchBandwidth = 1;
        ShardedEventQueue q(cfg, std::vector<unsigned>(kCores, 0));
        for (unsigned c = 0; c < kCores; ++c)
            q.wake(c, 1 + c % 4);
        int left = kEvents - int(kCores);
        for (int c; (c = q.step()) >= 0;)
            if (left-- > 0)
                q.wake(c, 1 + c % 4);
        benchmark::DoNotOptimize(q.executed());
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ShardedQueueSaturated);

static void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    // Remote aborts: a core's pending wake is cancelled and replaced
    // before it fires, while the other cores keep dispatching. One item
    // is one cancel + rewake + dispatch.
    constexpr unsigned kCores = 32;
    ShardedEventQueue eq({}, std::vector<unsigned>(kCores, 0));
    Xoshiro rng(13);
    for (unsigned c = 0; c < kCores; ++c)
        eq.wake(c, 1 + rng.below(8));
    for (auto _ : state) {
        auto c = static_cast<unsigned>(rng.below(kCores));
        eq.cancel(c);
        eq.wake(c, 1 + rng.below(8));
        eq.wake(static_cast<unsigned>(eq.step()), 1 + rng.below(8));
    }
    benchmark::DoNotOptimize(eq.executed());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn);

static void
BM_ParkedRetry(benchmark::State &state)
{
    // The kernel side of a parked conflict retry: 32 slots, 31 of them
    // waiting far ahead, and one parked chain re-waking every 25
    // cycles. One item is one parked fire (a dispatch and a re-wake
    // inside step(), with no return to the caller).
    constexpr unsigned kSlots = 32;
    constexpr std::uint64_t kFires = 1024;
    ShardedEventQueue eq({}, std::vector<unsigned>(kSlots, 0));
    for (unsigned c = 1; c < kSlots; ++c)
        eq.wake(c, Cycle(1) << 40);
    for (auto _ : state) {
        eq.wake(0, 25);
        eq.park(0, 25, kFires);
        benchmark::DoNotOptimize(eq.step());
    }
    if (eq.takeParked(0) != kFires * std::uint64_t(state.iterations()))
        state.SkipWithError("a parked fire went missing");
    state.SetItemsProcessed(state.iterations() * kFires);
}
BENCHMARK(BM_ParkedRetry);

static void
BM_ParkedFanIn(benchmark::State &state)
{
    // Figure 9's shape: 32 cores, 29 of them parked on a conflict at
    // staggered phases and retrying every 25 cycles, while 3 live
    // cores re-wake every 8 to 10 cycles, so about three dispatches in
    // four are parked fires. One item is one dispatch, parked or not.
    constexpr unsigned kSlots = 32, kLive = 3;
    ShardedEventQueue eq({}, std::vector<unsigned>(kSlots, 0));
    for (unsigned c = kLive; c < kSlots; ++c) {
        eq.wake(c, 1 + (c * 7) % 25);
        eq.park(c, 25, ~std::uint64_t(0));
    }
    for (unsigned c = 0; c < kLive; ++c)
        eq.wake(c, 8 + c);
    std::uint64_t before = eq.executed();
    for (auto _ : state) {
        auto c = static_cast<unsigned>(eq.step());
        eq.wake(c, 8 + c);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(eq.executed() - before));
}
BENCHMARK(BM_ParkedFanIn);

static void
BM_CacheInsertLookup(benchmark::State &state)
{
    mem::SetAssocCache cache({64 * 1024, 4});
    Xoshiro rng(7);
    for (auto _ : state) {
        Addr block = blockAddr(rng.below(1 << 20) * kBlockBytes);
        cache.insert(block);
        benchmark::DoNotOptimize(cache.contains(block));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertLookup);

static void
BM_IntervalConstrain(benchmark::State &state)
{
    Xoshiro rng(11);
    for (auto _ : state) {
        rtc::Interval iv;
        for (int i = 0; i < 8; ++i)
            iv.constrain(static_cast<rtc::CmpOp>(rng.below(6)),
                         static_cast<std::int64_t>(rng.below(100)));
        benchmark::DoNotOptimize(iv.contains(50));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_IntervalConstrain);

static void
BM_IvbAllocateFind(benchmark::State &state)
{
    std::array<Word, kWordsPerBlock> words{};
    for (auto _ : state) {
        rtc::InitialValueBuffer ivb(16);
        for (Addr b = 0; b < 16; ++b)
            ivb.allocate(b * kBlockBytes, words);
        for (Addr b = 0; b < 16; ++b)
            benchmark::DoNotOptimize(ivb.find(b * kBlockBytes));
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_IvbAllocateFind);

static void
BM_SsbPutForward(benchmark::State &state)
{
    for (auto _ : state) {
        rtc::SymbolicStoreBuffer ssb(32);
        for (Addr w = 0; w < 32; ++w)
            ssb.put(w * 8, w, rtc::SymTag{0x1000, 1, 8}, 8);
        for (Addr w = 0; w < 32; ++w)
            benchmark::DoNotOptimize(ssb.find(w * 8));
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SsbPutForward);

// ---------------------------------------------------------------------
// Grown-structure lookups (idealized-RETCON sizing). These pin the win
// from the small-map indices that replaced the linear scans: at
// Table 1 sizes (16/32 entries) either is fine, but idealized-RETCON
// runs grow the buffers far past that and made find()/invalidate()
// the host-side hot path (ROADMAP perf item, closed in PR 4).
// ---------------------------------------------------------------------

static void
BM_IvbFindGrown(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::array<Word, kWordsPerBlock> words{};
    rtc::InitialValueBuffer ivb(SIZE_MAX);
    for (Addr b = 0; b < n; ++b)
        ivb.allocate(b * kBlockBytes, words);
    Xoshiro rng(17);
    for (auto _ : state) {
        // Mix of hits and misses, like the txLoad fast path.
        Addr b = rng.below(2 * n) * kBlockBytes;
        benchmark::DoNotOptimize(ivb.find(b));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IvbFindGrown)->Arg(16)->Arg(256)->Arg(1024);

static void
BM_SsbInvalidateMiss(benchmark::State &state)
{
    // Every RETCON eager store probes the SSB for an entry to drop;
    // almost all probes miss. The index makes the miss O(1).
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    rtc::SymbolicStoreBuffer ssb(SIZE_MAX);
    for (Addr w = 0; w < n; ++w)
        ssb.put(w * 8, w, rtc::SymTag{0x1000, 1, 8}, 8);
    Xoshiro rng(19);
    for (auto _ : state) {
        Addr miss = (n + rng.below(1 << 20)) * 8;
        ssb.invalidate(miss);
        benchmark::DoNotOptimize(ssb.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsbInvalidateMiss)->Arg(32)->Arg(1024);

static void
BM_ConstraintSatisfied(benchmark::State &state)
{
    // satisfied() runs per eager store and per commit word.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    rtc::ConstraintBuffer cb(SIZE_MAX);
    for (Addr r = 0; r < n; ++r)
        cb.record(r * 8, rtc::CmpOp::GT, -1);
    Xoshiro rng(23);
    for (auto _ : state) {
        Addr root = rng.below(2 * n) * 8;
        benchmark::DoNotOptimize(cb.satisfied(root, 5));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConstraintSatisfied)->Arg(16)->Arg(512);

static void
BM_PredictorQuery(benchmark::State &state)
{
    rtc::ConflictPredictor pred;
    for (Addr b = 0; b < 256; ++b)
        pred.observeConflict(b * kBlockBytes);
    Xoshiro rng(13);
    for (auto _ : state) {
        Addr b = blockAddr(rng.below(512) * kBlockBytes);
        benchmark::DoNotOptimize(pred.shouldTrack(b));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorQuery);

static void
BM_NackRetry(benchmark::State &state)
{
    // Figure 9's hot path: 32 active transactions, each holding a few
    // blocks of its own, and core 1 retrying a load of a block that
    // the older core 0 wrote. Every call finds that one writer and
    // NACKs (oldest-wins).
    constexpr unsigned kCores = 32;
    constexpr Addr kHot = 0x10000;
    ShardedEventQueue eq;
    mem::MemorySystem ms(kCores);
    htm::TMConfig cfg;
    cfg.mode = htm::TMMode::Eager;
    htm::TMMachine tm(eq, ms, cfg);
    for (CoreId c = 0; c < kCores; ++c)
        tm.txBegin(c, false);
    tm.txStore(0, kHot, 1, std::nullopt);
    for (CoreId c = 2; c < kCores; ++c)
        for (Addr i = 0; i < 4; ++i)
            tm.txLoad(c, 0x100000 + (c * 4 + i) * kBlockBytes);
    for (auto _ : state) {
        htm::MemOpOutcome out = tm.txLoad(1, kHot, 8, true);
        benchmark::DoNotOptimize(out);
    }
    if (tm.stats().nacks < std::uint64_t(state.iterations()))
        state.SkipWithError("a retry did not NACK");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NackRetry);

BENCHMARK_MAIN();
