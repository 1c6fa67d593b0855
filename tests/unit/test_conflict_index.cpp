/**
 * @file
 * Seeded random op scripts against TMMachine, one per TM mode plus one
 * that overflows into the permissions-only cache. Each script folds
 * every returned status, latency and value, every remote abort, the
 * final memory and the machine statistics into one hash, pinned below:
 * any change to how conflicts are found (who touches a block, in which
 * order the touchers are visited) moves it. The same scripts check the
 * per-block touch index after every op.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "htm/machine.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

using namespace retcon;
using namespace retcon::htm;

namespace {

constexpr unsigned kCores = 8;
constexpr unsigned kBlocks = 16;
constexpr int kOps = 4000;
/// Address distance between blocks that share an L2 set.
constexpr Addr kL2SetStride = mem::kL2Geometry.numSets() * kBlockBytes;

struct Script {
    const char *name;
    TMMode mode;
    bool overflow;      ///< Blocks share one L2 set; long transactions.
    std::uint64_t seed;
    std::uint64_t pinned; ///< Hash recorded on the per-core-set scan.
};

/** The script's block @p i (of kBlocks). */
Addr
blockOf(const Script &s, unsigned i)
{
    return s.overflow ? 0x100000 + Addr(i) * kL2SetStride
                      : 0x10000 + Addr(i) * 3 * kBlockBytes;
}

/** FNV-1a over 64-bit values. */
struct Hash {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const AvgMax &s)
    {
        add(s.count());
        add(std::bit_cast<std::uint64_t>(s.sum()));
        add(std::bit_cast<std::uint64_t>(s.max()));
    }
};

/** One core's position in the script. */
struct CoreScript {
    enum class Op {
        None, Begin, Load, Store, PlainLoad, PlainStore, Commit, Abort
    };
    Op nacked = Op::None; ///< Op to retry after a NACK.
    Addr addr = 0;
    Word value = 0;
    unsigned size = 8;
    std::optional<rtc::SymTag> sym; ///< Last tag loaded this attempt.
};

/**
 * Run @p s, calling @p after_op after every op, and return its hash.
 * Ops only ever follow the machine's contract: transactional accesses
 * from active cores, commit steps until done once a commit started,
 * plain accesses from idle cores.
 */
std::uint64_t
runScript(const Script &s,
          const std::function<void(TMMachine &)> &after_op = {})
{
    ShardedEventQueue eq;
    mem::MemorySystem ms(kCores);
    TMConfig cfg;
    cfg.mode = s.mode;
    TMMachine tm(eq, ms, cfg);
    Hash h;
    tm.setRemoteAbortHandler([&](CoreId c, AbortCause a) {
        h.add(0xab);
        h.add(c);
        h.add(static_cast<std::uint64_t>(a));
    });

    // Half the blocks start predicted-conflicting, so RETCON and
    // lazy-vb track them by value from the first load.
    for (unsigned i = 0; i < kBlocks; i += 2)
        tm.predictor().observeConflict(blockOf(s, i));
    for (unsigned i = 0; i < kBlocks; ++i)
        ms.memory().writeWord(blockOf(s, i), 100 + i);

    Xoshiro rng(s.seed);
    std::vector<CoreScript> cores(kCores);
    auto pickAccess = [&](CoreScript &cs) {
        Addr block =
            blockOf(s, static_cast<unsigned>(rng.below(kBlocks)));
        cs.addr = block + rng.below(2) * kWordBytes;
        cs.size = 8;
        if (rng.chance(1, 8)) {
            cs.addr += 4; // Sub-word access.
            cs.size = 4;
        }
        cs.value = rng.below(1000);
    };
    auto fold = [&](const MemOpOutcome &out, CoreScript &cs,
                    CoreScript::Op op) {
        h.add(static_cast<std::uint64_t>(out.status));
        h.add(out.latency);
        h.add(out.value);
        h.add(out.sym ? out.sym->root : ~Addr(0));
        cs.nacked =
            out.status == OpStatus::Nack ? op : CoreScript::Op::None;
        if (out.sym)
            cs.sym = out.sym;
    };
    // Percent of an active core's ops that start its commit, abort it,
    // or load.
    const std::uint64_t commit_pct = s.overflow ? 3 : 15;
    const std::uint64_t abort_pct = s.overflow ? 1 : 5;
    const std::uint64_t load_pct = s.overflow ? 80 : 50;

    for (int i = 0; i < kOps; ++i) {
        CoreId c = static_cast<CoreId>(rng.below(kCores));
        CoreScript &cs = cores[c];
        TxStatus st = tm.status(c);
        h.add(c);
        using Op = CoreScript::Op;
        auto fits = [&](Op o) {
            switch (o) {
              case Op::Load:
              case Op::Store: return st == TxStatus::Active;
              case Op::Commit: return st != TxStatus::Idle;
              case Op::None: return false;
              default: return st == TxStatus::Idle;
            }
        };
        // A NACKed op is usually retried as is (a remote abort may have
        // made it illegal); a started commit is driven to its end.
        Op op = Op::None;
        bool retry = false;
        if (st == TxStatus::Committing) {
            op = Op::Commit;
            retry = cs.nacked == Op::Commit;
        } else if (fits(cs.nacked) && rng.chance(3, 4)) {
            op = cs.nacked;
            retry = true;
        } else if (st == TxStatus::Idle) {
            std::uint64_t r = rng.below(100);
            op = r < 60   ? Op::Begin
                 : r < 80 ? Op::PlainLoad
                          : Op::PlainStore;
        } else {
            std::uint64_t r = rng.below(100);
            op = r < commit_pct                ? Op::Commit
                 : r < commit_pct + abort_pct ? Op::Abort
                 : r < commit_pct + abort_pct + load_pct ? Op::Load
                                                          : Op::Store;
        }
        bool access = op != Op::Begin && op != Op::Commit &&
                      op != Op::Abort;
        if (!retry && access)
            pickAccess(cs);

        switch (op) {
          case Op::Begin: {
            fold(tm.txBegin(c, retry), cs, op);
            if (tm.status(c) == TxStatus::Active)
                cs.sym.reset();
            break;
          }
          case Op::Load:
            fold(tm.txLoad(c, cs.addr, cs.size, retry), cs, op);
            break;
          case Op::Store: {
            std::optional<rtc::SymTag> sym;
            if (s.mode == TMMode::Retcon && cs.sym && rng.chance(1, 2)) {
                sym = cs.sym;
                sym->delta += 1;
            }
            fold(tm.txStore(c, cs.addr, cs.value, sym, cs.size, retry),
                 cs, op);
            break;
          }
          case Op::PlainLoad:
            fold(tm.plainLoad(c, cs.addr, cs.size), cs, op);
            break;
          case Op::PlainStore:
            fold(tm.plainStore(c, cs.addr, cs.value, cs.size), cs, op);
            break;
          case Op::Commit: {
            CommitStepOutcome out = tm.commitStep(c, retry);
            h.add(static_cast<std::uint64_t>(out.status));
            h.add(out.latency);
            h.add(out.done);
            cs.nacked = out.status == OpStatus::Nack ? op : Op::None;
            break;
          }
          case Op::Abort:
            tm.abortSelf(c, AbortCause::Explicit);
            h.add(0xe1);
            cs.nacked = Op::None;
            break;
          case Op::None:
            break;
        }
        if (tm.status(c) == TxStatus::Idle)
            cs.sym.reset();
        if (after_op)
            after_op(tm);
    }

    for (unsigned i = 0; i < kBlocks; ++i)
        for (unsigned w = 0; w < 2; ++w)
            h.add(ms.memory().readWord(blockOf(s, i) + w * kWordBytes));
    const MachineStats &st = tm.stats();
    for (std::uint64_t v :
         {st.commits, st.aborts, st.conflicts, st.nacks, st.overflows,
          st.fwdReads, st.abortsLazyValueMismatch, st.tokenAcquires,
          st.tokenWaits, st.tokenSteals})
        h.add(v);
    for (std::uint64_t v : st.abortsByCause)
        h.add(v);
    for (const AvgMax *a : {&st.blocksLost, &st.blocksTracked, &st.symRegs,
                            &st.privateStores, &st.constraintAddrs,
                            &st.commitCycles})
        h.add(*a);
    if (s.overflow) {
        EXPECT_GT(st.overflows, 0u) << s.name << " never overflowed";
    }
    EXPECT_GT(st.commits, 0u) << s.name;
    EXPECT_GT(st.aborts, 0u) << s.name;
    return h.h;
}

const Script kScripts[] = {
    {"serial", TMMode::Serial, false, 1, 0x17aac482f5e4946dull},
    {"eager", TMMode::Eager, false, 2, 0xeca781b9036af0fbull},
    {"lazy", TMMode::Lazy, false, 3, 0x7195b4524b765567ull},
    {"lazy-vb", TMMode::LazyVB, false, 4, 0xf0f97dfcd6efaebcull},
    {"retcon", TMMode::Retcon, false, 5, 0xe52026408932e694ull},
    {"datm", TMMode::DATM, false, 6, 0x324583c8178df717ull},
    {"eager-overflow", TMMode::Eager, true, 7, 0x333daebb6edb44e6ull},
};

} // namespace

TEST(ConflictIndex, SeededScriptsArePinned)
{
    for (const Script &s : kScripts) {
        std::uint64_t got = runScript(s);
        EXPECT_EQ(got, s.pinned)
            << s.name << ": 0x" << std::hex << got;
    }
}

TEST(ConflictIndex, IndexHoldsExactlyTheActiveTouchers)
{
    for (const Script &s : kScripts) {
        int op = 0;
        runScript(s, [&](TMMachine &tm) {
            ++op;
            for (CoreId c = 0; c < kCores; ++c) {
                const std::vector<Addr> &touched = tm.coreState(c).touched;
                bool active = tm.status(c) != TxStatus::Idle;
                for (unsigned i = 0; i < kBlocks; ++i) {
                    Addr b = blockOf(s, i);
                    bool bit = tm.reads(c, b) || tm.writes(c, b);
                    auto listed =
                        std::count(touched.begin(), touched.end(), b);
                    ASSERT_EQ(bit, active && listed == 1)
                        << s.name << " op " << op << " core " << c
                        << " block 0x" << std::hex << b << " listed "
                        << listed;
                }
                ASSERT_TRUE(active || touched.empty())
                    << s.name << " op " << op << " core " << c;
                for (Addr b : touched)
                    ASSERT_TRUE(tm.reads(c, b) || tm.writes(c, b))
                        << s.name << " op " << op << " core " << c;
            }
        });
    }
}

TEST(ConflictIndex, CascadeInsideTheQuerySkipsRetiredTouchers)
{
    // Core 1 read core 3's store to B and then wrote A; core 2 read
    // core 1's A. When the older core 3 stores to A, the query visits
    // core 1 first, finds the cycle and aborts it, and the cascade
    // retires core 2, a later toucher of A. Core 2 must not be visited
    // after that: a stale visit would order core 3 after a dead attempt.
    ShardedEventQueue eq;
    mem::MemorySystem ms(4);
    TMConfig cfg;
    cfg.mode = TMMode::DATM;
    TMMachine tm(eq, ms, cfg);
    constexpr Addr kA = 0x10000;
    constexpr Addr kB = 0x20000;
    for (CoreId c : {3u, 1u, 2u})
        ASSERT_EQ(tm.txBegin(c, false).status, OpStatus::Ok);
    ASSERT_EQ(tm.txStore(3, kB, 1, std::nullopt).status, OpStatus::Ok);
    ASSERT_EQ(tm.txLoad(1, kB).status, OpStatus::Ok);
    ASSERT_EQ(tm.txStore(1, kA, 2, std::nullopt).status, OpStatus::Ok);
    ASSERT_EQ(tm.txLoad(2, kA).status, OpStatus::Ok);

    EXPECT_EQ(tm.txStore(3, kA, 3, std::nullopt).status, OpStatus::Ok);
    EXPECT_EQ(tm.status(1), TxStatus::Idle);
    EXPECT_EQ(tm.status(2), TxStatus::Idle);
    EXPECT_TRUE(tm.coreState(3).datmPreds.empty());
    EXPECT_TRUE(tm.writes(3, kA));
    EXPECT_FALSE(tm.reads(2, kA));
}
