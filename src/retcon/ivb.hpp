/**
 * @file
 * Initial Value Buffer (Figure 5), maintained at cache-block granularity
 * (§4.4 optimization).
 *
 * One entry per symbolically-tracked block. The entry snapshots the
 * block's initial concrete words at the first symbolic load, carries
 * per-word bookkeeping bits:
 *   - readMask: words whose values the transaction actually consumed;
 *   - eqMask: words pinned by a compressed equality constraint (§4.4);
 *   - written: the block will be written at commit, so the pre-commit
 *     reacquire should obtain write permission directly and avoid the
 *     upgrade miss (§4.4);
 *   - lost: the block was stolen away by a remote core mid-transaction
 *     and must be reacquired at commit (Figure 7, step 1).
 *
 * `curWords` holds the reacquired final values during pre-commit repair.
 */

#ifndef RETCON_RETCON_IVB_HPP
#define RETCON_RETCON_IVB_HPP

#include <array>
#include <cstdint>

#include "retcon/bounded_table.hpp"
#include "sim/types.hpp"

namespace retcon::rtc {

/** One block-granularity IVB entry. */
struct IvbEntry {
    Addr block = 0;
    std::array<Word, kWordsPerBlock> initWords{};
    std::array<Word, kWordsPerBlock> curWords{};
    std::uint8_t readMask = 0;
    std::uint8_t eqMask = 0;
    /**
     * Words whose input value was fixed mid-transaction by a local
     * eager (non-symbolic) store: the pre-store value was validated
     * against the initial value at store time and recorded into
     * curWords; the pre-commit walk must not re-read these words from
     * memory (it would observe the transaction's own store).
     */
    std::uint8_t frozenMask = 0;
    bool written = false;
    bool lost = false;
};

/** Fixed-capacity initial value buffer (16 entries in Table 1). */
class InitialValueBuffer : private BoundedTable<IvbEntry, &IvbEntry::block>
{
  public:
    explicit InitialValueBuffer(std::size_t capacity)
        : BoundedTable(capacity)
    {}

    using BoundedTable::clear;
    using BoundedTable::entries; ///< Insertion (pre-commit walk) order.
    using BoundedTable::find;
    using BoundedTable::full;
    using BoundedTable::size;

    /**
     * Allocate an entry for @p block with the given initial words.
     * @return nullptr when the buffer is full (caller falls back to
     * the eager path for this block).
     */
    IvbEntry *
    allocate(Addr block, const std::array<Word, kWordsPerBlock> &words)
    {
        IvbEntry e;
        e.block = block;
        e.initWords = words;
        e.curWords = words;
        return insert(e);
    }

    /** Number of entries marked lost (Table 3 "blocks lost"). */
    std::size_t
    lostCount() const
    {
        std::size_t n = 0;
        for (const auto &e : entries())
            n += e.lost;
        return n;
    }
};

} // namespace retcon::rtc

#endif // RETCON_RETCON_IVB_HPP
