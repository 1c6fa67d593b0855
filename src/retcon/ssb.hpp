/**
 * @file
 * Symbolic Store Buffer (Figure 5).
 *
 * Holds symbolically-tracked stores: address, the store's concrete
 * (best-guess) value, and its symbolic value if any. Accessed like an
 * unordered store buffer: loads check it in parallel with the IVB and
 * data cache (Figure 6); store-to-load forwarding *copies* the symbolic
 * value, flattening the dependence (§4.3), which is what lets the
 * commit-time drain proceed in any order.
 *
 * A non-symbolic store to an address present here invalidates the entry
 * (Figure 8, time 10).
 */

#ifndef RETCON_RETCON_SSB_HPP
#define RETCON_RETCON_SSB_HPP

#include <cstdint>
#include <optional>

#include "retcon/bounded_table.hpp"
#include "retcon/symbolic.hpp"
#include "sim/types.hpp"

namespace retcon::rtc {

/** One symbolic store buffer entry (word granularity). */
struct SsbEntry {
    Addr word = 0;                ///< Word-aligned target address.
    Word concrete = 0;            ///< Best-guess value at store time.
    std::optional<SymTag> sym;    ///< Symbolic value, when tracked.
    std::uint8_t size = 8;        ///< Store size in bytes.
};

/** Fixed-capacity unordered symbolic store buffer (32 in Table 1). */
class SymbolicStoreBuffer : private BoundedTable<SsbEntry, &SsbEntry::word>
{
  public:
    explicit SymbolicStoreBuffer(std::size_t capacity)
        : BoundedTable(capacity)
    {}

    using BoundedTable::clear;
    using BoundedTable::entries; ///< Insertion (commit drain) order.
    using BoundedTable::find;
    using BoundedTable::full;
    using BoundedTable::size;

    /** Outcome of a put(), distinguished for provenance tracing. */
    enum class Put : std::uint8_t {
        Inserted, ///< New entry allocated.
        Updated,  ///< Existing entry for the word overwritten.
        Full,     ///< No room: caller falls back to an eager store +
                  ///< equality constraint.
    };

    /** Insert or overwrite the entry for @p word. */
    Put
    put(Addr word, Word concrete, std::optional<SymTag> sym,
        std::uint8_t size)
    {
        if (SsbEntry *e = find(word)) {
            e->concrete = concrete;
            e->sym = sym;
            e->size = size;
            return Put::Updated;
        }
        return insert(SsbEntry{word, concrete, sym, size}) ? Put::Inserted
                                                           : Put::Full;
    }

    /** Drop the entry for @p word (overwritten by a normal store),
     *  keeping the drain order of the rest. */
    void invalidate(Addr word) { erase(word); }
};

} // namespace retcon::rtc

#endif // RETCON_RETCON_SSB_HPP
