/**
 * @file
 * Functional backing store for the simulated physical address space.
 *
 * The simulator separates *functional* state (the bytes a program would
 * observe) from *timing* state (caches, directory). SparseMemory is the
 * single functional store: every committed byte in the machine lives
 * here. Speculative state that must not be architecturally visible
 * (RETCON's symbolic store buffer, lazy write buffers) is kept in the
 * HTM structures and only drained here at commit.
 */

#ifndef RETCON_MEM_SPARSE_MEMORY_HPP
#define RETCON_MEM_SPARSE_MEMORY_HPP

#include <cstdint>
#include <unordered_map>

#include "sim/types.hpp"

namespace retcon::mem {

/** Word-granularity sparse memory; unwritten words read as zero. */
class SparseMemory
{
  public:
    /** Read the aligned 64-bit word containing @p addr. */
    Word
    readWord(Addr addr) const
    {
        auto it = _words.find(wordAddr(addr));
        return it == _words.end() ? 0 : it->second;
    }

    /** Write the aligned 64-bit word containing @p addr. */
    void
    writeWord(Addr addr, Word value)
    {
        _words[wordAddr(addr)] = value;
    }

    /**
     * Read @p size bytes (1, 2, 4, or 8) at @p addr, zero-extended.
     * The access must not cross a word boundary; unaligned accesses
     * are split by callers (RETCON treats them as untrackable anyway).
     */
    Word
    read(Addr addr, unsigned size) const
    {
        Word w = readWord(addr);
        unsigned shift = byteInWord(addr) * 8;
        if (size >= 8)
            return w;
        Word mask = (Word(1) << (size * 8)) - 1;
        return (w >> shift) & mask;
    }

    /** Write @p size bytes (1, 2, 4, or 8) of @p value at @p addr. */
    void
    write(Addr addr, Word value, unsigned size)
    {
        if (size >= 8) {
            writeWord(addr, value);
            return;
        }
        Word w = readWord(addr);
        unsigned shift = byteInWord(addr) * 8;
        Word mask = ((Word(1) << (size * 8)) - 1) << shift;
        w = (w & ~mask) | ((value << shift) & mask);
        writeWord(addr, w);
    }

    /** Number of distinct words ever written (tests/footprint stats). */
    std::size_t footprintWords() const { return _words.size(); }

  private:
    std::unordered_map<Addr, Word> _words;
};

} // namespace retcon::mem

#endif // RETCON_MEM_SPARSE_MEMORY_HPP
