/**
 * @file
 * Set-associative cache tag array with true-LRU replacement.
 *
 * Only presence/recency metadata is modeled; data lives in the shared
 * functional SparseMemory. The same class instantiates the L1, the
 * private L2 and the permissions-only cache at the fixed Table 1
 * geometries (mem::kL1Geometry, kL2Geometry, kPermOnlyGeometry) — the
 * permissions-only cache simply treats an entry as "this block's
 * coherence permissions and speculative read/written bits survive here
 * after data eviction" (OneTM). The tag array is one flat array of
 * block addresses, sets x ways; set i is the ways-long slice starting
 * at i * ways, kept most-recently-used first, so the LRU victim is
 * always the last way and free ways sit at the end of their set.
 */

#ifndef RETCON_MEM_CACHE_HPP
#define RETCON_MEM_CACHE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace retcon::mem {

/** Geometry of a set-associative cache of kBlockBytes blocks. */
struct CacheGeometry {
    std::uint64_t sizeBytes;
    unsigned ways;

    constexpr std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * kBlockBytes);
    }
};

/** Tag array with LRU replacement; blocks identified by block address. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom);

    /** True when @p block is currently resident. */
    bool contains(Addr block) const;

    /** Update LRU recency for a resident block. No-op when absent. */
    void touch(Addr block);

    /**
     * Insert @p block, evicting the set's LRU victim if the set is full.
     * @return the evicted block address, if any.
     */
    std::optional<Addr> insert(Addr block);

    /** Remove @p block if present. @return true when it was present. */
    bool invalidate(Addr block);

    /** Remove everything. */
    void clear();

    /** Number of resident blocks (for tests). */
    std::size_t occupancy() const { return _occupancy; }

    std::uint64_t numSets() const { return _setMask + 1; }
    unsigned ways() const { return _ways; }

  private:
    /// A free way. Blocks are block-aligned, so none ever reads ~0.
    static constexpr Addr kFree = ~Addr(0);

    std::vector<Addr> _blocks; ///< numSets() x ways, set-major, MRU first.
    unsigned _ways;
    std::uint64_t _setMask;
    std::size_t _occupancy = 0;

    std::span<Addr> setFor(Addr block);
    std::span<const Addr> setFor(Addr block) const;
};

} // namespace retcon::mem

#endif // RETCON_MEM_CACHE_HPP
