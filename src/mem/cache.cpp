#include "mem/cache.hpp"

#include <algorithm>

namespace retcon::mem {

SetAssocCache::SetAssocCache(const CacheGeometry &geom)
    : _blocks(geom.numSets() * geom.ways, kFree), _ways(geom.ways),
      _setMask(geom.numSets() - 1)
{
    std::uint64_t nsets = geom.numSets();
    sim_assert(nsets > 0 && (nsets & (nsets - 1)) == 0,
               "cache set count must be a nonzero power of two");
}

std::span<Addr>
SetAssocCache::setFor(Addr block)
{
    std::uint64_t idx = (block / kBlockBytes) & _setMask;
    return {_blocks.data() + idx * _ways, _ways};
}

std::span<const Addr>
SetAssocCache::setFor(Addr block) const
{
    std::uint64_t idx = (block / kBlockBytes) & _setMask;
    return {_blocks.data() + idx * _ways, _ways};
}

bool
SetAssocCache::contains(Addr block) const
{
    std::span<const Addr> set = setFor(block);
    return std::find(set.begin(), set.end(), block) != set.end();
}

void
SetAssocCache::touch(Addr block)
{
    std::span<Addr> set = setFor(block);
    auto it = std::find(set.begin(), set.end(), block);
    if (it != set.end())
        std::rotate(set.begin(), it, it + 1);
}

std::optional<Addr>
SetAssocCache::insert(Addr block)
{
    std::span<Addr> set = setFor(block);
    // Already resident: refresh recency.
    auto it = std::find(set.begin(), set.end(), block);
    if (it != set.end()) {
        std::rotate(set.begin(), it, it + 1);
        return std::nullopt;
    }
    // Shift the set one way toward LRU; the last way drops out.
    Addr last = set.back();
    std::copy_backward(set.begin(), set.end() - 1, set.end());
    set.front() = block;
    if (last == kFree) {
        ++_occupancy;
        return std::nullopt;
    }
    return last;
}

bool
SetAssocCache::invalidate(Addr block)
{
    std::span<Addr> set = setFor(block);
    auto it = std::find(set.begin(), set.end(), block);
    if (it == set.end())
        return false;
    std::copy(it + 1, set.end(), it);
    set.back() = kFree;
    --_occupancy;
    return true;
}

void
SetAssocCache::clear()
{
    if (_occupancy == 0)
        return;
    std::fill(_blocks.begin(), _blocks.end(), kFree);
    _occupancy = 0;
}

} // namespace retcon::mem
