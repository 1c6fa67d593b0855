#include "mem/cache.hpp"

namespace retcon::mem {

SetAssocCache::SetAssocCache(const CacheGeometry &geom)
    : _lines(geom.numSets() * geom.ways), _ways(geom.ways),
      _setMask(geom.numSets() - 1)
{
    std::uint64_t nsets = geom.numSets();
    sim_assert(nsets > 0 && (nsets & (nsets - 1)) == 0,
               "cache set count must be a nonzero power of two");
}

std::span<SetAssocCache::Line>
SetAssocCache::setFor(Addr block)
{
    std::uint64_t idx = (block / kBlockBytes) & _setMask;
    return {_lines.data() + idx * _ways, _ways};
}

std::span<const SetAssocCache::Line>
SetAssocCache::setFor(Addr block) const
{
    std::uint64_t idx = (block / kBlockBytes) & _setMask;
    return {_lines.data() + idx * _ways, _ways};
}

bool
SetAssocCache::contains(Addr block) const
{
    for (const auto &line : setFor(block))
        if (line.lastUse != 0 && line.block == block)
            return true;
    return false;
}

void
SetAssocCache::touch(Addr block)
{
    for (auto &line : setFor(block)) {
        if (line.lastUse != 0 && line.block == block) {
            line.lastUse = ++_useClock;
            return;
        }
    }
}

std::optional<Addr>
SetAssocCache::insert(Addr block)
{
    std::span<Line> set = setFor(block);
    // Already resident: refresh recency.
    for (auto &line : set) {
        if (line.lastUse != 0 && line.block == block) {
            line.lastUse = ++_useClock;
            return std::nullopt;
        }
    }
    // Free way available.
    for (auto &line : set) {
        if (line.lastUse == 0) {
            line = Line{block, ++_useClock};
            ++_occupancy;
            return std::nullopt;
        }
    }
    // Evict LRU.
    Line *victim = &set[0];
    for (auto &line : set)
        if (line.lastUse < victim->lastUse)
            victim = &line;
    Addr evicted = victim->block;
    *victim = Line{block, ++_useClock};
    return evicted;
}

bool
SetAssocCache::invalidate(Addr block)
{
    for (auto &line : setFor(block)) {
        if (line.lastUse != 0 && line.block == block) {
            line.lastUse = 0;
            --_occupancy;
            return true;
        }
    }
    return false;
}

void
SetAssocCache::clear()
{
    if (_occupancy == 0)
        return;
    for (auto &line : _lines)
        line.lastUse = 0;
    _occupancy = 0;
}

} // namespace retcon::mem
