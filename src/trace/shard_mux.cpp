#include "trace/shard_mux.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon::trace {

ShardMux::ShardMux(unsigned nshards, ShardOfFn shard_of,
                   std::size_t ring_capacity)
    : _nshards(nshards), _shardOf(std::move(shard_of))
{
    sim_assert(_nshards >= 1, "ShardMux needs at least one shard");
    sim_assert(_shardOf != nullptr, "ShardMux needs a shard map");
    if (ring_capacity > 0) {
        _rings.reserve(_nshards);
        for (unsigned s = 0; s < _nshards; ++s)
            _rings.push_back(
                std::make_unique<TraceRecorder>(ring_capacity));
    }
    _counters.resize(_nshards);
}

void
ShardMux::addDownstream(TraceSink *sink)
{
    if (sink)
        _downstream.push_back(sink);
}

unsigned
ShardMux::shardOfCore(CoreId core)
{
    if (core >= _shardOfCore.size())
        _shardOfCore.resize(core + 1, 0xff);
    std::uint8_t cached = _shardOfCore[core];
    if (cached != 0xff)
        return cached;
    unsigned s = _shardOf(core);
    sim_assert(s < _nshards && s < 0xff,
               "core %u homed on unknown shard %u", core, s);
    _shardOfCore[core] = static_cast<std::uint8_t>(s);
    return s;
}

void
ShardMux::onEvent(const Record &r)
{
    unsigned s = shardOfCore(r.core);
    Counters &c = _counters[s];
    ++c.events;
    if (r.kind == EventKind::Repair)
        ++c.repairs;
    else if (r.kind == EventKind::Forward)
        ++c.forwards;
    if (!_rings.empty())
        _rings[s]->onEvent(r);
    for (TraceSink *d : _downstream)
        d->onEvent(r);
}

const TraceRecorder &
ShardMux::recorder(unsigned s) const
{
    sim_assert(!_rings.empty(), "ShardMux built without rings");
    sim_assert(s < _nshards, "shard %u out of range", s);
    return *_rings[s];
}

const ShardMux::Counters &
ShardMux::counters(unsigned s) const
{
    sim_assert(s < _nshards, "shard %u out of range", s);
    return _counters[s];
}

std::uint64_t
ShardMux::totalEvents() const
{
    std::uint64_t n = 0;
    for (const Counters &c : _counters)
        n += c.events;
    return n;
}

std::vector<Record>
ShardMux::mergedSnapshot() const
{
    std::vector<Record> merged;
    if (_rings.empty())
        return merged;
    std::size_t total = 0;
    for (const auto &ring : _rings)
        total += ring->size();
    merged.reserve(total);
    for (const auto &ring : _rings)
        ring->forEach([&](const Record &r) { merged.push_back(r); });
    // Each ring is already seq-ascending; a stable sort on the
    // machine-global seq is the k-way merge.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Record &a, const Record &b) {
                         return a.seq < b.seq;
                     });
    return merged;
}

} // namespace retcon::trace
