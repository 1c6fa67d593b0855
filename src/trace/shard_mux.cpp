#include "trace/shard_mux.hpp"

#include "sim/logging.hpp"

namespace retcon::trace {

ShardMux::ShardMux(unsigned nshards, ShardOfFn shard_of,
                   std::size_t ring_capacity)
    : _nshards(nshards), _shardOf(std::move(shard_of))
{
    sim_assert(_nshards >= 1, "ShardMux needs at least one shard");
    sim_assert(_shardOf != nullptr, "ShardMux needs a shard map");
    sim_assert(ring_capacity == 0,
               "ShardMux keeps no rings (ring capacity %zu); attach a "
               "downstream sink to retain records",
               ring_capacity);
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
    for (TraceSink *d : _downstream)
        d->onEvent(r);
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

} // namespace retcon::trace
