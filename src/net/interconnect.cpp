#include "net/interconnect.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace retcon::net {

Topology
topologyFromName(const char *name)
{
    if (std::strcmp(name, "crossbar") == 0)
        return Topology::Crossbar;
    if (std::strcmp(name, "ring") == 0)
        return Topology::Ring;
    fatal("unknown interconnect topology '%s' (crossbar|ring)", name);
}

Interconnect::Interconnect(unsigned clusters, const NetConfig &cfg)
    : _clusters(clusters), _cfg(cfg)
{
    sim_assert(clusters >= 1, "interconnect needs >= 1 cluster");
    // Crossbar: one directed link per ordered pair. Ring: clockwise
    // links live at [0, C), counter-clockwise at [C, 2C) — link c is
    // c -> c+1 mod C, link C+c is c+1 mod C -> c.
    std::size_t nlinks = 0;
    if (clusters > 1) {
        nlinks = _cfg.topology == Topology::Crossbar
                     ? std::size_t(clusters) * (clusters - 1)
                     : std::size_t(clusters) * 2;
    }
    _links.resize(nlinks);
    std::size_t i = 0;
    if (_cfg.topology == Topology::Crossbar) {
        for (unsigned s = 0; s < clusters && nlinks; ++s)
            for (unsigned d = 0; d < clusters; ++d)
                if (s != d) {
                    _links[i].stats.src = s;
                    _links[i].stats.dst = d;
                    ++i;
                }
    } else {
        for (unsigned c = 0; c < clusters && nlinks; ++c) {
            _links[c].stats.src = c;
            _links[c].stats.dst = (c + 1) % clusters;
            _links[clusters + c].stats.src = (c + 1) % clusters;
            _links[clusters + c].stats.dst = c;
        }
    }
}

Cycle
Interconnect::serializeCycles(unsigned words) const
{
    if (_cfg.linkBandwidth == 0)
        return 0;
    Cycle w = words;
    return (w + _cfg.linkBandwidth - 1) / _cfg.linkBandwidth;
}

unsigned
Interconnect::linkIndex(unsigned src, unsigned dst) const
{
    if (_cfg.topology == Topology::Crossbar) {
        // Row src holds its C-1 outgoing links in dst order.
        unsigned col = dst < src ? dst : dst - 1;
        return src * (_clusters - 1) + col;
    }
    // Ring hop: clockwise src -> src+1, counter-clockwise src -> src-1.
    if (dst == (src + 1) % _clusters)
        return src;
    sim_assert(src == (dst + 1) % _clusters,
               "ring hop %u -> %u is not adjacent", src, dst);
    return _clusters + dst;
}

Cycle
Interconnect::crossLink(unsigned link, unsigned words, Cycle now)
{
    Link &l = _links[link];
    Cycle queue = l.freeAt > now ? l.freeAt - now : 0;
    Cycle drain = serializeCycles(words);
    l.freeAt = now + queue + drain;
    ++l.stats.messages;
    l.stats.payloadWords += words;
    l.stats.queueCycles += queue;
    Cycle latency = _cfg.linkLatency;
    const LinkFault &f = _linkFault;
    if (link == f.link && windowActive(now, f.period, f.len, f.offset)) {
        Cycle extra = latency * (f.latencyMult - 1);
        latency += extra;
        ++_faultMessages;
        _faultExtra += extra;
    }
    return queue + drain + latency;
}

Cycle
Interconnect::deliver(unsigned src, unsigned dst, unsigned words,
                      Cycle now)
{
    if (src == dst || _clusters <= 1)
        return 0;
    sim_assert(src < _clusters && dst < _clusters,
               "interconnect endpoint out of range");
    if (_cfg.topology == Topology::Crossbar)
        return crossLink(linkIndex(src, dst), words, now);

    // Ring: shorter direction, ties go clockwise; the message crosses
    // every intermediate link in order, paying each link's queue.
    unsigned cw = (dst + _clusters - src) % _clusters;
    unsigned ccw = _clusters - cw;
    bool clockwise = cw <= ccw;
    Cycle total = 0;
    unsigned at = src;
    while (at != dst) {
        unsigned next = clockwise ? (at + 1) % _clusters
                                  : (at + _clusters - 1) % _clusters;
        total += crossLink(linkIndex(at, next), words, now + total);
        at = next;
    }
    return total;
}

std::uint64_t
Interconnect::totalMessages() const
{
    std::uint64_t n = 0;
    for (const Link &l : _links)
        n += l.stats.messages;
    return n;
}

std::uint64_t
Interconnect::totalPayloadWords() const
{
    std::uint64_t n = 0;
    for (const Link &l : _links)
        n += l.stats.payloadWords;
    return n;
}

std::uint64_t
Interconnect::totalQueueCycles() const
{
    std::uint64_t n = 0;
    for (const Link &l : _links)
        n += l.stats.queueCycles;
    return n;
}

} // namespace retcon::net
