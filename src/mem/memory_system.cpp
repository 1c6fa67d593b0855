#include "mem/memory_system.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon::mem {

MemorySystem::MemorySystem(unsigned num_cores, const MemTimingConfig &timing,
                           const CacheConfig &caches, unsigned num_banks,
                           const net::FleetTopology &topo)
    : _numCores(num_cores), _timing(timing), _cacheConfig(caches),
      _directory(num_banks, topo)
{
    sim_assert(num_cores >= 1 && num_cores <= 64,
               "directory sharer mask supports at most 64 cores");
    sim_assert(!topo.fleet() ||
                   topo.clusters * topo.threadsPerCluster == num_cores,
               "fleet core partition must cover every core");
    _cores.reserve(num_cores);
    for (unsigned i = 0; i < num_cores; ++i)
        _cores.emplace_back(caches);
    _bankFreeAt.assign(num_banks, 0);
    _bankStats.resize(num_banks);
}

Cycle
MemorySystem::bankVisit(Addr block)
{
    unsigned bank = _directory.bankOf(block);
    BankStats &bs = _bankStats[bank];
    ++bs.requests;
    Cycle stall = 0;
    if (_timing.bankOccupancy != 0 && _clock) {
        // The request reaches the directory one hop after issue; the
        // bank services requests back to back, `bankOccupancy` cycles
        // each.
        Cycle arrive =
            _clock->now() + kL1HitCycles + kL2HitCycles + kHopCycles;
        Cycle start = std::max(arrive, _bankFreeAt[bank]);
        _bankFreeAt[bank] = start + _timing.bankOccupancy;
        stall = start - arrive;
        if (stall > 0) {
            ++bs.stalled;
            bs.stallCycles += stall;
            _stats.add("bank_stalls");
        }
    }
    if (_bankFault.period != 0 && _clock &&
        (block / kBlockBytes) % _bankFault.sliceMod ==
            _bankFault.sliceVictim) {
        Cycle now = _clock->now();
        if ((now + _bankFault.offset) % _bankFault.period <
            _bankFault.len) {
            stall += _bankFault.extra;
            ++_bankFaultStalls;
            _bankFaultCycles += _bankFault.extra;
        }
    }
    return stall;
}

bool
MemorySystem::hasReadPerm(CoreId core, Addr block) const
{
    return _directory.hasReadPerm(block, core);
}

bool
MemorySystem::hasWritePerm(CoreId core, Addr block) const
{
    return _directory.hasWritePerm(block, core);
}

Cycle
MemorySystem::peekLatency(CoreId core, Addr block, bool is_write) const
{
    Cycle lat = localLatency(core, block, is_write);
    if (_net) {
        const CoreCaches &cc = _cores[core];
        bool perm = is_write ? _directory.hasWritePerm(block, core)
                             : _directory.hasReadPerm(block, core);
        bool hit = perm && (cc.l1.contains(block) || cc.l2.contains(block));
        unsigned src = topology().clusterOfCore(core);
        unsigned home = topology().clusterOfAddr(block);
        if (!hit && src != home)
            lat += _net->staticLatency(src, home, net::kCtrlMsgWords) +
                   _net->staticLatency(home, src, net::kDataMsgWords);
    }
    return lat;
}

Cycle
MemorySystem::localLatency(CoreId core, Addr block, bool is_write) const
{
    const CoreCaches &cc = _cores[core];
    bool perm = is_write ? _directory.hasWritePerm(block, core)
                         : _directory.hasReadPerm(block, core);
    if (perm && cc.l1.contains(block))
        return kL1HitCycles;
    if (perm && cc.l2.contains(block))
        return kL1HitCycles + kL2HitCycles;

    // Miss: L1 issue + L2 lookup + hop to directory...
    Cycle lat = kL1HitCycles + kL2HitCycles + kHopCycles;
    DirEntry e = _directory.lookup(block);
    if (e.state == DirState::Modified && e.owner != core) {
        // Forward to owner; owner L2 access; data to requester.
        lat += kHopCycles + kL2HitCycles + kHopCycles;
    } else if (e.state == DirState::Shared && is_write) {
        // Invalidate sharers (parallel) + ack; data from memory if the
        // requester lacks a copy.
        bool requester_shares = (e.sharers >> core) & 1;
        lat += 2 * kHopCycles;
        if (!requester_shares)
            lat += kDramCycles;
    } else if (e.state == DirState::Shared && !is_write) {
        // Clean data supplied by memory.
        lat += kDramCycles + kHopCycles;
    } else {
        // Invalid at directory: fetch from DRAM.
        lat += kDramCycles + kHopCycles;
    }
    return lat;
}

void
MemorySystem::fill(CoreId core, Addr block)
{
    CoreCaches &cc = _cores[core];
    // Inclusive hierarchy: L2 first; an L2 eviction kicks the block out
    // of L1 as well and surrenders directory permissions.
    if (auto evicted = cc.l2.insert(block)) {
        cc.l1.invalidate(*evicted);
        _directory.dropCore(*evicted, core);
        _stats.add("l2_evictions");
        if (_listener)
            _listener->onCapacityEvict(core, *evicted);
    }
    if (auto evicted = cc.l1.insert(block)) {
        // L1 victim stays in L2 (inclusive), no permission change.
        (void)evicted;
        _stats.add("l1_evictions");
    }
}

void
MemorySystem::invalidateRemotes(CoreId core, Addr block)
{
    DirEntry e = _directory.lookup(block);
    if (e.state == DirState::Modified && e.owner != core) {
        CoreId victim = e.owner;
        _cores[victim].l1.invalidate(block);
        _cores[victim].l2.invalidate(block);
        if (_listener)
            _listener->onRemoteTake(victim, block, core, true);
    } else if (e.state == DirState::Shared) {
        for (CoreId v = 0; v < _numCores; ++v) {
            if (v == core || !((e.sharers >> v) & 1))
                continue;
            _cores[v].l1.invalidate(block);
            _cores[v].l2.invalidate(block);
            if (_listener)
                _listener->onRemoteTake(v, block, core, true);
        }
    }
}

AccessResult
MemorySystem::access(CoreId core, Addr block, bool is_write)
{
    sim_assert(core < _numCores, "access from unknown core %u", core);
    sim_assert(blockAddr(block) == block, "access must be block-aligned");

    AccessResult res;
    res.latency = localLatency(core, block, is_write);

    CoreCaches &cc = _cores[core];
    bool perm = is_write ? _directory.hasWritePerm(block, core)
                         : _directory.hasReadPerm(block, core);

    if (perm && cc.l1.contains(block)) {
        res.l1Hit = true;
        cc.l1.touch(block);
        cc.l2.touch(block);
        _stats.add("l1_hits");
        return res;
    }
    if (perm && cc.l2.contains(block)) {
        res.l2Hit = true;
        cc.l2.touch(block);
        // Refill L1 from L2.
        if (auto evicted = cc.l1.insert(block))
            (void)evicted;
        _stats.add("l2_hits");
        return res;
    }

    _stats.add(is_write ? "write_misses" : "read_misses");
    // The miss visits the block's home directory bank; a busy bank
    // slips the request (0 when occupancy is unmodeled).
    res.latency += bankVisit(block);
    // A miss homed on another cluster's bank pays the wire: a control
    // request out, a data-bearing reply back, occupying the links it
    // crosses (hot links queue later traffic).
    if (_net) {
        unsigned src = topology().clusterOfCore(core);
        unsigned home = topology().clusterOfAddr(block);
        if (src != home) {
            Cycle now = _clock ? _clock->now() : 0;
            Cycle wire = _net->roundTrip(src, home, net::kCtrlMsgWords,
                                         net::kDataMsgWords, now);
            res.latency += wire;
            res.remoteCluster = true;
            _stats.add("xc_accesses");
            _stats.add("xc_access_cycles", static_cast<double>(wire));
        }
    }
    DirEntry pre = _directory.lookup(block);

    if (is_write) {
        res.remoteTransfer =
            pre.state == DirState::Modified && pre.owner != core;
        res.dramAccess = pre.state == DirState::Invalid ||
                         (pre.state == DirState::Shared &&
                          !((pre.sharers >> core) & 1));
        invalidateRemotes(core, block);
        DirEntry &e = _directory.entry(block);
        e.state = DirState::Modified;
        e.owner = core;
        e.sharers = 0;
    } else {
        DirEntry &e = _directory.entry(block);
        if (e.state == DirState::Modified && e.owner != core) {
            // Downgrade owner to sharer; data forwarded cache-to-cache.
            res.remoteTransfer = true;
            CoreId owner = e.owner;
            e.state = DirState::Shared;
            e.sharers = (std::uint64_t(1) << owner) |
                        (std::uint64_t(1) << core);
            e.owner = kNoCore;
            if (_listener)
                _listener->onRemoteTake(owner, block, core, false);
        } else if (e.state == DirState::Invalid) {
            res.dramAccess = true;
            e.state = DirState::Shared;
            e.sharers = std::uint64_t(1) << core;
        } else {
            // Shared (or own-Modified refetch after L2 eviction).
            if (e.state == DirState::Shared) {
                res.dramAccess = true;
                e.sharers |= std::uint64_t(1) << core;
            }
        }
    }

    if (res.remoteTransfer)
        _stats.add("cache_to_cache");
    if (res.dramAccess)
        _stats.add("dram_accesses");

    fill(core, block);
    return res;
}

void
MemorySystem::flushBlock(CoreId core, Addr block)
{
    CoreCaches &cc = _cores[core];
    cc.l1.invalidate(block);
    cc.l2.invalidate(block);
    _directory.dropCore(block, core);
}

} // namespace retcon::mem
