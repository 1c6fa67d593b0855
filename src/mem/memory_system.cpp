#include "mem/memory_system.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace retcon::mem {

MemorySystem::MemorySystem(unsigned num_cores, const MemTimingConfig &timing,
                           unsigned num_banks,
                           const net::FleetTopology &topo)
    : _numCores(num_cores), _timing(timing), _directory(num_banks, topo),
      _cores(num_cores)
{
    sim_assert(num_cores >= 1 && num_cores <= 64,
               "directory sharer mask supports at most 64 cores");
    sim_assert(!topo.fleet() ||
                   topo.clusters * topo.threadsPerCluster == num_cores,
               "fleet core partition must cover every core");
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
    const BankFault &f = _bankFault;
    if (_clock && windowActive(_clock->now(), f.period, f.len, f.offset) &&
        (block / kBlockBytes) % f.sliceMod == f.sliceVictim) {
        stall += f.extra;
        ++_bankFaultStalls;
        _bankFaultCycles += f.extra;
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
MemorySystem::invalidate(CoreId victim, Addr block, CoreId by)
{
    _cores[victim].l1.invalidate(block);
    _cores[victim].l2.invalidate(block);
    if (_listener)
        _listener->onRemoteTake(victim, block, by, true);
}

Cycle
MemorySystem::access(CoreId core, Addr block, bool is_write)
{
    sim_assert(core < _numCores, "access from unknown core %u", core);
    sim_assert(blockAddr(block) == block, "access must be block-aligned");

    CoreCaches &cc = _cores[core];
    // The request's one directory read. The reference stays valid
    // through the whole transition: map inserts never move entries and
    // nothing erases one.
    DirEntry &e = _directory.entry(block);
    bool perm = is_write ? e.writable(core) : e.readable(core);

    if (perm && cc.l1.contains(block)) {
        cc.l1.touch(block);
        cc.l2.touch(block);
        _stats.add("l1_hits");
        return kL1HitCycles;
    }
    if (perm && cc.l2.contains(block)) {
        cc.l2.touch(block);
        // Refill L1 from L2.
        cc.l1.insert(block);
        _stats.add("l2_hits");
        return kL1HitCycles + kL2HitCycles;
    }

    _stats.add(is_write ? "write_misses" : "read_misses");
    // Miss: L1 issue + L2 lookup + hop to the block's home directory
    // bank; a busy bank slips the request (0 when occupancy is
    // unmodeled).
    Cycle latency =
        kL1HitCycles + kL2HitCycles + kHopCycles + bankVisit(block);
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
            latency += wire;
            _stats.add("xc_accesses");
            _stats.add("xc_access_cycles", static_cast<double>(wire));
        }
    }

    const std::uint64_t me = std::uint64_t(1) << core;
    if (e.state == DirState::Modified && e.owner != core) {
        // Forward to owner; owner L2 access; data to requester.
        latency += kHopCycles + kL2HitCycles + kHopCycles;
        _stats.add("cache_to_cache");
        CoreId owner = e.owner;
        if (is_write) {
            invalidate(owner, block, core);
        } else {
            // Downgrade owner to sharer; data forwarded cache-to-cache.
            e.state = DirState::Shared;
            e.sharers = (std::uint64_t(1) << owner) | me;
            e.owner = kNoCore;
            if (_listener)
                _listener->onRemoteTake(owner, block, core, false);
        }
    } else if (e.state == DirState::Shared && is_write) {
        // Invalidate sharers (parallel) + ack; data from memory if the
        // requester lacks a copy.
        latency += 2 * kHopCycles;
        if (!(e.sharers & me)) {
            latency += kDramCycles;
            _stats.add("dram_accesses");
        }
        std::uint64_t others = e.sharers & ~me;
        for (CoreId v = 0; v < _numCores; ++v)
            if ((others >> v) & 1)
                invalidate(v, block, core);
    } else if (e.state == DirState::Shared) {
        // Clean data supplied by memory.
        latency += kDramCycles + kHopCycles;
        _stats.add("dram_accesses");
        e.sharers |= me;
    } else {
        // Invalid at directory, or the requester's own Modified block
        // refetched after an L2 eviction: fetch from DRAM.
        latency += kDramCycles + kHopCycles;
        if (e.state == DirState::Invalid) {
            _stats.add("dram_accesses");
            if (!is_write) {
                e.state = DirState::Shared;
                e.sharers = me;
            }
        }
    }
    if (is_write) {
        e.state = DirState::Modified;
        e.owner = core;
        e.sharers = 0;
    }

    fill(core, block);
    return latency;
}

} // namespace retcon::mem
