/**
 * @file
 * Banked directory-based coherence bookkeeping (MSI states, Table 1
 * machine).
 *
 * One directory entry per coherence block: Invalid (no cached copy),
 * Shared (read-only copies in `sharers`), or Modified (one owning core).
 * State transitions are applied atomically at request time, in the
 * same branch of MemorySystem::access that adds the corresponding
 * protocol messages' latency.
 *
 * Every block is homed on one of N address-interleaved banks
 * (`bankOf`, a pure function of the address), mirroring how the event
 * queue is sharded. A bank is only that home: the entries live in one
 * block->entry map, so the bank count never changes protocol
 * behaviour — it gives MemorySystem a structural unit to model
 * occupancy and queuing against, and gives the TM machine a unit of
 * commit-token arbitration. With one bank every block homes on bank 0.
 */

#ifndef RETCON_MEM_DIRECTORY_HPP
#define RETCON_MEM_DIRECTORY_HPP

#include <cstdint>
#include <unordered_map>

#include "net/topology.hpp"
#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace retcon::mem {

/** Coherence state of a block at the directory. */
enum class DirState : std::uint8_t { Invalid, Shared, Modified };

/** Per-block directory entry. Sharer set is a 64-bit mask (<=64 cores). */
struct DirEntry {
    DirState state = DirState::Invalid;
    CoreId owner = kNoCore;
    std::uint64_t sharers = 0;

    /** True when @p core holds a readable copy. */
    bool
    readable(CoreId core) const
    {
        if (state == DirState::Modified)
            return owner == core;
        return state == DirState::Shared && ((sharers >> core) & 1);
    }

    /** True when @p core holds exclusive/write permission. */
    bool
    writable(CoreId core) const
    {
        return state == DirState::Modified && owner == core;
    }
};

/** The full-machine directory: one block->entry map, N home banks. */
class Directory
{
  public:
    /** At most 64 banks (commit-token sets are 64-bit masks). */
    static constexpr unsigned kMaxBanks = 64;

    explicit Directory(unsigned num_banks = 1,
                       const net::FleetTopology &topo = {})
        : _numBanks(num_banks), _topo(topo)
    {
        sim_assert(num_banks >= 1 && num_banks <= kMaxBanks,
                   "directory bank count out of range (1..%u)",
                   kMaxBanks);
        sim_assert(!_topo.fleet() ||
                       _topo.clusters * _topo.banksPerCluster ==
                           num_banks,
                   "fleet bank partition must cover every bank");
    }

    unsigned numBanks() const { return _numBanks; }

    /**
     * Home bank of @p block. The block index is mixed (Fibonacci
     * multiplicative hash) before the modulo so strided or clustered
     * hot sets — Zipfian hashtable buckets, queue heads — spread
     * across banks instead of camping on one; a plain low-order
     * interleave left one bank carrying most of the service
     * workload's stall cycles.
     *
     * In a fleet, a block homes on a bank of its address's home
     * *cluster* (net::FleetTopology heap regions) and the hash picks
     * among that cluster's banks only — so a cluster's state lives
     * entirely behind its own directory slice and a remote access is
     * structurally a visit to another cluster's bank. With one
     * cluster this reduces to exactly the fleet-unaware interleave.
     */
    unsigned
    bankOf(Addr block) const
    {
        std::uint64_t idx = block / kBlockBytes;
        idx *= 0x9E3779B97F4A7C15ull;
        if (!_topo.fleet())
            return static_cast<unsigned>((idx >> 32) % _numBanks);
        unsigned cluster = _topo.clusterOfAddr(block);
        return cluster * _topo.banksPerCluster +
               static_cast<unsigned>((idx >> 32) %
                                     _topo.banksPerCluster);
    }

    const net::FleetTopology &topology() const { return _topo; }

    /** Look up (never creating) the entry for @p block. */
    DirEntry
    lookup(Addr block) const
    {
        auto it = _entries.find(block);
        return it == _entries.end() ? DirEntry{} : it->second;
    }

    /** Mutable entry for @p block, created Invalid on first touch. */
    DirEntry &entry(Addr block) { return _entries[block]; }

    /** True when @p core holds a readable copy per the directory. */
    bool
    hasReadPerm(Addr block, CoreId core) const
    {
        return lookup(block).readable(core);
    }

    /** True when @p core holds exclusive/write permission. */
    bool
    hasWritePerm(Addr block, CoreId core) const
    {
        return lookup(block).writable(core);
    }

    /** Remove @p core from the sharer/owner info (eviction). */
    void
    dropCore(Addr block, CoreId core)
    {
        auto it = _entries.find(block);
        if (it == _entries.end())
            return;
        DirEntry &e = it->second;
        if (e.state == DirState::Modified && e.owner == core) {
            e.state = DirState::Invalid;
            e.owner = kNoCore;
        } else if (e.state == DirState::Shared) {
            e.sharers &= ~(std::uint64_t(1) << core);
            if (e.sharers == 0)
                e.state = DirState::Invalid;
        }
    }

  private:
    unsigned _numBanks;
    net::FleetTopology _topo;
    std::unordered_map<Addr, DirEntry> _entries;
};

} // namespace retcon::mem

#endif // RETCON_MEM_DIRECTORY_HPP
