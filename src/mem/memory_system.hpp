/**
 * @file
 * Timed coherent memory hierarchy for the simulated multicore.
 *
 * Models the Table 1 machine: per-core L1 (64KB/4-way) and private L2
 * (1MB/4-way) with 64B blocks, a directory protocol with 20-cycle hops,
 * 10-cycle L2 hits and 100-cycle DRAM. The geometries and latencies
 * are fixed constants below, not options. State transitions (directory
 * and tag arrays) are applied atomically at request time, and each
 * branch of the coherence transition adds its own protocol latency; an
 * access returns only that latency, which schedules when the
 * requesting core may continue. Each request reads its directory entry
 * once. This keeps
 * the interleaving of memory operations — the thing conflict behaviour
 * depends on — cycle-accurate while avoiding transient protocol states.
 *
 * The HTM layer is notified of every coherence-driven invalidation and
 * every capacity eviction through CoherenceListener, which is how
 * speculative blocks get "stolen away" (RETCON §4) or overflow into the
 * permissions-only cache (OneTM).
 */

#ifndef RETCON_MEM_MEMORY_SYSTEM_HPP
#define RETCON_MEM_MEMORY_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/sparse_memory.hpp"
#include "net/interconnect.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace retcon::mem {

/// Fixed access latencies (cycles) of the Table 1 machine.
inline constexpr Cycle kL1HitCycles = 1;
inline constexpr Cycle kL2HitCycles = 10;
inline constexpr Cycle kHopCycles = 20;   ///< Directory/interconnect hop.
inline constexpr Cycle kDramCycles = 100; ///< DRAM lookup.

/// Fixed cache geometries of the Table 1 machine.
inline constexpr CacheGeometry kL1Geometry{64 * 1024, 4};
inline constexpr CacheGeometry kL2Geometry{1024 * 1024, 4};
/// OneTM permissions-only cache (one per core, owned by the HTM layer).
inline constexpr CacheGeometry kPermOnlyGeometry{4 * 1024, 4};

/** Directory timing beyond the fixed latencies above. */
struct MemTimingConfig {
    /**
     * Cycles a directory bank is occupied servicing one request
     * (0 = occupancy unmodeled, the PR-3 behaviour). With a nonzero
     * occupancy, a request that reaches a bank still busy with an
     * earlier request slips until the bank frees up — the stall is
     * added to the access latency and counted in the bank stats. This
     * is the serialization a monolithic (1-bank) directory suffers and
     * banking removes; with occupancy unmodeled the bank count is
     * performance-transparent and results are bit-identical for any
     * value.
     */
    Cycle bankOccupancy = 0;
};

/** Receives notifications about blocks leaving a core's caches. */
class CoherenceListener
{
  public:
    virtual ~CoherenceListener() = default;

    /**
     * @p victim lost its copy of @p block because @p by performed a
     * coherence request. @p by_write is true for invalidations (remote
     * write), false for downgrades M->S (remote read).
     */
    virtual void onRemoteTake(CoreId victim, Addr block, CoreId by,
                              bool by_write) = 0;

    /** @p victim lost @p block to a capacity eviction from its L2. */
    virtual void onCapacityEvict(CoreId victim, Addr block) = 0;
};

/**
 * The coherent cache hierarchy shared by all cores.
 *
 * Functional data lives in SparseMemory and is read/written directly by
 * the TM layer; this class models permissions and timing only.
 */
class MemorySystem
{
  public:
    /** Per-bank request/occupancy counters (see MemTimingConfig). */
    struct BankStats {
        std::uint64_t requests = 0;    ///< Directory visits (misses).
        std::uint64_t stalled = 0;     ///< Requests that found the bank busy.
        std::uint64_t stallCycles = 0; ///< Total slip cycles.
    };

    /**
     * Slow-bank fault window (src/scenario/): directory visits to one
     * address slice pay `extra` cycles while the periodic window is
     * active. The victim is an *address* class — blocks with
     * (block / kBlockBytes) mod sliceMod == sliceVictim, i.e. exactly
     * one bank of a sliceMod-banked directory — not a configured bank
     * index, so the fault is bit-identical across bank counts the
     * same way unmodeled occupancy is. period == 0 disables.
     */
    struct BankFault {
        unsigned sliceMod = 16;
        unsigned sliceVictim = 0;
        Cycle period = 0;
        Cycle len = 0;
        Cycle offset = 0;
        Cycle extra = 0;
    };

    MemorySystem(unsigned num_cores, const MemTimingConfig &timing = {},
                 unsigned num_banks = 1,
                 const net::FleetTopology &topo = {});

    /** Install (or clear, with period 0) the slow-bank fault. */
    void setBankFault(const BankFault &f) { _bankFault = f; }

    /** Directory visits that paid the slow-bank fault. */
    std::uint64_t bankFaultStalls() const { return _bankFaultStalls; }

    /** Total extra cycles charged by the slow-bank fault. */
    std::uint64_t bankFaultCycles() const { return _bankFaultCycles; }

    /** Register the (single) HTM-side listener. */
    void setListener(CoherenceListener *l) { _listener = l; }

    /**
     * Attach the fleet interconnect (non-owning; null detaches — the
     * single-cluster configuration, where no access ever pays a wire
     * crossing). When attached, a miss whose home directory bank lives
     * on another cluster pays a request/data round trip over the wire
     * on top of the protocol latency, occupying the links it crosses.
     */
    void setNet(net::Interconnect *net) { _net = net; }

    /**
     * Observe @p clock for bank-occupancy modeling (non-owning; null
     * detaches). Only read when MemTimingConfig::bankOccupancy is
     * nonzero — with occupancy unmodeled the clock is never consulted
     * and timing is clock-independent.
     */
    void setClock(const SimClock *clock) { _clock = clock; }

    /**
     * Perform a timed coherence access by @p core to @p block.
     * Applies all state transitions and @return the latency.
     */
    Cycle access(CoreId core, Addr block, bool is_write);

    /** True when @p core can read @p block without a miss. */
    bool hasReadPerm(CoreId core, Addr block) const;

    /** True when @p core can write @p block without a miss. */
    bool hasWritePerm(CoreId core, Addr block) const;

    /** The functional store. */
    SparseMemory &memory() { return _memory; }
    const SparseMemory &memory() const { return _memory; }

    unsigned numCores() const { return _numCores; }

    /** Directory bank count (1 = monolithic). */
    unsigned numBanks() const { return _directory.numBanks(); }

    /** Home directory bank of @p block. */
    unsigned bankOf(Addr block) const { return _directory.bankOf(block); }

    /** The fleet partition this memory system is carved into. */
    const net::FleetTopology &topology() const
    {
        return _directory.topology();
    }

    /** Aggregate access statistics (hits/misses/transfers). */
    const StatSet &stats() const { return _stats; }

    /** Request/occupancy counters for bank @p b. */
    const BankStats &bankStats(unsigned b) const { return _bankStats[b]; }

  private:
    struct CoreCaches {
        SetAssocCache l1{kL1Geometry};
        SetAssocCache l2{kL2Geometry};
    };

    unsigned _numCores;
    MemTimingConfig _timing;
    SparseMemory _memory;
    Directory _directory;
    std::vector<CoreCaches> _cores;
    CoherenceListener *_listener = nullptr;
    const SimClock *_clock = nullptr;
    net::Interconnect *_net = nullptr;
    StatSet _stats;

    /// Bank-occupancy model: per-bank busy-until cycle + counters.
    std::vector<Cycle> _bankFreeAt;
    std::vector<BankStats> _bankStats;

    /// Slow-bank fault window + counters (inert at period 0).
    BankFault _bankFault;
    std::uint64_t _bankFaultStalls = 0;
    std::uint64_t _bankFaultCycles = 0;

    /** Install @p block into @p core's L1+L2, handling evictions. */
    void fill(CoreId core, Addr block);

    /** Drop @p victim's copy of @p block for a write by @p by. */
    void invalidate(CoreId victim, Addr block, CoreId by);

    /**
     * Account a directory visit for @p block's home bank and @return
     * the occupancy stall (0 when unmodeled or the bank is free).
     */
    Cycle bankVisit(Addr block);
};

} // namespace retcon::mem

#endif // RETCON_MEM_MEMORY_SYSTEM_HPP
