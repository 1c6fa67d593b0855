/**
 * @file
 * Fundamental simulator-wide type aliases and block-geometry helpers.
 *
 * The simulated machine is a 64-bit word-addressable multiprocessor with
 * 64-byte coherence blocks (Table 1 of the RETCON paper). All modules
 * share these aliases so that address arithmetic is consistent.
 */

#ifndef RETCON_SIM_TYPES_HPP
#define RETCON_SIM_TYPES_HPP

#include <cstdint>

namespace retcon {

/** Simulated time in processor cycles. */
using Cycle = std::uint64_t;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Identifier of a simulated core (0-based). */
using CoreId = std::uint32_t;

/** A 64-bit simulated machine word. */
using Word = std::uint64_t;

/** Sentinel core id meaning "no core" / "memory". */
inline constexpr CoreId kNoCore = static_cast<CoreId>(-1);

/** Coherence/cache block size in bytes (Table 1: 64B blocks). */
inline constexpr Addr kBlockBytes = 64;

/** Bytes per simulated machine word. */
inline constexpr Addr kWordBytes = 8;

/** Words per coherence block. */
inline constexpr Addr kWordsPerBlock = kBlockBytes / kWordBytes;

/** Round a byte address down to its containing block address. */
constexpr Addr
blockAddr(Addr a)
{
    return a & ~(kBlockBytes - 1);
}

/** Round a byte address down to its containing word address. */
constexpr Addr
wordAddr(Addr a)
{
    return a & ~(kWordBytes - 1);
}

/** Index of the word within its block (0..7). */
constexpr unsigned
wordInBlock(Addr a)
{
    return static_cast<unsigned>((a & (kBlockBytes - 1)) / kWordBytes);
}

/** Byte offset within the containing word (0..7). */
constexpr unsigned
byteInWord(Addr a)
{
    return static_cast<unsigned>(a & (kWordBytes - 1));
}

/**
 * The periodic fault-window rule shared by every injected fault (core
 * stalls, slow directory banks, slow fleet links): true when
 * ((now + offset) mod period) < len; period 0 = never.
 */
constexpr bool
windowActive(Cycle now, Cycle period, Cycle len, Cycle offset)
{
    return period != 0 && (now + offset) % period < len;
}

/**
 * Read-only view of a simulated clock.
 *
 * The event kernel (sim/sharded_queue.hpp) implements this; consumers
 * that only observe time (the TM machine stamps latencies and
 * provenance records but never schedules, the memory system reads bank
 * occupancy against it) depend on this view, not on the scheduler.
 */
class SimClock
{
  public:
    virtual ~SimClock() = default;

    /** Current simulated cycle. */
    virtual Cycle now() const = 0;
};

} // namespace retcon

#endif // RETCON_SIM_TYPES_HPP
