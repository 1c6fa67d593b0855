/**
 * @file
 * Modeled inter-cluster interconnect: latency, per-link bandwidth with
 * queueing, and a topology (crossbar or ring).
 *
 * The fleet's clusters exchange two kinds of traffic: coherence
 * requests that miss to a remote cluster's directory bank, and
 * commit-token messages of the two-level commit protocol
 * (htm::TMMachine). Both follow the machine's synchronous-latency
 * idiom: the sender asks the interconnect how long the message takes
 * and waits that long — the interconnect never schedules events
 * itself, so fleet runs stay exactly as deterministic as single-
 * cluster runs.
 *
 * Topologies:
 *  - Crossbar: one dedicated directed link per (src, dst) pair; every
 *    message is one hop of `linkLatency` cycles.
 *  - Ring: C directed clockwise links (c -> c+1 mod C) and C counter-
 *    clockwise links; a message takes the shorter direction and pays
 *    `linkLatency` per hop, occupying every link it crosses.
 *
 * Bandwidth: each directed link transfers `linkBandwidth` words per
 * cycle (0 = unlimited). A message occupies a link for
 * ceil(words / bandwidth) cycles; a message arriving while the link
 * is still draining an earlier one queues behind it, and the wait is
 * counted in the link's stats — this is how hot links slip under
 * cross-cluster load.
 */

#ifndef RETCON_NET_INTERCONNECT_HPP
#define RETCON_NET_INTERCONNECT_HPP

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/types.hpp"

namespace retcon::net {

/** Interconnect wiring shape. */
enum class Topology : std::uint8_t {
    Crossbar, ///< Fixed-latency all-to-all (one hop between any pair).
    Ring,     ///< Bidirectional ring; latency scales with hop count.
};

/** Parse "crossbar" / "ring"; fatal()s on unknown names. */
Topology topologyFromName(const char *name);

/** Interconnect knobs (api::RunConfig::{netTopology,netLatency,...}). */
struct NetConfig {
    Topology topology = Topology::Crossbar;

    /** Cycles per link traversal (one hop). */
    Cycle linkLatency = 50;

    /**
     * Words per cycle each directed link transfers; 0 = unlimited
     * (pure latency, no queueing — the performance-transparent
     * default for correctness sweeps).
     */
    unsigned linkBandwidth = 0;
};

/** Typical message payloads, in words (header + content). */
inline constexpr unsigned kCtrlMsgWords = 2;  ///< Request/ack/token.
inline constexpr unsigned kDataMsgWords =
    2 + static_cast<unsigned>(kWordsPerBlock); ///< Header + one block.

/** The modeled fabric joining a fleet's clusters. */
class Interconnect
{
  public:
    /** Lifetime counters, per directed link. */
    struct LinkStats {
        unsigned src = 0;
        unsigned dst = 0;
        std::uint64_t messages = 0;    ///< Messages crossing this link.
        std::uint64_t payloadWords = 0;
        std::uint64_t queueCycles = 0; ///< Waits behind earlier traffic.
    };

    /**
     * Degraded-link fault window (src/scenario/): the one directed
     * link `link` multiplies its hop latency by `latencyMult` while
     * the periodic window — ((now + offset) mod period) < len — is
     * active. period == 0 disables. Deterministic in simulated time,
     * so faulted fleet runs stay exactly as deterministic as healthy
     * ones.
     */
    struct LinkFault {
        unsigned link = 0;
        Cycle period = 0;
        Cycle len = 0;
        Cycle offset = 0;
        unsigned latencyMult = 1;
    };

    Interconnect(unsigned clusters, const NetConfig &cfg);

    /** Install (or clear, with period 0) the degraded-link fault. */
    void setLinkFault(const LinkFault &f) { _linkFault = f; }

    /** Messages that crossed the degraded link inside a window. */
    std::uint64_t faultMessages() const { return _faultMessages; }

    /** Total extra latency cycles the degraded link imposed. */
    std::uint64_t faultExtraCycles() const { return _faultExtra; }

    /**
     * Deliver a @p words-word message from cluster @p src to @p dst,
     * starting at cycle @p now. Occupies every link on the route and
     * @return the delivery latency (queueing included). src == dst is
     * free (no link crossed, nothing counted).
     */
    Cycle deliver(unsigned src, unsigned dst, unsigned words, Cycle now);

    /**
     * Request/response round trip: @p reqWords to @p dst, @p respWords
     * back. The response departs after the request arrives.
     */
    Cycle
    roundTrip(unsigned src, unsigned dst, unsigned reqWords,
              unsigned respWords, Cycle now)
    {
        if (src == dst)
            return 0;
        Cycle there = deliver(src, dst, reqWords, now);
        return there + deliver(dst, src, respWords, now + there);
    }

    unsigned numLinks() const
    {
        return static_cast<unsigned>(_links.size());
    }
    const LinkStats &linkStats(unsigned link) const
    {
        return _links[link].stats;
    }

    /** Fleet-wide totals over all links. */
    std::uint64_t totalMessages() const;
    std::uint64_t totalPayloadWords() const;
    std::uint64_t totalQueueCycles() const;

  private:
    struct Link {
        Cycle freeAt = 0; ///< Busy draining earlier traffic until here.
        LinkStats stats;
    };

    unsigned _clusters;
    NetConfig _cfg;
    std::vector<Link> _links;
    LinkFault _linkFault;
    std::uint64_t _faultMessages = 0;
    std::uint64_t _faultExtra = 0;

    /** Cycles a @p words-word message occupies one link. */
    Cycle serializeCycles(unsigned words) const;

    /** Directed link index for one hop @p src -> @p dst (adjacent in
     *  the topology; crossbar pairs are always adjacent). */
    unsigned linkIndex(unsigned src, unsigned dst) const;

    /** Cross one link now; @return latency including queueing. */
    Cycle crossLink(unsigned link, unsigned words, Cycle now);
};

} // namespace retcon::net

#endif // RETCON_NET_INTERCONNECT_HPP
