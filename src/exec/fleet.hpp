/**
 * @file
 * Fleet: N clusters joined by a modeled interconnect.
 *
 * A fleet is simulated as ONE shared substrate — one sharded event
 * queue, one memory system, one TM machine — whose cores, event-queue
 * shards, directory banks, and heap regions are partitioned
 * cluster-contiguously (net::FleetTopology). "Independent clusters"
 * means no structural resource crosses a cluster boundary: cores only
 * map onto their own cluster's shard slice, work stealing is scoped to
 * that slice, and every address homes on its owner cluster's bank
 * slice. All cross-cluster interaction — a coherence miss to a remote
 * cluster's bank, a commit token for a remote bank (the two-level
 * commit protocol) — is charged to the interconnect
 * (net/interconnect.hpp).
 *
 * The single substrate is what keeps fleet runs deterministic and the
 * provenance stream globally ordered: TMMachine's audit sequence is
 * already fleet-global, so trace::ShardMux merges every cluster's
 * shards into one stream the ReenactmentValidator can replay across
 * cluster boundaries — a forwarding chain that spans clusters reenacts
 * exactly like a local one.
 *
 * With clusters == 1 no interconnect is built (null wire) and the
 * per-cluster configuration passes through untouched, so a 1-cluster
 * fleet is bit-identical to a plain Cluster.
 */

#ifndef RETCON_EXEC_FLEET_HPP
#define RETCON_EXEC_FLEET_HPP

#include <memory>

#include "exec/cluster.hpp"
#include "net/interconnect.hpp"

namespace retcon::exec {

/** N identically-sized clusters behind one wire. */
class Fleet
{
  public:
    /**
     * @p per_cluster sizes ONE cluster (numThreads/numShards/memBanks
     * are per-cluster here); the fleet multiplies them by @p clusters
     * and partitions the shared substrate. Fleet-wide totals must
     * respect the machine limits (64 cores, 64 banks).
     */
    Fleet(const ClusterConfig &per_cluster, unsigned clusters,
          const net::NetConfig &net_cfg = {});

    /** The shared substrate (its config holds fleet-wide totals). */
    Cluster &cluster() { return *_cluster; }
    const Cluster &cluster() const { return *_cluster; }

    /** The wire; null when clusters == 1. */
    net::Interconnect *net() { return _net.get(); }
    const net::Interconnect *net() const { return _net.get(); }

  private:
    std::unique_ptr<net::Interconnect> _net;
    std::unique_ptr<Cluster> _cluster;
};

} // namespace retcon::exec

#endif // RETCON_EXEC_FLEET_HPP
