#include "exec/fleet.hpp"

#include "sim/logging.hpp"

namespace retcon::exec {

namespace {

ClusterConfig
fleetConfig(const ClusterConfig &per, unsigned clusters,
            const net::FleetTopology &topo, net::Interconnect *net)
{
    if (clusters == 1)
        return per; // Untouched: bit-identical to a plain Cluster.
    ClusterConfig cfg = per;
    cfg.numThreads = per.numThreads * clusters;
    cfg.numShards = per.numShards * clusters;
    cfg.memBanks = per.memBanks * clusters;
    cfg.fleet = topo;
    cfg.net = net;
    return cfg;
}

} // namespace

Fleet::Fleet(const ClusterConfig &per_cluster, unsigned clusters,
             const net::NetConfig &net_cfg)
{
    sim_assert(clusters >= 1, "fleet needs at least one cluster");
    sim_assert(per_cluster.numThreads * clusters <= 64,
               "fleet-wide thread count exceeds the 64-core sharer "
               "mask");
    sim_assert(per_cluster.memBanks * clusters <= 64,
               "fleet-wide bank count exceeds the 64-bank token mask");
    net::FleetTopology topo;
    if (clusters > 1) {
        topo.clusters = clusters;
        topo.threadsPerCluster = per_cluster.numThreads;
        topo.banksPerCluster = per_cluster.memBanks;
        _net = std::make_unique<net::Interconnect>(clusters, net_cfg);
    }
    _cluster = std::make_unique<Cluster>(
        fleetConfig(per_cluster, clusters, topo, _net.get()));
}

} // namespace retcon::exec
