/**
 * @file
 * Clustered snooping-bus topology (docs/ARCHITECTURE.md).
 *
 * The paper's machine hangs every PE off one snooping bus; past a few
 * dozen PEs that bus saturates (fig3's extension measures where). The
 * clustered topology partitions the PEs into fixed-size clusters, each
 * with its own snooping bus and its own port into the banked shared
 * memory, joined by a contention-free point-to-point interconnect (a
 * crossbar: only the buses serialize, crossings between disjoint
 * cluster pairs overlap freely). The residency filter's exact per-PE
 * masks (src/bus/residency_filter.h) say which clusters hold copies or
 * locks of each block, so a transaction reserves — and pays hop cycles
 * for — only the cluster buses that must actually be consulted.
 * Transactions whose routes touch disjoint buses overlap in time; that
 * overlap is the whole scaling win. The paper's single bus is the
 * one-cluster case of the same model: every transaction reserves cluster
 * 0's bus and pays no hops.
 *
 * Timing model (circuit-switched reservation): arbitration starts a
 * transaction at max(request time, free time of every reserved bus) —
 * the local cluster bus plus each routed remote cluster bus. All
 * reserved buses stay busy until the transaction completes, matching
 * the paper's assumption 3 (the bus is not freed until the operation
 * completes) per bus. Crossing costs are charged by the Bus into
 * BusStats::interClusterCycles: a round trip (2 x hopCycles) per remote
 * cluster consulted, one flood (hopCycles) for broadcasts. Memory never
 * pays hops — each cluster reaches its bank through its own port.
 *
 * Snoop *semantics* are untouched: the PE-level walk still visits
 * exactly the residency filter's copy/lock holders in ascending PE
 * order, so every topology lock-steps to identical protocol outcomes —
 * which pim_conform proves against the RefMachine with clustering on.
 */

#ifndef PIMCACHE_BUS_CLUSTER_BUS_H_
#define PIMCACHE_BUS_CLUSTER_BUS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace pim {

/** How the PEs are partitioned into snooping-bus clusters. */
struct ClusterConfig {
    /**
     * PEs per cluster; 0 keeps the paper's single shared bus. PE p
     * belongs to cluster p / clusterSize, so a machine of P PEs has
     * ceil(P / clusterSize) clusters (at most 64: a route's cluster
     * set is one 64-bit mask).
     */
    std::uint32_t clusterSize = 0;

    /** One-way interconnect crossing cost in bus cycles. */
    std::uint32_t hopCycles = 4;

    /** True when a clustered topology is configured at all. */
    bool clustered() const { return clusterSize > 0; }

    /** Cluster of @p pe (0 on the single-bus topology). */
    std::uint32_t
    clusterOf(PeId pe) const
    {
        return clusterSize > 0 ? pe / clusterSize : 0;
    }

    /** Clusters a machine of @p num_pes PEs partitions into. */
    std::uint32_t
    clustersFor(std::uint32_t num_pes) const
    {
        if (clusterSize == 0 || num_pes == 0)
            return 1;
        return (num_pes + clusterSize - 1) / clusterSize;
    }

    bool operator==(const ClusterConfig&) const = default;
};

/**
 * Per-cluster bus and interconnect occupancy. Owned by the Bus; a
 * single-bus topology (clusterSize 0, or every PE in one cluster) has
 * one cluster, whose bus is the paper's shared bus.
 */
class ClusterTopology
{
  public:
    explicit ClusterTopology(const ClusterConfig& config = ClusterConfig{})
        : config_(config)
    {
    }

    /** Note that @p pe participates (grows the cluster count). */
    void
    registerPe(PeId pe)
    {
        const std::uint32_t cluster = config_.clusterOf(pe);
        if (cluster >= numClusters_)
            numClusters_ = cluster + 1;
        if (freeAt_.size() < numClusters_)
            freeAt_.resize(numClusters_, 0);
    }

    const ClusterConfig& config() const { return config_; }
    std::uint32_t numClusters() const { return numClusters_; }
    Cycles hopCycles() const { return config_.hopCycles; }

    std::uint32_t clusterOf(PeId pe) const { return config_.clusterOf(pe); }

    /** Bit mask of every cluster except @p local. */
    std::uint64_t
    allRemote(std::uint32_t local) const
    {
        const std::uint64_t all = numClusters_ >= 64
                                      ? ~0ull
                                      : (1ull << numClusters_) - 1;
        return all & ~(1ull << local);
    }

    /**
     * Earliest start for a transaction from cluster @p local routed to
     * the @p remote cluster set (the crossbar itself never blocks, so
     * only the routed buses constrain the start).
     */
    Cycles
    arbitrate(std::uint32_t local, std::uint64_t remote, Cycles when) const
    {
        Cycles start = when;
        if (local < freeAt_.size() && freeAt_[local] > start)
            start = freeAt_[local];
        std::uint64_t mask = remote;
        while (mask != 0) {
            const std::uint32_t cluster =
                static_cast<std::uint32_t>(__builtin_ctzll(mask));
            mask &= mask - 1;
            if (cluster < freeAt_.size() && freeAt_[cluster] > start)
                start = freeAt_[cluster];
        }
        return start;
    }

    /** Hold every routed bus busy until @p until. */
    void
    occupy(std::uint32_t local, std::uint64_t remote, Cycles until)
    {
        if (local < freeAt_.size())
            freeAt_[local] = until;
        std::uint64_t mask = remote;
        while (mask != 0) {
            const std::uint32_t cluster =
                static_cast<std::uint32_t>(__builtin_ctzll(mask));
            mask &= mask - 1;
            if (cluster < freeAt_.size())
                freeAt_[cluster] = until;
        }
    }

    /** Free time of cluster @p cluster's bus (introspection). */
    Cycles
    clusterFreeAt(std::uint32_t cluster) const
    {
        return cluster < freeAt_.size() ? freeAt_[cluster] : 0;
    }

  private:
    ClusterConfig config_;
    std::uint32_t numClusters_ = 1;
    /** Per-cluster bus busy-until; cluster 0 exists before any attach. */
    std::vector<Cycles> freeAt_ = std::vector<Cycles>(1, 0);
};

} // namespace pim

#endif // PIMCACHE_BUS_CLUSTER_BUS_H_
