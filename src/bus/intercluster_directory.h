/**
 * @file
 * Inter-cluster residency directory (docs/ARCHITECTURE.md).
 *
 * The clustered topology's routing oracle: for every cache block it
 * records the set of clusters with at least one cached copy and the set
 * of clusters with at least one lock-directory entry, each as one
 * 64-bit cluster mask (whence the <= 64-cluster limit). The Bus
 * consults it before every transaction to reserve — and charge hop
 * cycles for — only the cluster buses that can possibly respond, in the
 * spirit of BlackParrot BedRock's directory-tracked invalidation sets.
 *
 * A directory entry is a pure summary of the residency filter's exact
 * per-PE masks: cluster c is in a block's copy set iff some PE of
 * cluster c holds a copy. Maintenance rides on the same eager
 * notifications that keep the filter exact (every fill, eviction, purge
 * and lock acquire/release); on a removal the directory re-checks the
 * departing PE's cluster range in the filter and clears the cluster bit
 * only when the last copy left. The summary is therefore exact — not a
 * conservative superset.
 *
 * Storage is paged like the filter's: two words per block, pages
 * materialized on first touch.
 */

#ifndef PIMCACHE_BUS_INTERCLUSTER_DIRECTORY_H_
#define PIMCACHE_BUS_INTERCLUSTER_DIRECTORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bus/cluster_bus.h"
#include "bus/residency_filter.h"
#include "common/types.h"

namespace pim {

/** Per-block cluster-residency sets (copy clusters, lock clusters). */
class InterClusterDirectory
{
  public:
    /** Block entries per storage page (entry = 2 words). */
    static constexpr std::size_t kPageBlocks = 2048;

    /**
     * Configure for @p config's partition and the bus's dispatch block
     * size. Tracking is active only on a clustered topology; on the
     * single bus every note is a no-op and queries return "cluster 0".
     */
    void
    configure(const ClusterConfig& config, std::uint32_t block_words)
    {
        config_ = config;
        blockWords_ = block_words == 0 ? 1 : block_words;
        shift_ = -1;
        if ((blockWords_ & (blockWords_ - 1)) == 0) {
            shift_ = 0;
            while ((1u << shift_) != blockWords_)
                ++shift_;
        }
    }

    /** True when cluster sets are being maintained. */
    bool tracking() const { return config_.clustered(); }

    /**
     * @p pe's cache gained (@p present) or dropped a copy of @p block.
     * Called *after* the residency filter was updated: the departing
     * side re-checks the cluster's PE range there to detect a last-copy
     * departure.
     */
    void noteCopy(PeId pe, Addr block, bool present,
                  const ResidencyFilter& filter);

    /** Lock-residency counterpart of noteCopy. */
    void noteLock(PeId pe, Addr block, bool resident,
                  const ResidencyFilter& filter);

    /** Clusters holding at least one cached copy of @p block. */
    std::uint64_t
    copyClusters(Addr block) const
    {
        const std::uint64_t* words = entryIfPresent(indexOf(block));
        return words != nullptr ? words[0] : 0;
    }

    /** Clusters with at least one lock entry on a word of @p block. */
    std::uint64_t
    lockClusters(Addr block) const
    {
        const std::uint64_t* words = entryIfPresent(indexOf(block));
        return words != nullptr ? words[1] : 0;
    }

    /** Blocks with a non-empty copy or lock cluster set. */
    std::size_t trackedBlocks() const;

  private:
    std::size_t
    indexOf(Addr block) const
    {
        return static_cast<std::size_t>(
            shift_ >= 0 ? block >> shift_ : block / blockWords_);
    }

    /** [lo, hi) PE range of @p cluster. */
    void
    clusterRange(std::uint32_t cluster, PeId* lo, PeId* hi) const
    {
        *lo = cluster * config_.clusterSize;
        *hi = *lo + config_.clusterSize;
    }

    std::uint64_t* entry(std::size_t index);
    const std::uint64_t* entryIfPresent(std::size_t index) const;

    ClusterConfig config_;
    std::uint32_t blockWords_ = 1;
    int shift_ = 0;
    /** Pages of kPageBlocks {copyClusters, lockClusters} entries. */
    std::vector<std::unique_ptr<std::uint64_t[]>> pages_;
};

} // namespace pim

#endif // PIMCACHE_BUS_INTERCLUSTER_DIRECTORY_H_
