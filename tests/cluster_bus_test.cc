/**
 * @file
 * Clustered snooping-bus topology tests (docs/ARCHITECTURE.md).
 *
 * Two layers: unit tests of ClusterConfig/ClusterTopology (partition
 * arithmetic and per-bus reservation timing; the residency masks' cluster
 * queries the routes come from are tested in residency_filter_test), and
 * system-level behavior — protocol outcomes identical to the single
 * bus, hop cycles accounted exactly (totalCycles = pattern sum +
 * interClusterCycles), zero hops for cluster-local traffic, and the
 * attribution engine's cross-check holding with clustering on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bus/cluster_bus.h"
#include "common/rng.h"
#include "obs/attribution.h"
#include "sim/system.h"

namespace pim {
namespace {

// ---------------------------------------------------------------------
// ClusterConfig / ClusterTopology units.
// ---------------------------------------------------------------------

TEST(ClusterConfigUnit, PartitionArithmetic)
{
    ClusterConfig config;
    EXPECT_FALSE(config.clustered());
    EXPECT_EQ(config.clusterOf(17), 0u);
    EXPECT_EQ(config.clustersFor(64), 1u);

    config.clusterSize = 4;
    EXPECT_TRUE(config.clustered());
    EXPECT_EQ(config.clusterOf(0), 0u);
    EXPECT_EQ(config.clusterOf(3), 0u);
    EXPECT_EQ(config.clusterOf(4), 1u);
    EXPECT_EQ(config.clusterOf(17), 4u);
    EXPECT_EQ(config.clustersFor(16), 4u);
    EXPECT_EQ(config.clustersFor(17), 5u);
    EXPECT_EQ(config.clustersFor(0), 1u);
}

TEST(ClusterTopologyUnit, EnabledNeedsTwoClusters)
{
    ClusterConfig config;
    config.clusterSize = 4;
    ClusterTopology topo(config);
    for (PeId pe = 0; pe < 4; ++pe)
        topo.registerPe(pe);
    // All four PEs share cluster 0: still the single bus, with no remote
    // cluster for a route to reserve.
    EXPECT_EQ(topo.numClusters(), 1u);
    EXPECT_EQ(topo.allRemote(0), 0u);
    topo.registerPe(4);
    EXPECT_EQ(topo.numClusters(), 2u);
    EXPECT_EQ(topo.allRemote(0), 0b10ull);
    EXPECT_EQ(topo.allRemote(1), 0b01ull);
}

TEST(ClusterTopologyUnit, DisjointRoutesOverlapSharedRoutesSerialize)
{
    ClusterConfig config;
    config.clusterSize = 1; // One PE per cluster: 4 buses.
    ClusterTopology topo(config);
    for (PeId pe = 0; pe < 4; ++pe)
        topo.registerPe(pe);

    // Cluster 0 busy until 100.
    topo.occupy(0, 0, 100);
    // A transaction on clusters {1, 2} is independent: starts on time.
    EXPECT_EQ(topo.arbitrate(1, 0b100, 10), 10u);
    topo.occupy(1, 0b100, 60);
    // A route touching cluster 2 now waits for it...
    EXPECT_EQ(topo.arbitrate(3, 0b100, 10), 60u);
    // ...and one touching cluster 0 waits for the longest reserved bus.
    EXPECT_EQ(topo.arbitrate(3, 0b001, 10), 100u);
    // Cluster 3 itself is still free.
    EXPECT_EQ(topo.arbitrate(3, 0, 10), 10u);
    EXPECT_EQ(topo.clusterFreeAt(2), 60u);
}

// ---------------------------------------------------------------------
// System-level behavior.
// ---------------------------------------------------------------------

SystemConfig
clusteredConfig(std::uint32_t pes, std::uint32_t cluster_size,
                std::uint32_t hop_cycles = 4)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry.blockWords = 4;
    config.cache.geometry.sets = 4;
    config.cache.geometry.ways = 2;
    config.memoryWords = 1 << 16;
    config.cluster.clusterSize = cluster_size;
    config.cluster.hopCycles = hop_cycles;
    config.validate();
    return config;
}

/** The hop-accounting invariant the conformance harness also asserts. */
void
expectHopAccountingExact(const BusStats& stats)
{
    Cycles pattern_sum = 0;
    for (int p = 0; p < kNumBusPatterns; ++p)
        pattern_sum += stats.cyclesByPattern[p];
    EXPECT_EQ(stats.totalCycles, pattern_sum + stats.interClusterCycles);
}

TEST(ClusteredSystem, ProtocolOutcomesMatchSingleBus)
{
    // The same reference stream on a single bus and on a 2-PE-per-
    // cluster topology: timing differs, protocol content must not.
    System single(clusteredConfig(6, 0));
    System clustered(clusteredConfig(6, 2));
    Rng rng(99);
    for (int step = 0; step < 3000; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(6));
        const Addr addr = rng.below(512);
        const MemOp op = (rng.next() & 1) != 0 ? MemOp::W : MemOp::R;
        const Word data = rng.next();
        const Word got_single =
            single.access(pe, op, addr, Area::Heap, data).data;
        const Word got_clustered =
            clustered.access(pe, op, addr, Area::Heap, data).data;
        EXPECT_EQ(got_single, got_clustered) << "step " << step;
    }
    EXPECT_EQ(single.protocolHash(0, 512), clustered.protocolHash(0, 512));
    // Same transactions, same per-pattern costs; only hops differ.
    for (int p = 0; p < kNumBusPatterns; ++p) {
        EXPECT_EQ(single.bus().stats().transByPattern[p],
                  clustered.bus().stats().transByPattern[p]);
        EXPECT_EQ(single.bus().stats().cyclesByPattern[p],
                  clustered.bus().stats().cyclesByPattern[p]);
    }
    EXPECT_EQ(single.bus().stats().interClusterCycles, 0u);
    expectHopAccountingExact(single.bus().stats());
    expectHopAccountingExact(clustered.bus().stats());
}

TEST(ClusteredSystem, ClusterLocalTrafficPaysNoHops)
{
    // PEs 0 and 1 share cluster 0 of a 2-cluster machine; all their
    // read/write sharing stays on their own bus and bank port.
    System system(clusteredConfig(4, 2));
    ASSERT_EQ(system.bus().clusters().numClusters(), 2u);
    Rng rng(7);
    for (int step = 0; step < 500; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(2));
        const Addr addr = rng.below(256);
        const MemOp op = (rng.next() & 1) != 0 ? MemOp::W : MemOp::R;
        system.access(pe, op, addr, Area::Heap, rng.next());
    }
    EXPECT_NE(system.bus().stats().totalCycles, 0u);
    EXPECT_EQ(system.bus().stats().interClusterCycles, 0u);
    EXPECT_EQ(system.bus().stats().interClusterHops, 0u);
}

TEST(ClusteredSystem, CrossClusterSharingPaysRoundTrips)
{
    const std::uint32_t hop = 3;
    System system(clusteredConfig(4, 2, hop));

    // PE 0 (cluster 0) writes a block; PE 2 (cluster 1) reads it: the
    // fetch must consult cluster 0 — one round trip of 2*hop cycles.
    system.access(0, MemOp::W, 16, Area::Heap, 42);
    const BusStats before = system.bus().stats();
    system.access(2, MemOp::R, 16, Area::Heap, 0);
    const BusStats after = system.bus().stats();
    EXPECT_EQ(after.interClusterCycles - before.interClusterCycles,
              2 * hop);
    EXPECT_EQ(after.interClusterHops - before.interClusterHops, 1u);
    expectHopAccountingExact(after);

    // A write hit in shared state broadcasts an invalidate, which now
    // must reach the remote sharer's cluster: another round trip.
    system.access(0, MemOp::W, 16, Area::Heap, 43);
    const BusStats inv = system.bus().stats();
    EXPECT_EQ(inv.interClusterCycles - after.interClusterCycles, 2 * hop);
    expectHopAccountingExact(inv);
}

TEST(ClusteredSystem, AttributionCrossCheckHoldsWithClustering)
{
    SystemConfig config = clusteredConfig(8, 2);
    System system(config);
    AttributionEngine attribution(
        config.numPes, config.timing, config.cache.geometry.blockWords,
        config.cache.geometry.ways * config.cache.geometry.sets);
    system.addEventSink(&attribution);

    // Hold-at-most-one lock discipline; a rejected LR parks the PE, so
    // every step drives the earliest runnable PE (as the emulator does)
    // and a parked PE's pending LR retries after its wakeup.
    Rng rng(13);
    std::vector<bool> holds(8, false);
    std::vector<Addr> held(8, 0);
    std::vector<bool> retry(8, false);
    std::vector<Addr> retryAddr(8, 0);
    for (int step = 0; step < 4000; ++step) {
        const PeId pe = system.earliestRunnable();
        ASSERT_NE(pe, kNoPe);
        if (retry[pe]) {
            retry[pe] = !holds[pe] &&
                        system.access(pe, MemOp::LR, retryAddr[pe],
                                      Area::Heap, 0)
                            .lockWait;
            if (!retry[pe]) {
                holds[pe] = true;
                held[pe] = retryAddr[pe];
            }
            continue;
        }
        const std::uint64_t roll = rng.below(100);
        if (roll < 10) {
            // Lock traffic exercises LockReject and Unlock hop paths:
            // one contended word shared by all, one private per PE.
            if (holds[pe]) {
                system.access(pe, MemOp::U, held[pe], Area::Heap, 0);
                holds[pe] = false;
            } else {
                const Addr addr =
                    (rng.next() & 1) != 0 ? 1024 + 4 * pe : 1024;
                if (system.access(pe, MemOp::LR, addr, Area::Heap, 0)
                        .lockWait) {
                    retry[pe] = true;
                    retryAddr[pe] = addr;
                } else {
                    holds[pe] = true;
                    held[pe] = addr;
                }
            }
        } else {
            const Addr addr = rng.below(512);
            const MemOp op = roll < 60 ? MemOp::W : MemOp::R;
            system.access(pe, op, addr, Area::Heap, rng.next());
        }
    }
    // Drain: release held locks so no PE ends the run parked.
    for (PeId pe = 0; pe < 8; ++pe) {
        if (holds[pe])
            system.access(pe, MemOp::U, held[pe], Area::Heap, 0);
    }
    EXPECT_NE(system.bus().stats().interClusterCycles, 0u);
    expectHopAccountingExact(system.bus().stats());
    EXPECT_EQ(attribution.crossCheck(system.bus().stats()), "");
}

TEST(ClusteredSystem, WideClusteredMachineStaysExact)
{
    // 128 PEs in 16 clusters: routes come from multi-word masks;
    // protocol content still matches the single bus.
    System single(clusteredConfig(128, 0));
    System clustered(clusteredConfig(128, 8, 2));
    Rng rng(5);
    for (int step = 0; step < 4000; ++step) {
        const PeId pe = static_cast<PeId>(rng.below(128));
        const Addr addr = rng.below(1024);
        const MemOp op = (rng.next() & 1) != 0 ? MemOp::W : MemOp::R;
        const Word data = rng.next();
        const Word a = single.access(pe, op, addr, Area::Heap, data).data;
        const Word b =
            clustered.access(pe, op, addr, Area::Heap, data).data;
        EXPECT_EQ(a, b) << "step " << step;
    }
    EXPECT_EQ(single.protocolHash(0, 1024),
              clustered.protocolHash(0, 1024));
    EXPECT_NE(clustered.bus().stats().interClusterCycles, 0u);
    expectHopAccountingExact(clustered.bus().stats());
}

} // namespace
} // namespace pim
