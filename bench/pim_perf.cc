/**
 * @file
 * Simulator-throughput harness (docs/PERFORMANCE.md, ctest label
 * `perf`).
 *
 * Unlike the table/figure binaries this does not reproduce a paper
 * number: it measures the *simulator's* hot path. For each PE count
 * (1, 2, 4, ... up to --pes) it times one randomized bus-heavy workload
 * and reports wall-clock refs/sec and simulated cycles/ref.
 *
 * The workload is ParWorkloadSource with every reference in the shared
 * region (sharedPct 100), driven through runParallelCore — the repo's
 * one serialized driver. --span, --write-pct, --lock-pct and --opt-pct
 * set the shape's sharedWords, writePct, lockPct and optPct; on shared
 * references optPct selects RI. No auditor, watchdog, event sinks or
 * ref tracing ride along, so the measurement isolates System::access +
 * Bus rather than the observability stack. A PE takes a lock only while
 * holding none, which cannot deadlock (no hold-and-wait).
 *
 *   pim_perf [--pes=N] [--scale=N] [--reps=N] [--smoke]
 *            [--span=N] [--write-pct=N] [--lock-pct=N] [--opt-pct=N]
 *            [--cluster-size=N] [--hop-cycles=N]
 *            [--json=PATH] [--attribution-out=PATH]
 *
 * Unknown options (including the retired --par-jobs and --min-speedup)
 * exit 1.
 *
 * --cluster-size=N partitions the PEs into per-cluster snooping buses,
 * routed from the residency masks (docs/ARCHITECTURE.md); 0 keeps the
 * paper's single bus.
 *
 * --attribution-out=PATH adds one extra *untimed* run at the largest PE
 * point with the attribution engine attached and writes its miss/cycle
 * report there (schema `attribution`); the timed points stay bare.
 *
 * --smoke shrinks the grid for CI, where wall-clock figures on loaded
 * machines are noise: it checks that every point runs to completion and
 * the JSON schema, not the throughput.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bus/bus.h"
#include "common/table.h"
#include "obs/attribution.h"
#include "sim/par_workload.h"
#include "sim/parallel_core.h"
#include "sim/system.h"

using namespace pim;
using namespace pim::kl1::bench;

namespace {

/** One timed run's observables. */
struct Measurement {
    double seconds = 0;            ///< Best wall time over the reps.
    std::uint64_t refs = 0;        ///< References completed.
    std::uint64_t fingerprint = 0; ///< runParallelCore's run fingerprint.
    std::uint64_t makespan = 0;    ///< Simulated cycles (max PE clock).
    std::uint64_t busTrans = 0;    ///< Bus transactions issued.
    std::uint64_t interCluster = 0; ///< Inter-cluster hop cycles paid.
};

/**
 * Drive @p steps references (split evenly over @p pes PEs) of the
 * bus-heavy @p shape through runParallelCore, repeated @p reps times;
 * keeps the fastest wall time. Every rep is the same pure function of
 * the seed, so the non-timing observables are identical across reps.
 *
 * When @p attr_out is non-null an AttributionEngine rides along (and is
 * returned through it, with the final BusStats in @p stats_out). Only
 * the dedicated --attribution-out run uses this: the timed points
 * always run bare so the sink never pollutes the measurement. Callers
 * pass reps=1 there — the engine accumulates across reps otherwise.
 */
Measurement
runWorkload(std::uint32_t pes, std::uint64_t steps, std::uint32_t reps,
            const ParShape& shape, const ClusterConfig& cluster,
            std::unique_ptr<AttributionEngine>* attr_out = nullptr,
            BusStats* stats_out = nullptr)
{
    Measurement m;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        ParShape run_shape = shape;
        run_shape.stepsPerPe = std::max<std::uint64_t>(1, steps / pes);
        SystemConfig sys_config;
        sys_config.numPes = pes;
        sys_config.cluster = cluster;
        ParWorkloadSource source(run_shape, pes,
                                 sys_config.cache.geometry.blockWords);
        sys_config.memoryWords = source.memoryWords();
        sys_config.validate();
        System system(sys_config);
        if (attr_out != nullptr) {
            const auto& geom = sys_config.cache.geometry;
            *attr_out = std::make_unique<AttributionEngine>(
                pes, sys_config.timing, geom.blockWords,
                geom.ways * geom.sets);
            system.addEventSink(attr_out->get());
        }

        const auto start = std::chrono::steady_clock::now();
        const ParallelRunResult result =
            runParallelCore(system, source, ParallelCoreOptions{});
        const auto stop = std::chrono::steady_clock::now();

        const double seconds =
            std::chrono::duration<double>(stop - start).count();
        if (rep == 0 || seconds < m.seconds)
            m.seconds = seconds;
        m.refs = result.completedRefs;
        m.fingerprint = result.fingerprint;
        m.makespan = system.makespan();
        m.busTrans = 0;
        for (int p = 0; p < kNumBusPatterns; ++p)
            m.busTrans += system.bus().stats().transByPattern[p];
        m.interCluster = system.bus().stats().interClusterCycles;
        if (stats_out != nullptr)
            *stats_out = system.bus().stats();
    }
    return m;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmt(const char* spec, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

int
perfMain(int argc, char** argv)
{
    BenchContext ctx = BenchContext::parse(argc, argv);
    const std::string unknown = ctx.options.unknownOption(
        {"pes", "scale", "reps", "smoke", "span", "write-pct", "lock-pct",
         "opt-pct", "cluster-size", "hop-cycles", "json",
         "attribution-out"});
    if (!unknown.empty()) {
        std::fprintf(stderr, "pim_perf: unknown option --%s\n",
                     unknown.c_str());
        return 1;
    }
    // Bus contention grows with the port count, so this harness defaults
    // to 16 PEs (the paper's largest configuration) rather than the
    // table binaries' 8.
    ctx.pes = static_cast<std::uint32_t>(
        ctx.options.getIntEnv("pes", "REPRO_PES", 16));
    const bool smoke = ctx.options.getBool("smoke");
    std::uint32_t reps = static_cast<std::uint32_t>(
        ctx.options.getInt("reps", smoke ? 1 : 3));
    std::uint64_t steps = 40000ull * ctx.scale;
    std::uint32_t max_pes = std::max<std::uint32_t>(1, ctx.pes);
    if (smoke) {
        steps = std::min<std::uint64_t>(steps, 4000);
        // An explicit --pes wins over the smoke cap so CI can smoke wide
        // (e.g. 128-PE clustered) grids without the full step count.
        if (!ctx.options.has("pes"))
            max_pes = std::min<std::uint32_t>(max_pes, 4);
    }
    // The banner and BENCH_perf.json report the PE count that runs.
    ctx.pes = max_pes;

    // Bus-heavy shape: every reference contends in a shared region far
    // larger than the 4K-word caches (high miss rate, so most references
    // reach the bus), write-heavy, with RI taking exclusive ownership.
    // No locks by default: lock words are cached by every contender, so
    // their residency masks are dense and every snoop visits nearly every
    // port.
    ParShape shape;
    shape.sharedPct = 100;
    shape.sharedWords = static_cast<std::uint32_t>(
        ctx.options.getInt("span", 32768));
    shape.writePct = static_cast<std::uint32_t>(
        ctx.options.getInt("write-pct", 70));
    shape.lockPct = static_cast<std::uint32_t>(
        ctx.options.getInt("lock-pct", 0));
    shape.optPct = static_cast<std::uint32_t>(
        ctx.options.getInt("opt-pct", 30));

    ClusterConfig cluster;
    cluster.clusterSize = static_cast<std::uint32_t>(
        ctx.options.getInt("cluster-size", 0));
    cluster.hopCycles = static_cast<std::uint32_t>(
        ctx.options.getInt("hop-cycles", cluster.hopCycles));

    banner("pim_perf: simulator throughput", ctx);
    std::printf("%llu refs/point, best of %u reps, span %llu words "
                "(docs/PERFORMANCE.md)\n",
                static_cast<unsigned long long>(steps), reps,
                static_cast<unsigned long long>(shape.sharedWords));
    if (cluster.clustered()) {
        std::printf("clustered: %u PEs/bus, %u-cycle hops "
                    "(docs/ARCHITECTURE.md)\n",
                    cluster.clusterSize, cluster.hopCycles);
    }
    std::printf("\n");

    BenchJson json(ctx, "perf");

    std::vector<std::uint32_t> pe_points;
    for (std::uint32_t p = 1; p < max_pes; p *= 2)
        pe_points.push_back(p);
    pe_points.push_back(max_pes);

    Table table("measured: refs/sec");
    table.setHeader({"PEs", "cycles/ref", "refs/s"});

    for (std::uint32_t pes : pe_points) {
        const Measurement m = runWorkload(pes, steps, reps, shape, cluster);
        const double total_refs = static_cast<double>(m.refs);
        const double refs_per_sec = total_refs / m.seconds;
        const double cycles_per_ref =
            static_cast<double>(m.makespan) / total_refs;
        table.addRow({std::to_string(pes), fmt("%.1f", cycles_per_ref),
                      fmt("%.0f", refs_per_sec)});

        json.row();
        json.set("bench", "perf");
        json.set("pes_point", pes);
        json.set("refs", m.refs);
        json.set("wall_seconds", m.seconds);
        json.set("refs_per_sec", refs_per_sec);
        json.set("cycles_per_ref", cycles_per_ref);
        json.set("bus_transactions", m.busTrans);
        json.set("fingerprint", hex(m.fingerprint));
        json.set("cluster_size", cluster.clusterSize);
        json.set("hop_cycles", cluster.hopCycles);
        json.set("inter_cluster_cycles", m.interCluster);
    }

    std::printf("%s\n", table.toString().c_str());

    int failures = 0;
    const std::string attribution_out =
        ctx.options.getString("attribution-out", "");
    if (!attribution_out.empty()) {
        // One extra untimed run with the engine attached; the timed
        // points above never carry a sink.
        std::unique_ptr<AttributionEngine> attr;
        BusStats attr_stats;
        runWorkload(max_pes, steps, /*reps=*/1, shape, cluster, &attr,
                    &attr_stats);
        const std::string attr_error = attr->crossCheck(attr_stats);
        if (!attr_error.empty()) {
            std::printf("FAIL: attribution cross-check: %s\n",
                        attr_error.c_str());
            ++failures;
        } else if (attr->writeFile(attribution_out, attr_stats)) {
            std::printf("attribution: %llu classified misses -> %s\n",
                        static_cast<unsigned long long>(
                            attr->classifiedMisses()),
                        attribution_out.c_str());
        } else {
            std::printf("FAIL: cannot write %s\n", attribution_out.c_str());
            ++failures;
        }
    }

    if (!json.write())
        return 1;
    if (json.enabled())
        std::printf("json: %s\n", json.path().c_str());
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return pim::kl1::bench::runBenchMain("pim_perf",
                                         [&] { return perfMain(argc, argv); });
}
