/**
 * @file
 * Simulator-throughput harness for the exact bus-side snoop filter
 * (docs/PERFORMANCE.md, ctest label `perf`).
 *
 * Unlike the table/figure binaries this does not reproduce a paper
 * number: it measures the *simulator's* hot path. For each PE count it
 * drives the identical randomized workload twice — once with the
 * residency filter disabled (the legacy broadcast-snoop walk over every
 * port) and once with it enabled — and reports wall-clock refs/sec,
 * simulated cycles/ref and the filtered-vs-unfiltered speedup.
 *
 * The filter is exact, so both runs must be observationally identical;
 * the harness enforces this by comparing the workload fingerprint, the
 * simulated makespan, the bus transaction count and the protocol hash
 * of the shared span, and exits 1 on any mismatch.
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
 *            [--min-speedup=X] [--json=PATH] [--attribution-out=PATH]
 *
 * Unknown options (including the retired --par-jobs) exit 1.
 *
 * --cluster-size=N partitions the PEs into per-cluster snooping buses
 * with an inter-cluster directory (docs/ARCHITECTURE.md); 0 keeps the
 * paper's single bus. Routing is driven by the directory, never the
 * filter, so the filter on/off exactness gate holds under clustering
 * too — the A/B comparison measures the same machine either way.
 *
 * --attribution-out=PATH adds one extra *untimed* run at the largest PE
 * point with the attribution engine attached and writes its miss/cycle
 * report there (schema `attribution`); the timed points stay bare.
 *
 * --min-speedup=X fails (exit 1) if the largest PE point's speedup is
 * below X. --smoke shrinks the grid for CI, where wall-clock ratios on
 * loaded machines are noise — it checks the exactness invariants and the
 * JSON schema, not the speedup.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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
    std::uint64_t protoHash = 0;   ///< Protocol hash of all memory.
    std::uint64_t interCluster = 0; ///< Inter-cluster hop cycles paid.
};

/**
 * Drive @p steps references (split evenly over @p pes PEs) of the
 * bus-heavy @p shape through runParallelCore with the snoop filter on
 * or off, repeated @p reps times; keeps the fastest wall time. Every
 * rep is the same pure function of the seed, so the non-timing
 * observables are identical across reps.
 *
 * When @p attr_out is non-null an AttributionEngine rides along (and is
 * returned through it, with the final BusStats in @p stats_out). Only
 * the dedicated --attribution-out run uses this: the timed A/B points
 * always run bare so the sink never pollutes the measurement. Callers
 * pass reps=1 there — the engine accumulates across reps otherwise.
 */
Measurement
runWorkload(std::uint32_t pes, std::uint64_t steps, bool filter,
            std::uint32_t reps, const ParShape& shape,
            const ClusterConfig& cluster,
            std::unique_ptr<AttributionEngine>* attr_out = nullptr,
            BusStats* stats_out = nullptr)
{
    Measurement m;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
        ParShape run_shape = shape;
        run_shape.stepsPerPe = std::max<std::uint64_t>(1, steps / pes);
        SystemConfig sys_config;
        sys_config.numPes = pes;
        sys_config.snoopFilter = filter;
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
        m.protoHash = system.protocolHash(0, sys_config.memoryWords);
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
         "opt-pct", "cluster-size", "hop-cycles", "min-speedup", "json",
         "attribution-out"});
    if (!unknown.empty()) {
        std::fprintf(stderr, "pim_perf: unknown option --%s\n",
                     unknown.c_str());
        return 1;
    }
    // The filter's payoff grows with the port count, so this harness
    // defaults to 16 PEs (the paper's largest configuration) rather than
    // the table binaries' 8.
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
    const double min_speedup =
        std::strtod(ctx.options.getString("min-speedup", "0").c_str(),
                    nullptr);

    // Bus-heavy shape: every reference contends in a shared region far
    // larger than the 4K-word caches (high miss rate, so most references
    // reach the bus), write-heavy, with RI taking exclusive ownership.
    // No locks by default: lock words are cached by every contender, so
    // their residency masks are dense and a filtered walk visits nearly
    // as many ports as a broadcast.
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

    banner("pim_perf: snoop-filter simulator throughput", ctx);
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

    Table table("measured: refs/sec, filter off vs on (identical runs)");
    table.setHeader({"PEs", "cycles/ref", "refs/s off", "refs/s on",
                     "speedup"});

    int failures = 0;
    double last_speedup = 0;
    for (std::uint32_t pes : pe_points) {
        const Measurement off = runWorkload(pes, steps, /*filter=*/false,
                                            reps, shape, cluster);
        const Measurement on = runWorkload(pes, steps, /*filter=*/true,
                                           reps, shape, cluster);

        // Exactness gate: the filter must not change a single observable
        // (cluster routing included — routes come from the directory,
        // which is maintained identically in both modes).
        if (off.refs != on.refs || off.fingerprint != on.fingerprint ||
            off.makespan != on.makespan || off.busTrans != on.busTrans ||
            off.protoHash != on.protoHash ||
            off.interCluster != on.interCluster) {
            std::printf("FAIL: filter changed the run at %u PEs "
                        "(fingerprint %s vs %s, makespan %llu vs %llu, "
                        "bus %llu vs %llu, proto %s vs %s)\n",
                        pes, hex(off.fingerprint).c_str(),
                        hex(on.fingerprint).c_str(),
                        static_cast<unsigned long long>(off.makespan),
                        static_cast<unsigned long long>(on.makespan),
                        static_cast<unsigned long long>(off.busTrans),
                        static_cast<unsigned long long>(on.busTrans),
                        hex(off.protoHash).c_str(),
                        hex(on.protoHash).c_str());
            ++failures;
            continue;
        }

        const double total_refs = static_cast<double>(on.refs);
        const double rps_off = total_refs / off.seconds;
        const double rps_on = total_refs / on.seconds;
        const double speedup = rps_on / rps_off;
        const double cycles_per_ref =
            static_cast<double>(on.makespan) / total_refs;
        last_speedup = speedup;

        table.addRow({std::to_string(pes), fmt("%.1f", cycles_per_ref),
                      fmt("%.0f", rps_off), fmt("%.0f", rps_on),
                      fmt("%.2fx", speedup)});

        for (int mode = 0; mode < 2; ++mode) {
            const bool filtered = mode == 1;
            const Measurement& m = filtered ? on : off;
            json.row();
            json.set("bench", "perf");
            json.set("pes_point", pes);
            json.set("mode", filtered ? "filtered" : "unfiltered");
            json.set("refs", m.refs);
            json.set("wall_seconds", m.seconds);
            json.set("refs_per_sec", total_refs / m.seconds);
            json.set("cycles_per_ref", cycles_per_ref);
            json.set("bus_transactions", m.busTrans);
            json.set("fingerprint", hex(m.fingerprint));
            json.set("speedup_vs_unfiltered", filtered ? speedup : 1.0);
            json.set("cluster_size", cluster.clusterSize);
            json.set("hop_cycles", cluster.hopCycles);
            json.set("inter_cluster_cycles", m.interCluster);
        }
    }

    std::printf("%s\n", table.toString().c_str());
    std::printf("simulated observables (fingerprint, makespan, bus "
                "transactions, protocol hash) identical in both modes "
                "at every point\n");

    if (failures == 0 && min_speedup > 0 &&
        last_speedup < min_speedup) {
        std::printf("FAIL: speedup %.2fx at %u PEs is below the "
                    "--min-speedup=%.2f gate\n",
                    last_speedup, pe_points.back(), min_speedup);
        ++failures;
    }

    const std::string attribution_out =
        ctx.options.getString("attribution-out", "");
    if (!attribution_out.empty()) {
        // One extra untimed run with the engine attached; the timed A/B
        // points above never carry a sink.
        std::unique_ptr<AttributionEngine> attr;
        BusStats attr_stats;
        runWorkload(max_pes, steps, /*filter=*/true, /*reps=*/1, shape,
                    cluster, &attr, &attr_stats);
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
