#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "common/thread_pool.h"
#include "kl1/compiler.h"
#include "kl1/parser.h"
#include "model/explorer.h"
#include "model/harness.h"
#include "sim/par_workload.h"
#include "sim/parallel_core.h"
#include "spans.h"
#include "sweep/sweep_runner.h"

namespace perfbench {

namespace {

using namespace pim;

/**
 * Host threads per workload: half of the 4-core reference host, so the
 * workload's threads never queue for cores behind each other.
 */
constexpr unsigned kHostJobs = 2;

/**
 * Set-ups per job: at least kSetupRepeats, more while they have taken
 * under kSetupBudgetS, at most kSetupMaxRepeats; the job reports their
 * median, so a cheap set-up is timed over many samples.
 */
constexpr std::size_t kSetupRepeats = 21;
constexpr std::size_t kSetupMaxRepeats = 1001;
constexpr double kSetupBudgetS = 0.05;

/** Paper grid: KL1 benchmark scale (the benches' REPRO_SCALE default). */
constexpr std::uint32_t kGridScale = 2;

/** One access in 16 (count & mask == 0) also times a next-PE pick. */
constexpr std::uint64_t kSchedSampleMask = 15;

/** Length of the explore workload's bus-accounting walk, in commands. */
constexpr std::uint32_t kWitnessSteps = 4096;

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
mixText(std::uint64_t h, const std::string& text)
{
    for (char c : text)
        h = mix(h, static_cast<unsigned char>(c));
    return mix(h, text.size());
}

std::string
hex(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Wall and process CPU seconds of one timed call. */
struct Timing {
    double wall = 0;
    double cpu = 0;
};

Timing
timeCall(const std::function<void()>& call)
{
    const double cpu0 = processCpuSeconds();
    const std::uint64_t t0 = nowNs();
    call();
    const std::uint64_t t1 = nowNs();
    return {secondsBetween(t0, t1), processCpuSeconds() - cpu0};
}

/**
 * Build a job's inputs repeatedly (see kSetupRepeats), each timed,
 * keeping the last; returns the median set-up seconds. Only one
 * instance is alive at a time, so peak memory is that of one set-up.
 */
template <typename Inputs>
double
setUp(std::unique_ptr<Inputs>& inputs,
      const std::function<std::unique_ptr<Inputs>()>& build)
{
    std::vector<double> seconds;
    double spent = 0;
    while (seconds.size() < kSetupMaxRepeats &&
           (seconds.size() < kSetupRepeats || spent < kSetupBudgetS)) {
        inputs.reset();
        const std::uint64_t t0 = nowNs();
        inputs = build();
        seconds.push_back(secondsBetween(t0, nowNs()));
        spent += seconds.back();
    }
    return median(seconds);
}

/** The end-to-end metrics every timed job reports. */
void
reportEndToEnd(JobReport& report, double setup_s, const Timing& timing,
               double refs, double bus_cycles_per_kref)
{
    report.set("refs_per_s", refs / timing.wall);
    report.set("wall_s", timing.wall);
    report.set("cpu_s", timing.cpu);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peakRssMb());
    report.set("bus_cycles_per_kref", bus_cycles_per_kref);
}

// ------------------------------------------------------------ probes

/**
 * Timing at the System::access boundary through the public observer
 * hooks: nanoseconds per access, split by whether the access issued a
 * bus transaction (BusStats cycle delta), plus a sampled timing of the
 * next-PE pick (System::earliestRunnable) on the live system state.
 * Attaching it makes runParallelCore serialize, like any observer.
 */
class AccessProbe : public AccessObserver
{
  public:
    explicit AccessProbe(const System& system) : system_(system) {}

    void
    beforeAccess(PeId, MemOp, Addr, Area) override
    {
        if ((++calls_ & kSchedSampleMask) == 0) {
            const std::uint64_t t0 = nowNs();
            (void)system_.earliestRunnable();
            sched.add(nowNs() - t0);
        }
        busCyclesBefore_ = system_.bus().stats().totalCycles;
        startNs_ = nowNs();
    }

    void
    afterAccess(PeId, MemOp, Addr, Area, Word, Word, bool lock_wait) override
    {
        const std::uint64_t elapsed = nowNs() - startNs_;
        access.add(elapsed);
        if (system_.bus().stats().totalCycles != busCyclesBefore_)
            txn.add(elapsed);
        else
            hit.add(elapsed);
        lockWaits += lock_wait ? 1 : 0;
    }

    Accum access;
    Accum hit;
    Accum txn;
    Accum sched;
    std::uint64_t lockWaits = 0;

  private:
    const System& system_;
    std::uint64_t calls_ = 0;
    std::uint64_t startNs_ = 0;
    Cycles busCyclesBefore_ = 0;
};

/**
 * RefSource wrapper timing every next() call. Per-PE slots: the
 * parallel core never calls next() for one PE concurrently, so the
 * workers never share a slot.
 */
class TimedSource : public RefSource
{
  public:
    TimedSource(RefSource& inner, PeId pes) : inner_(inner), slots_(pes) {}

    bool
    next(PeId pe, ParOp* out) override
    {
        const std::uint64_t t0 = nowNs();
        const bool more = inner_.next(pe, out);
        slots_[pe].next.add(nowNs() - t0);
        return more;
    }

    void
    complete(PeId pe, const ParOp& op, Word data) override
    {
        inner_.complete(pe, op, data);
    }

    bool independent() const override { return inner_.independent(); }

    void onStall() override { inner_.onStall(); }

    Accum
    total() const
    {
        Accum sum;
        for (const Slot& slot : slots_)
            sum.merge(slot.next);
        return sum;
    }

  private:
    struct alignas(64) Slot {
        Accum next;
    };
    RefSource& inner_;
    std::vector<Slot> slots_;
};

/** Per-layer metrics of the sim, cache and bus layers of finished runs. */
struct SystemLayers {
    Accum access;
    Accum hit;
    Accum txn;
    Accum sched;
    std::uint64_t lockWaits = 0;
    std::uint64_t makespan = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t transactions = 0;
    std::uint64_t busCycles = 0;
    std::uint64_t patternCycles[kNumBusPatterns] = {};

    void
    add(const AccessProbe& probe, const System& system)
    {
        access.merge(probe.access);
        hit.merge(probe.hit);
        txn.merge(probe.txn);
        sched.merge(probe.sched);
        lockWaits += probe.lockWaits;
        makespan += system.makespan();
        const CacheStats cache = system.totalCacheStats();
        cacheAccesses += cache.accesses;
        cacheMisses += cache.misses;
        const BusStats& bus = system.bus().stats();
        busCycles += bus.totalCycles;
        for (int p = 0; p < kNumBusPatterns; ++p) {
            transactions += bus.transByPattern[p];
            patternCycles[p] += bus.cyclesByPattern[p];
        }
    }

    void
    report(JobReport& out) const
    {
        out.set("sim.access_ns", access.meanNs());
        out.set("sim.sched_ns", sched.meanNs());
        out.set("sim.lock_waits", static_cast<double>(lockWaits));
        out.set("sim.makespan_cycles", static_cast<double>(makespan));
        out.set("cache.hit_access_ns", hit.meanNs());
        out.set("cache.accesses", static_cast<double>(cacheAccesses));
        out.set("cache.miss_ratio",
                cacheAccesses == 0
                    ? 0.0
                    : static_cast<double>(cacheMisses) /
                          static_cast<double>(cacheAccesses));
        out.set("bus.txn_access_ns", txn.meanNs());
        out.set("bus.transactions", static_cast<double>(transactions));
        for (int p = 0; p < kNumBusPatterns; ++p) {
            // Metric names allow no '+': "c2c+swapout" -> "c2c_swapout".
            std::string name = busPatternName(static_cast<BusPattern>(p));
            std::replace(name.begin(), name.end(), '+', '_');
            out.set("bus.cycles." + name,
                    static_cast<double>(patternCycles[p]));
        }
        out.set("bus.busy_frac",
                makespan == 0 ? 0.0
                              : static_cast<double>(busCycles) /
                                    static_cast<double>(makespan));
    }
};

// ------------------------------------------------------- paper_grid

struct GridInputs {
    sweep::SweepSpec spec;
    sweep::SweepOptions options;
};

std::unique_ptr<GridInputs>
buildGrid(std::uint64_t seed)
{
    auto in = std::make_unique<GridInputs>();
    in->spec = sweep::SweepSpec::paperGrid();
    in->spec.seed = seed;
    in->options.jobs = kHostJobs;
    in->options.scale = kGridScale;
    return in;
}

double
rowMetric(const sweep::SweepRow& row, const std::string& name)
{
    for (const auto& [key, value] : row.metrics) {
        if (key == name)
            return value.number;
    }
    return 0;
}

/** Simulated work and a digest of every deterministic row value. */
struct GridTotals {
    double refs = 0;      ///< KL1 memory refs + stress references.
    double kl1Refs = 0;
    double busCycles = 0; ///< KL1 rows (stress rows report none).
    std::uint64_t digest = 0;
    std::size_t failed = 0;
    std::string firstFailure;
};

GridTotals
gridTotals(const std::vector<sweep::SweepRow>& rows)
{
    GridTotals totals;
    for (const sweep::SweepRow& row : rows) {
        totals.kl1Refs += rowMetric(row, "memory_refs");
        totals.refs += rowMetric(row, "memory_refs") +
                       rowMetric(row, "completed_refs");
        totals.busCycles += rowMetric(row, "bus_cycles");
        totals.digest = mix(totals.digest, row.taskIndex);
        totals.digest = mix(totals.digest, row.failed ? 1 : 0);
        for (const auto& [key, value] : row.metrics) {
            totals.digest = mixText(totals.digest, key);
            totals.digest =
                value.isNumber
                    ? mix(totals.digest,
                          std::bit_cast<std::uint64_t>(value.number))
                    : mixText(totals.digest, value.text);
        }
        if (row.failed) {
            if (totals.failed == 0) {
                totals.firstFailure = "grid point " +
                                      std::to_string(row.taskIndex) + " (" +
                                      row.params.toString() + "): " +
                                      row.faultKind + ": " + row.message;
            }
            totals.failed += 1;
        }
    }
    return totals;
}

void
checkGrid(JobReport& report, const GridTotals& totals, std::size_t rows,
          std::size_t expected_rows)
{
    if (rows != expected_rows) {
        report.fail("paper grid produced " + std::to_string(rows) +
                    " rows, expected " + std::to_string(expected_rows));
    }
    if (totals.failed != 0) {
        report.fail(std::to_string(totals.failed) +
                    " failed grid rows; first: " + totals.firstFailure);
    }
    if (totals.refs <= 0 || totals.kl1Refs <= 0)
        report.fail("paper grid simulated no references");
}

JobReport
gridTimed(std::uint64_t seed)
{
    JobReport report;
    std::unique_ptr<GridInputs> in;
    const double setup_s =
        setUp<GridInputs>(in, [seed] { return buildGrid(seed); });
    sweep::SweepOutcome outcome;
    const Timing timing = timeCall(
        [&] { outcome = sweep::runSweep(in->spec, in->options); });
    const GridTotals totals = gridTotals(outcome.rows);
    checkGrid(report, totals, outcome.rows.size(), in->spec.totalTasks());
    if (!outcome.complete)
        report.fail("paper grid did not complete");
    report.digest = hex(totals.digest);
    reportEndToEnd(report, setup_s, timing, totals.refs,
                   totals.busCycles * 1000.0 / totals.kl1Refs);
    return report;
}

/** One expanded grid point as a stand-alone single-task spec. */
sweep::SweepSpec
onePointSpec(const sweep::SweepSpec& grid, std::size_t experiment,
             std::size_t task_index, sweep::SweepPoint point)
{
    const sweep::SweepExperiment& source = grid.experiments[experiment];
    sweep::SweepExperiment one;
    one.id = source.id;
    one.kind = source.kind;
    if (source.kind == sweep::TaskKind::Stress) {
        // The seed the full grid derives from the task's index.
        point.set("seed", sweep::ParamValue::ofNumber(static_cast<double>(
                              sweep::deriveSeed(grid.seed, task_index))));
    } else {
        point.set("scale", sweep::ParamValue::ofNumber(kGridScale));
    }
    one.base = std::move(point);
    sweep::SweepSpec spec;
    spec.name = grid.name;
    spec.seed = grid.seed;
    spec.experiments.push_back(std::move(one));
    return spec;
}

/** A KL1 answer must equal the host-side mirror's expected binding. */
void
checkAnswer(JobReport& report, const std::string& bench,
            const std::string& answer, const std::string& expected)
{
    if (answer != expected) {
        report.fail("kl1 " + bench + " answered " + answer +
                    " but the host mirror expects " + expected);
    }
}

/** Per-layer KL1 figures summed over the Table 1 points. */
struct Kl1Layers {
    double compileSeconds = 0;
    double runSeconds = 0;
    double replaySeconds = 0;
    kl1::RunStats stats;
};

/**
 * One Table 1 point, traced: compile, an untraced Emulator::run, a
 * second run that captures the reference stream (and the access
 * probe's timings), and the replay of that stream through a fresh
 * System. run minus replay estimates the emulator's own time, PE picks
 * included.
 */
void
tracedKl1Point(JobReport& report, SpanRecorder& spans, std::uint64_t parent,
               const kl1::bench::BenchProgram& bench, Kl1Layers& kl1,
               SystemLayers& layers)
{
    ScopedSpan point(spans, "kl1 " + bench.name, parent);
    const kl1::Kl1Config config = kl1::bench::paperConfig(8);
    const std::string query = bench.query(kGridScale);

    const std::uint64_t compile = spans.begin("compile", point.id());
    const kl1::Module module =
        kl1::compileProgram(kl1::parseProgram(bench.source));
    kl1.compileSeconds += spans.end(compile);

    {
        kl1::Emulator emu(module, config);
        const std::uint64_t run = spans.begin("run", point.id());
        const kl1::RunStats stats = emu.run(query);
        kl1.runSeconds += spans.end(run);
        kl1.stats.reductions += stats.reductions;
        kl1.stats.instructions += stats.instructions;
        kl1.stats.suspensions += stats.suspensions;
        kl1.stats.steals += stats.steals;
        for (const auto& [name, value] : emu.queryBindings()) {
            if (name == "R")
                checkAnswer(report, bench.name, value,
                            bench.expected(kGridScale));
        }
    }

    std::vector<MemRef> trace;
    SystemConfig replay_config;
    {
        kl1::Emulator emu(module, config);
        AccessProbe probe(emu.system());
        emu.system().addAccessObserver(&probe);
        emu.system().setRefObserver(
            [&trace](const MemRef& ref) { trace.push_back(ref); });
        const std::uint64_t capture = spans.begin("capture", point.id());
        emu.run(query);
        spans.end(capture);
        emu.system().setRefObserver(nullptr);
        layers.add(probe, emu.system());
        replay_config = emu.system().config();
    }

    // Completion order puts every lock release before the next
    // acquisition, so the stream replays in order without a PE pick or a
    // lock wait: the replay costs only the System's accesses.
    System fresh(replay_config);
    std::size_t replayed = 0;
    const std::uint64_t replay_span = spans.begin("replay", point.id());
    for (const MemRef& ref : trace) {
        if (fresh.access(ref.pe, ref.op, ref.addr, ref.area).lockWait)
            break;
        replayed += 1;
    }
    kl1.replaySeconds += spans.end(replay_span);
    if (replayed != trace.size()) {
        fresh.abandonParkedWaiters();
        report.fail("kl1 " + bench.name + ": replay lock-waited at " +
                    std::to_string(replayed) + " of " +
                    std::to_string(trace.size()) + " references");
    }
}

JobReport
gridTraced(std::uint64_t seed, SpanRecorder& spans, std::uint64_t job)
{
    JobReport report;
    std::unique_ptr<GridInputs> in;
    {
        ScopedSpan setup(spans, "setup", job);
        in = buildGrid(seed);
    }

    // The grid, one single-point runSweep call per point over a pool of
    // kHostJobs workers, so every point gets its own span.
    struct Slot {
        std::size_t experiment = 0;
        sweep::SweepSpec spec;
        sweep::SweepRow row;
        double seconds = 0;
    };
    std::vector<Slot> slots;
    for (std::size_t e = 0; e < in->spec.experiments.size(); ++e) {
        for (sweep::SweepPoint& point : in->spec.experiments[e].expand()) {
            Slot slot;
            slot.experiment = e;
            slot.spec = onePointSpec(in->spec, e, slots.size(),
                                     std::move(point));
            slots.push_back(std::move(slot));
        }
    }
    const std::uint64_t run = spans.begin("run grid", job);
    {
        ThreadPool pool(kHostJobs);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            pool.submit([&slots, &spans, run, i] {
                Slot& slot = slots[i];
                const std::uint64_t span = spans.begin(
                    "point " + std::to_string(i) + " " +
                        slot.spec.experiments[0].id,
                    run);
                sweep::SweepOptions options;
                options.jobs = 1;
                sweep::SweepOutcome one = sweep::runSweep(slot.spec, options);
                slot.seconds = spans.end(span);
                slot.row = std::move(one.rows.at(0));
                slot.row.taskIndex = i;
                slot.row.experiment = slot.experiment;
            });
        }
        pool.wait();
    }
    const double wall = spans.end(run);

    std::vector<sweep::SweepRow> rows;
    std::map<std::string, double> task_cpu;
    double cpu_sum = 0;
    double max_task = 0;
    for (Slot& slot : slots) {
        task_cpu[in->spec.experiments[slot.experiment].id] += slot.row.seconds;
        cpu_sum += slot.row.seconds;
        max_task = std::max(max_task, slot.seconds);
        rows.push_back(std::move(slot.row));
    }
    const GridTotals totals = gridTotals(rows);
    checkGrid(report, totals, rows.size(), in->spec.totalTasks());
    report.digest = hex(totals.digest);
    report.set("refs_per_s", totals.refs / wall);
    for (const auto& [id, seconds] : task_cpu)
        report.set("sweep.task_cpu_s." + id, seconds);
    report.set("sweep.efficiency", cpu_sum / (wall * kHostJobs));
    report.set("sweep.max_task_s", max_task);

    // The KL1 layer, on the Table 1 points (every benchmark, 8 PEs).
    Kl1Layers kl1;
    SystemLayers layers;
    {
        ScopedSpan table1(spans, "kl1 table1", job);
        for (const kl1::bench::BenchProgram& bench :
             kl1::bench::allBenchmarks())
            tracedKl1Point(report, spans, table1.id(), bench, kl1, layers);
    }
    const double self_s = kl1.runSeconds - kl1.replaySeconds;
    report.set("kl1.self_s", self_s);
    report.set("kl1.ns_per_instr",
               self_s * 1e9 / static_cast<double>(kl1.stats.instructions));
    report.set("kl1.compile_s", kl1.compileSeconds);
    report.set("kl1.reductions", static_cast<double>(kl1.stats.reductions));
    report.set("kl1.instructions",
               static_cast<double>(kl1.stats.instructions));
    report.set("kl1.suspensions",
               static_cast<double>(kl1.stats.suspensions));
    report.set("kl1.steals", static_cast<double>(kl1.stats.steals));
    layers.report(report);
    return report;
}

// ------------------------------------------- bus_storm and par_hits

/**
 * bus_storm: every reference goes to a 32K-word shared region, 8x the
 * 4K-word caches, at 64 PEs: bus transactions, the snoop walk and the
 * O(P) PE pick dominate, and no KL1 code runs.
 */
ParShape
busStormShape(std::uint64_t seed)
{
    ParShape shape;
    shape.stepsPerPe = 16384; // 1M references over 64 PEs
    shape.sharedWords = 32768;
    shape.sharedPct = 100;
    shape.writePct = 70;
    shape.optPct = 10; // RI on the shared region
    shape.lockPct = 0;
    shape.seed = seed;
    return shape;
}

/**
 * par_hits: 16 PEs with the generator's default 2% shared references
 * and a private set that fits the cache, plus 1% locks and 10%
 * DW/DWD/ER/RP: host time goes to private hits and epoch rendezvous;
 * about one reference in ten reaches the bus.
 */
ParShape
parHitsShape(std::uint64_t seed)
{
    ParShape shape;
    shape.stepsPerPe = 131072; // 2M references over 16 PEs
    shape.lockPct = 1;
    shape.optPct = 10;
    shape.seed = seed;
    return shape;
}

struct ParInputs {
    std::unique_ptr<ParWorkloadSource> source;
    std::unique_ptr<System> system;
};

std::unique_ptr<ParInputs>
buildPar(const ParShape& shape, PeId pes)
{
    auto in = std::make_unique<ParInputs>();
    SystemConfig config;
    config.numPes = pes;
    in->source = std::make_unique<ParWorkloadSource>(
        shape, pes, config.cache.geometry.blockWords);
    config.memoryWords = in->source->memoryWords();
    config.validate();
    in->system = std::make_unique<System>(config);
    return in;
}

struct ParWorkload {
    ParShape shape;
    PeId pes = 0;
    unsigned jobs = 1;
};

ParWorkload
parWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "bus_storm")
        return {busStormShape(seed), 64, 1};
    return {parHitsShape(seed), 16, kHostJobs};
}

/** Fingerprint, makespan, bus transactions and protocol hash. */
std::uint64_t
parDigest(const System& system, const ParallelRunResult& result)
{
    std::uint64_t transactions = 0;
    for (int p = 0; p < kNumBusPatterns; ++p)
        transactions += system.bus().stats().transByPattern[p];
    std::uint64_t digest = mix(0, result.fingerprint);
    digest = mix(digest, system.makespan());
    digest = mix(digest, transactions);
    digest = mix(digest, result.completedRefs);
    return mix(digest,
               system.protocolHash(0, system.config().memoryWords));
}

/** One par run; @p wrap_source times RefSource::next. */
struct ParRun {
    ParallelRunResult result;
    Timing timing;
    std::uint64_t digest = 0;
    Accum gen;
};

ParRun
runPar(ParInputs& in, unsigned jobs, bool wrap_source, AccessProbe* probe)
{
    ParRun run;
    if (probe != nullptr)
        in.system->addAccessObserver(probe);
    ParallelCoreOptions options;
    options.jobs = jobs;
    TimedSource timed(*in.source, in.system->numPes());
    RefSource& source = wrap_source ? static_cast<RefSource&>(timed)
                                    : *in.source;
    run.timing = timeCall(
        [&] { run.result = runParallelCore(*in.system, source, options); });
    run.digest = parDigest(*in.system, run.result);
    run.gen = timed.total();
    return run;
}

JobReport
parTimed(const std::string& name, std::uint64_t seed, bool reference)
{
    JobReport report;
    const ParWorkload w = parWorkload(name, seed);
    std::unique_ptr<ParInputs> in;
    const double setup_s = setUp<ParInputs>(
        in, [&w] { return buildPar(w.shape, w.pes); });
    const ParRun run =
        runPar(*in, reference ? 1 : w.jobs, /*wrap_source=*/false, nullptr);
    report.digest = hex(run.digest);
    if (run.result.completedRefs < w.shape.stepsPerPe * w.pes)
        report.fail(name + ": completed only " +
                    std::to_string(run.result.completedRefs) + " references");
    const double refs = static_cast<double>(run.result.completedRefs);
    reportEndToEnd(report, setup_s, run.timing, refs,
                   static_cast<double>(in->system->bus().stats().totalCycles) *
                       1000.0 / refs);
    return report;
}

void
checkSameDigest(JobReport& report, const std::string& what,
                std::uint64_t expected, std::uint64_t got)
{
    if (expected != got) {
        report.fail("digest mismatch: " + what + " " + hex(got) +
                    " != " + hex(expected));
    }
}

JobReport
parTraced(const std::string& name, std::uint64_t seed, SpanRecorder& spans,
          std::uint64_t job)
{
    JobReport report;
    const ParWorkload w = parWorkload(name, seed);
    const auto build = [&](const char* span_name, std::uint64_t parent) {
        ScopedSpan setup(spans, span_name, parent);
        return buildPar(w.shape, w.pes);
    };

    // Traced run on the workload's own path: RefSource::next timed, no
    // access observer on the parallel workload (it would serialize it).
    std::unique_ptr<ParInputs> in = build("setup", job);
    const bool observe = w.jobs == 1;
    AccessProbe probe(*in->system);
    const std::uint64_t run_span = spans.begin("run", job);
    const ParRun traced =
        runPar(*in, w.jobs, /*wrap_source=*/true, observe ? &probe : nullptr);
    spans.end(run_span);
    report.digest = hex(traced.digest);
    report.set("refs_per_s",
               static_cast<double>(traced.result.completedRefs) /
                   traced.timing.wall);
    report.set("gen.ns_per_ref", traced.gen.meanNs());

    SystemLayers layers;
    if (observe) {
        layers.add(probe, *in->system);
    } else {
        // Parallel workload: untraced serialized and parallel runs of
        // the same seed for the speed-up, then a serialized run with the
        // access probe; all must equal the traced run.
        const std::unique_ptr<ParInputs> serial_in = build("setup serial", job);
        const std::uint64_t serial_span = spans.begin("run serial", job);
        const ParRun serial = runPar(*serial_in, 1, false, nullptr);
        spans.end(serial_span);
        checkSameDigest(report, "serialized run", traced.digest,
                        serial.digest);

        const std::unique_ptr<ParInputs> par_in = build("setup parallel", job);
        const std::uint64_t par_span = spans.begin("run parallel", job);
        const ParRun par = runPar(*par_in, w.jobs, false, nullptr);
        spans.end(par_span);
        checkSameDigest(report, "untraced parallel run", traced.digest,
                        par.digest);

        const std::unique_ptr<ParInputs> obs_in = build("setup observed", job);
        AccessProbe obs_probe(*obs_in->system);
        const std::uint64_t obs_span = spans.begin("run observed", job);
        const ParRun observed = runPar(*obs_in, 1, false, &obs_probe);
        spans.end(obs_span);
        checkSameDigest(report, "observed serialized run", traced.digest,
                        observed.digest);
        layers.add(obs_probe, *obs_in->system);

        const double completed =
            static_cast<double>(traced.result.completedRefs);
        report.set("par.epochs", static_cast<double>(traced.result.epochs));
        report.set("par.local_frac",
                   static_cast<double>(traced.result.localRefs) / completed);
        report.set("par.refs_per_epoch",
                   traced.result.epochs == 0
                       ? 0.0
                       : completed /
                             static_cast<double>(traced.result.epochs));
        report.set("par.cpu_util",
                   traced.timing.cpu / (traced.timing.wall * w.jobs));
        report.set("par.speedup_vs_serial",
                   serial.timing.wall / par.timing.wall);
    }
    layers.report(report);
    return report;
}

// ----------------------------------------------------------- explore

struct ExploreInputs {
    ExploreConfig config;
    /** Harness for the bus-accounting walk, built with the config. */
    std::unique_ptr<ConformanceHarness> witness;
};

/** 3 PEs x 1 block to depth 4: the explorer's own BFS, nothing else. */
std::unique_ptr<ExploreInputs>
buildExplore()
{
    auto in = std::make_unique<ExploreInputs>();
    in->config.harness.numPes = 3;
    in->config.harness.blocks = 1;
    in->config.depth = 4;
    in->witness = std::make_unique<ConformanceHarness>(in->config.harness);
    return in;
}

/**
 * Walk the explored configuration for up to kWitnessSteps commands,
 * taking enabled command (step mod count) each time, and return the bus
 * cycles per 1,000 commands: the workload's exact bus figure, since
 * explore() reports none.
 */
double
witnessCyclesPerKref(ConformanceHarness& harness)
{
    std::uint32_t steps = 0;
    for (; steps < kWitnessSteps; ++steps) {
        const std::vector<ProtoCmd> commands = harness.enabledCommands();
        if (commands.empty())
            break;
        harness.step(commands[steps % commands.size()]);
    }
    return steps == 0
               ? 0.0
               : static_cast<double>(
                     harness.system().bus().stats().totalCycles) *
                     1000.0 / steps;
}

void
checkExplore(JobReport& report, const ExploreResult& result)
{
    if (result.divergence)
        report.fail("explore divergence: " + result.divergenceMessage);
    if (result.truncated)
        report.fail("explore truncated at " +
                    std::to_string(result.states) + " states");
}

std::uint64_t
exploreDigest(const ExploreResult& result, double witness_per_kref)
{
    std::uint64_t digest = mix(0, result.states);
    digest = mix(digest, result.edges);
    digest = mix(digest, result.checks);
    return mix(digest, std::bit_cast<std::uint64_t>(witness_per_kref));
}

JobReport
exploreTimed()
{
    JobReport report;
    std::unique_ptr<ExploreInputs> in;
    const double setup_s = setUp<ExploreInputs>(in, buildExplore);
    ExploreResult result;
    const Timing timing = timeCall([&] { result = explore(in->config); });
    checkExplore(report, result);
    const double witness = witnessCyclesPerKref(*in->witness);
    report.digest = hex(exploreDigest(result, witness));
    // Each check is one harness command: one System access, fully
    // cross-checked against the reference machine.
    reportEndToEnd(report, setup_s, timing,
                   static_cast<double>(result.checks), witness);
    return report;
}

JobReport
exploreTraced(SpanRecorder& spans, std::uint64_t job)
{
    JobReport report;
    std::unique_ptr<ExploreInputs> in;
    {
        ScopedSpan setup(spans, "setup", job);
        in = buildExplore();
    }
    const std::uint64_t run = spans.begin("explore", job);
    const ExploreResult result = explore(in->config);
    const double wall = spans.end(run);
    checkExplore(report, result);
    double witness = 0;
    {
        ScopedSpan walk(spans, "witness walk", job);
        witness = witnessCyclesPerKref(*in->witness);
    }
    report.digest = hex(exploreDigest(result, witness));
    report.set("refs_per_s", static_cast<double>(result.checks) / wall);
    report.set("model.states", static_cast<double>(result.states));
    report.set("model.edges", static_cast<double>(result.edges));
    report.set("model.checks", static_cast<double>(result.checks));
    report.set("model.ns_per_edge",
               wall * 1e9 / static_cast<double>(result.edges));
    report.set("model.states_per_s",
               static_cast<double>(result.states) / wall);
    return report;
}

} // namespace

JobReport
runAnswerProbe(const std::string& expected_suffix)
{
    JobReport report;
    const kl1::bench::BenchProgram& bench =
        kl1::bench::benchmarkByName("Pascal");
    const kl1::bench::BenchResult result =
        kl1::bench::runBenchmark(bench, 1, kl1::bench::paperConfig(2));
    checkAnswer(report, bench.name, result.answer,
                result.expected + expected_suffix);
    return report;
}

JobReport
runJob(const JobOptions& options)
{
    const std::string& name = options.workload;
    JobReport report;
    if (name != "paper_grid" && name != "bus_storm" && name != "par_hits" &&
        name != "explore") {
        report.fail("unknown workload '" + name + "'");
        return report;
    }
    const bool par = name == "bus_storm" || name == "par_hits";
    if (options.mode == Mode::Reference) {
        if (!par)
            report.fail("no reference run for workload " + name);
        else
            report = parTimed(name, options.seed, /*reference=*/true);
        return report;
    }
    if (options.mode == Mode::Timed) {
        if (name == "paper_grid")
            return gridTimed(options.seed);
        if (name == "explore")
            return exploreTimed();
        return parTimed(name, options.seed, /*reference=*/false);
    }

    SpanRecorder spans;
    const std::uint64_t job =
        spans.begin("job " + name, SpanRecorder::kNoParent);
    if (name == "paper_grid")
        report = gridTraced(options.seed, spans, job);
    else if (name == "explore")
        report = exploreTraced(spans, job);
    else
        report = parTraced(name, options.seed, spans, job);
    spans.end(job);
    if (!options.spansPath.empty() &&
        !spans.writeChromeTrace(options.spansPath))
        report.fail("cannot write spans to " + options.spansPath);
    return report;
}

} // namespace perfbench
