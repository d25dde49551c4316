#include "sweep/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "cache/config.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/sim_fault.h"
#include "common/thread_pool.h"
#include "sim/stress.h"

namespace pim::sweep {

namespace {

namespace bench = pim::kl1::bench;

/**
 * Per-task cost in CPU seconds of the calling thread, not wall time:
 * when workers outnumber cores a descheduled task accrues no cost, so
 * the serial-time estimate (the sum of task costs) stays honest.
 */
double
threadSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
#endif
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch()).count();
}

std::uint64_t
mixString(std::uint64_t h, const std::string& text)
{
    for (char c : text)
        h = hashCombine(h, static_cast<unsigned char>(c));
    return h;
}

std::string
hex16(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

OptPolicy
parsePolicy(const std::string& name)
{
    if (name == "All")
        return OptPolicy::all();
    if (name == "None")
        return OptPolicy::none();
    if (name == "Heap")
        return OptPolicy::heapOnly();
    if (name == "Goal")
        return OptPolicy::goalOnly();
    if (name == "Comm")
        return OptPolicy::commOnly();
    throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: unknown policy '",
                        name, "' (want None/Heap/Goal/Comm/All)");
}

void
metric(SweepRow& row, const std::string& name, double value)
{
    row.metrics.emplace_back(name, ParamValue::ofNumber(value));
}

void
metricText(SweepRow& row, const std::string& name, std::string value)
{
    row.metrics.emplace_back(name, ParamValue::ofText(std::move(value)));
}

/** A numeric parameter of a resolved point (every one is present). */
std::uint32_t
resolvedU32(const SweepPoint& point, const std::string& name)
{
    return static_cast<std::uint32_t>(point.number(name, 0));
}

/** Run one KL1 benchmark point and fill the row's metrics. */
void
runKl1Task(SweepRow& row, double timeout_seconds)
{
    const SweepPoint point = resolveKl1Point(row.params);
    const std::string bench_name = point.text("benchmark", "");
    if (bench_name.empty()) {
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "sweep: kl1 task needs a 'benchmark' param");
    }

    kl1::Kl1Config config = bench::paperConfig(
        resolvedU32(point, "pes"), parsePolicy(point.text("policy", "")));
    config.cache.geometry.blockWords = resolvedU32(point, "blockWords");
    config.cache.geometry.ways = resolvedU32(point, "ways");
    config.cache.geometry.sets = resolvedU32(point, "sets");
    config.cache.lockEntries = resolvedU32(point, "lockEntries");
    config.timing.widthWords = resolvedU32(point, "busWidthWords");
    config.cluster.clusterSize = resolvedU32(point, "clusterSize");
    config.cluster.hopCycles = resolvedU32(point, "hopCycles");
    config.enableGc = resolvedU32(point, "enableGc") != 0;
    config.timeoutSeconds = timeout_seconds;
    const std::uint32_t scale = resolvedU32(point, "scale");

    const bench::BenchResult result = bench::runBenchmark(
        bench::benchmarkByName(bench_name), scale, config);

    metric(row, "makespan", static_cast<double>(result.run.makespan));
    metric(row, "bus_cycles", static_cast<double>(result.bus.totalCycles));
    metric(row, "miss_pct", result.cache.missRatio() * 100);
    metric(row, "reductions", static_cast<double>(result.run.reductions));
    metric(row, "suspensions",
           static_cast<double>(result.run.suspensions));
    metric(row, "instructions",
           static_cast<double>(result.run.instructions));
    metric(row, "memory_refs", static_cast<double>(result.refs.total()));
    metric(row, "steals", static_cast<double>(result.run.steals));
    // Emitted only on clustered points so single-bus sweep outputs stay
    // byte-identical to the pre-cluster simulator.
    if (config.cluster.clustered()) {
        metric(row, "inter_cluster_cycles",
               static_cast<double>(result.bus.interClusterCycles));
    }
}

/** Run one stress point; a detected fault becomes a failed row. */
void
runStressTask(SweepRow& row, std::uint64_t derived_seed,
              double timeout_seconds)
{
    const SweepPoint& point = row.params;
    StressConfig config;
    config.seed = point.has("seed")
                      ? static_cast<std::uint64_t>(point.number("seed", 0))
                      : derived_seed;
    config.numPes = static_cast<std::uint32_t>(point.number("pes", 4));
    config.blockWords =
        static_cast<std::uint32_t>(point.number("blockWords", 4));
    config.ways = static_cast<std::uint32_t>(point.number("ways", 2));
    config.sets = static_cast<std::uint32_t>(point.number("sets", 64));
    config.steps =
        static_cast<std::uint64_t>(point.number("steps", 20000));
    config.spanWords =
        static_cast<std::uint64_t>(point.number("spanWords", 4096));
    config.writePct =
        static_cast<std::uint32_t>(point.number("writePct", 30));
    config.lockPct =
        static_cast<std::uint32_t>(point.number("lockPct", 10));
    config.optPct =
        static_cast<std::uint32_t>(point.number("optPct", 15));
    config.planSpec = point.text("plan", "");
    config.clusterSize =
        static_cast<std::uint32_t>(point.number("clusterSize", 0));
    config.hopCycles =
        static_cast<std::uint32_t>(point.number("hopCycles", 4));
    config.timeoutSeconds = timeout_seconds;
    if (point.has("starvationBound")) {
        config.watchdog.starvationBound = static_cast<std::uint64_t>(
            point.number("starvationBound", 100000));
    }
    if (point.has("livelockRetries")) {
        config.watchdog.livelockRetries = static_cast<std::uint32_t>(
            point.number("livelockRetries", 1000));
    }

    const StressResult result = runStress(config);
    metric(row, "seed", static_cast<double>(config.seed));
    metric(row, "completed_refs",
           static_cast<double>(result.completedRefs));
    metric(row, "audit_checks", static_cast<double>(result.auditChecks));
    metric(row, "injector_fires",
           static_cast<double>(result.injectorFires));
    metric(row, "makespan", static_cast<double>(result.makespan));
    metricText(row, "fingerprint", hex16(result.fingerprint));
    if (result.failed) {
        row.failed = true;
        row.faultKind = simFaultKindName(result.kind);
        row.message = result.message;
    }
}

void
writeParamValue(JsonWriter& json, const ParamValue& value)
{
    if (value.isNumber)
        json.value(value.number);
    else
        json.value(value.text);
}

/** The flat key/value body shared by SWEEP rows and BENCH rows. */
void
writeRowFields(JsonWriter& json, const SweepRow& row)
{
    json.field("task", static_cast<std::uint64_t>(row.taskIndex));
    for (const auto& [name, value] : row.params.params) {
        json.key(name);
        writeParamValue(json, value);
    }
    for (const auto& [name, value] : row.metrics) {
        json.key(name);
        writeParamValue(json, value);
    }
    json.field("failed", row.failed);
    if (row.failed) {
        json.field("fault_kind", row.faultKind);
        json.field("message", row.message);
    }
}

/** Per-experiment aggregate: mean/min/max per numeric metric, paper deltas. */
void
writeAggregate(JsonWriter& json, const SweepExperiment& experiment,
               const std::vector<const SweepRow*>& rows)
{
    // Metric names in first-appearance order.
    std::vector<std::string> names;
    for (const SweepRow* row : rows) {
        for (const auto& [name, value] : row->metrics) {
            if (!value.isNumber)
                continue;
            bool known = false;
            for (const std::string& existing : names)
                known = known || existing == name;
            if (!known)
                names.push_back(name);
        }
    }

    json.key("aggregate");
    json.beginObject();
    for (const std::string& name : names) {
        double sum = 0, lo = 0, hi = 0;
        std::uint64_t count = 0;
        for (const SweepRow* row : rows) {
            if (row->failed)
                continue;
            for (const auto& [metric_name, value] : row->metrics) {
                if (metric_name != name || !value.isNumber)
                    continue;
                if (count == 0) {
                    lo = hi = value.number;
                } else {
                    lo = std::min(lo, value.number);
                    hi = std::max(hi, value.number);
                }
                sum += value.number;
                ++count;
            }
        }
        if (count == 0)
            continue;
        json.key(name);
        json.beginObject();
        const double mean = sum / static_cast<double>(count);
        json.field("mean", mean);
        json.field("min", lo);
        json.field("max", hi);
        for (const auto& [paper_name, paper_value] : experiment.paper) {
            if (paper_name != name || paper_value == 0)
                continue;
            json.field("paper", paper_value);
            json.field("delta_pct",
                       100.0 * (mean - paper_value) / paper_value);
        }
        json.endObject();
    }
    json.endObject();
}

std::string
renderSweepJson(const SweepSpec& spec, const SweepOutcome& outcome,
                const SweepOptions& options)
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("name", spec.name);
    json.field("spec_seed", spec.seed);
    json.field("tasks", static_cast<std::uint64_t>(outcome.rows.size()));
    json.field("failed_rows",
               static_cast<std::uint64_t>(outcome.failedRows));
    json.key("experiments");
    json.beginArray();
    for (std::size_t e = 0; e < spec.experiments.size(); ++e) {
        const SweepExperiment& experiment = spec.experiments[e];
        std::vector<const SweepRow*> rows;
        for (const SweepRow& row : outcome.rows) {
            if (row.experiment == e)
                rows.push_back(&row);
        }
        json.beginObject();
        json.field("id", experiment.id);
        json.field("kind", taskKindName(experiment.kind));
        json.key("rows");
        json.beginArray();
        for (const SweepRow* row : rows) {
            json.beginObject();
            writeRowFields(json, *row);
            json.endObject();
        }
        json.endArray();
        writeAggregate(json, experiment, rows);
        json.endObject();
    }
    json.endArray();
    json.field("fingerprint", hex16(outcome.fingerprint));
    if (options.perfInline) {
        // Wall-clock data varies run to run; embedding it forfeits the
        // cross---jobs byte-identity guarantee (docs/EXPERIMENTS.md).
        json.key("perf");
        json.rawValue(renderPerfJson(outcome));
    }
    json.endObject();
    os << "\n";
    return os.str();
}

/** Double bits as 16 hex digits (bit-exact checkpoint round-trip). */
std::string
doubleBitsHex(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return hex16(bits);
}

double
doubleFromBitsHex(const std::string& hex)
{
    std::uint64_t bits = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            throw PIM_SIM_FAULT(SimFaultKind::Parse,
                                "checkpoint: bad double bits '", hex, "'");
        bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

/**
 * Serialize every completed slot. Numbers are stored twice: "b" carries
 * the exact IEEE bits (authoritative — a resumed SWEEP.json must be
 * *byte*-identical, so the doubles must be bit-identical), "n" the
 * human-readable value for people inspecting the checkpoint.
 */
std::string
renderCheckpoint(const SweepOutcome& outcome, const std::string& hash)
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("config_hash", hash);
    json.field("tasks", static_cast<std::uint64_t>(outcome.rows.size()));
    json.key("completed");
    json.beginArray();
    for (const SweepRow& row : outcome.rows) {
        if (!row.done)
            continue;
        json.beginObject();
        json.field("task", static_cast<std::uint64_t>(row.taskIndex));
        json.field("attempts", static_cast<std::uint64_t>(row.attempts));
        json.field("failed", row.failed);
        if (row.failed) {
            json.field("fault_kind", row.faultKind);
            json.field("message", row.message);
        }
        json.key("metrics");
        json.beginArray();
        for (const auto& [name, value] : row.metrics) {
            json.beginObject();
            json.field("k", name);
            if (value.isNumber) {
                json.field("b", doubleBitsHex(value.number));
                json.field("n", value.number);
            } else {
                json.field("s", value.text);
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
    return os.str();
}

/**
 * Restore checkpointed slots into @p outcome. Missing file -> nothing
 * to resume (fresh run). A present-but-foreign checkpoint (different
 * config hash or task count) is a Config fault: silently re-running a
 * different grid over it would corrupt both runs' outputs.
 */
std::size_t
loadCheckpoint(const std::string& path, const std::string& hash,
               SweepOutcome* outcome)
{
    if (!std::filesystem::exists(path))
        return 0;
    const JsonValue doc = JsonValue::parseFile(path);
    const std::string doc_hash =
        doc.has("config_hash") ? doc.at("config_hash").asString() : "";
    if (doc_hash != hash) {
        throw PIM_SIM_FAULT(SimFaultKind::Config, "checkpoint ", path,
                            " belongs to config ", doc_hash,
                            " but this sweep hashes to ", hash,
                            "; delete it or rerun the original spec");
    }
    const auto tasks =
        static_cast<std::size_t>(doc.at("tasks").asNumber());
    if (tasks != outcome->rows.size()) {
        throw PIM_SIM_FAULT(SimFaultKind::Config, "checkpoint ", path,
                            " covers ", tasks, " tasks but the grid has ",
                            outcome->rows.size());
    }
    std::size_t restored = 0;
    for (const JsonValue& entry : doc.at("completed").asArray()) {
        const auto index =
            static_cast<std::size_t>(entry.at("task").asNumber());
        if (index >= outcome->rows.size()) {
            throw PIM_SIM_FAULT(SimFaultKind::Config, "checkpoint ", path,
                                " references task ", index,
                                " outside the grid");
        }
        SweepRow& row = outcome->rows[index];
        row.metrics.clear();
        for (const JsonValue& m : entry.at("metrics").asArray()) {
            const std::string& name = m.at("k").asString();
            if (m.has("b")) {
                row.metrics.emplace_back(
                    name, ParamValue::ofNumber(
                              doubleFromBitsHex(m.at("b").asString())));
            } else {
                row.metrics.emplace_back(
                    name, ParamValue::ofText(m.at("s").asString()));
            }
        }
        row.failed = entry.at("failed").asBool();
        row.faultKind =
            row.failed ? entry.at("fault_kind").asString() : "";
        row.message = row.failed ? entry.at("message").asString() : "";
        row.attempts = entry.has("attempts")
                           ? static_cast<std::uint32_t>(
                                 entry.at("attempts").asNumber())
                           : 1;
        row.done = true;
        row.resumed = true;
        ++restored;
    }
    return restored;
}

} // namespace

SweepPoint
resolveKl1Point(const SweepPoint& point)
{
    const auto u32 = [&point](const char* name, double fallback) {
        return static_cast<std::uint32_t>(point.number(name, fallback));
    };
    const std::uint32_t block_words = u32("blockWords", 4);
    const std::uint32_t ways = u32("ways", 4);
    const std::uint32_t sets =
        point.has("capacityWords")
            ? CacheGeometry::forCapacity(
                  static_cast<std::uint64_t>(
                      point.number("capacityWords", 0)),
                  block_words, ways)
                  .sets
            : u32("sets", 256);

    SweepPoint resolved;
    const auto number = [&resolved](const char* name, double value) {
        resolved.set(name, ParamValue::ofNumber(value));
    };
    resolved.set("benchmark",
                 ParamValue::ofText(point.text("benchmark", "")));
    number("scale", u32("scale", 1));
    number("pes", u32("pes", 8));
    resolved.set("policy", ParamValue::ofText(point.text("policy", "All")));
    number("blockWords", block_words);
    number("ways", ways);
    number("sets", sets);
    number("lockEntries", u32("lockEntries", 2));
    number("busWidthWords", u32("busWidthWords", 1));
    number("clusterSize", u32("clusterSize", 0));
    number("hopCycles", u32("hopCycles", 4));
    number("enableGc", point.number("enableGc", 0) != 0 ? 1 : 0);
    return resolved;
}

std::uint32_t
retryBackoffMs(const RetryPolicy& policy, std::uint32_t retry_index)
{
    if (retry_index == 0)
        return 0;
    std::uint64_t ms = policy.backoffBaseMs;
    for (std::uint32_t i = 1;
         i < retry_index && ms < policy.backoffCapMs; ++i)
        ms *= 2;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ms, policy.backoffCapMs));
}

void
runWithRetry(const RetryPolicy& policy,
             const std::function<bool()>& attempt,
             RetryAccounting* accounting,
             const std::function<void(std::uint32_t)>& sleep_ms)
{
    for (std::uint32_t i = 0;; ++i) {
        if (accounting != nullptr)
            ++accounting->attempts;
        const bool transient_failure = attempt();
        if (!transient_failure || i >= policy.retries)
            return;
        const std::uint32_t backoff = retryBackoffMs(policy, i + 1);
        if (accounting != nullptr)
            accounting->backoffsMs.push_back(backoff);
        if (sleep_ms)
            sleep_ms(backoff);
    }
}

std::string
sweepConfigHash(const SweepSpec& spec, const SweepOptions& options)
{
    std::uint64_t h = mixString(hashCombine(0, spec.seed), spec.name);
    for (std::size_t e = 0; e < spec.experiments.size(); ++e) {
        const SweepExperiment& experiment = spec.experiments[e];
        h = mixString(h, experiment.id);
        h = mixString(h, taskKindName(experiment.kind));
        for (SweepPoint& point : experiment.expand()) {
            if (options.scale != 0 && experiment.kind == TaskKind::Kl1)
                point.set("scale", ParamValue::ofNumber(options.scale));
            h = mixString(h, point.toString());
        }
    }
    return hex16(h);
}

SweepOutcome
runSweep(const SweepSpec& spec, const SweepOptions& options)
{
    using Clock = std::chrono::steady_clock;

    SweepOutcome outcome;
    outcome.jobs = options.jobs == 0 ? ThreadPool::defaultWorkers()
                                     : options.jobs;

    // Expand the grid up front: rows[i] is task i's pre-assigned slot,
    // so workers never contend and completion order cannot matter.
    for (std::size_t e = 0; e < spec.experiments.size(); ++e) {
        const SweepExperiment& experiment = spec.experiments[e];
        for (SweepPoint& point : experiment.expand()) {
            SweepRow row;
            row.taskIndex = outcome.rows.size();
            row.experiment = e;
            row.params = std::move(point);
            if (options.scale != 0 && experiment.kind == TaskKind::Kl1) {
                row.params.set("scale", ParamValue::ofNumber(
                                            options.scale));
            }
            outcome.rows.push_back(std::move(row));
        }
    }

    const std::string config_hash = sweepConfigHash(spec, options);
    const std::string ckpt_path =
        options.outDir.empty()
            ? ""
            : (std::filesystem::path(options.outDir) /
               sweepCheckpointName()).string();

    if (options.resume && !ckpt_path.empty())
        outcome.resumedRows = loadCheckpoint(ckpt_path, config_hash,
                                             &outcome);

    // Pending rows in index order; --max-tasks caps how many this
    // invocation completes (the deterministic "interrupt" used by the
    // resume ctest), before any sharing below.
    std::vector<SweepRow*> pending;
    for (SweepRow& row : outcome.rows) {
        if (!row.done)
            pending.push_back(&row);
    }
    if (options.maxTasks != 0 && pending.size() > options.maxTasks)
        pending.resize(options.maxTasks);

    // One run per distinct simulation: KL1 rows with the same resolved
    // point form a group whose leader (group[0]) is a restored row or
    // else the lowest-index pending one. Stress rows, whose seeds come
    // from their task index, and points that do not resolve (they fail
    // on their own) are groups of one.
    const auto share_key = [&spec](const SweepRow& row) -> std::string {
        if (spec.experiments[row.experiment].kind != TaskKind::Kl1)
            return "";
        try {
            return resolveKl1Point(row.params).toString();
        } catch (const SimFault&) {
            return "";
        }
    };
    std::vector<std::vector<SweepRow*>> groups;
    std::map<std::string, std::size_t> group_of_key;
    for (SweepRow& row : outcome.rows) {
        const std::string key = row.done ? share_key(row) : "";
        if (!key.empty() && group_of_key.emplace(key, groups.size()).second)
            groups.push_back({&row});
    }
    for (SweepRow* row : pending) {
        const std::string key = share_key(*row);
        if (!key.empty()) {
            const auto [it, fresh] =
                group_of_key.emplace(key, groups.size());
            if (!fresh) {
                groups[it->second].push_back(row);
                continue;
            }
        }
        groups.push_back({row});
    }

    // Checkpoint plumbing: done flags flip only under the mutex, so the
    // serializer (also under it) never reads a half-filled row.
    std::mutex done_mutex;
    std::size_t completed_this_run = 0;
    const auto write_checkpoint_locked = [&] {
        if (ckpt_path.empty())
            return;
        std::string error;
        if (!writeFileAtomic(ckpt_path,
                             renderCheckpoint(outcome, config_hash),
                             &error)) {
            std::fprintf(stderr, "pim_sweep: checkpoint: %s\n",
                         error.c_str());
        }
    };
    // Followers copy the leader's result (seconds and attempts stay 0).
    const auto share_locked = [&outcome](const std::vector<SweepRow*>& group) {
        const SweepRow& leader = *group.front();
        for (std::size_t i = 1; i < group.size(); ++i) {
            SweepRow& follower = *group[i];
            follower.metrics = leader.metrics;
            follower.failed = leader.failed;
            follower.faultKind = leader.faultKind;
            follower.message = leader.message;
            follower.done = true;
        }
        outcome.sharedRows += group.size() - 1;
    };

    const Clock::time_point wall_start = Clock::now();
    {
        ThreadPool pool(outcome.jobs);
        for (const std::vector<SweepRow*>& group : groups) {
            SweepRow& row = *group.front();
            if (row.done) {
                std::lock_guard<std::mutex> lock(done_mutex);
                share_locked(group);
                continue;
            }
            const TaskKind kind = spec.experiments[row.experiment].kind;
            const std::uint64_t derived_seed =
                deriveSeed(spec.seed, row.taskIndex);
            pool.submit([&group, &row, &options, &done_mutex,
                         &completed_this_run, &write_checkpoint_locked,
                         &share_locked, kind, derived_seed] {
                RetryAccounting accounting;
                runWithRetry(
                    options.retry,
                    [&] {
                        // One attempt: reset the slot, run, classify. A
                        // faulting point is a result, not a crash — only
                        // transient kinds (timeouts) are worth retrying.
                        row.metrics.clear();
                        row.failed = false;
                        row.faultKind.clear();
                        row.message.clear();
                        const double start = threadSeconds();
                        try {
                            if (kind == TaskKind::Kl1)
                                runKl1Task(row, options.timeoutSeconds);
                            else
                                runStressTask(row, derived_seed,
                                              options.timeoutSeconds);
                        } catch (const SimFault& fault) {
                            row.failed = true;
                            row.faultKind = simFaultKindName(fault.kind());
                            row.message = fault.message();
                        }
                        row.seconds += threadSeconds() - start;
                        const bool transient =
                            row.failed &&
                            (row.faultKind ==
                                 simFaultKindName(SimFaultKind::Timeout));
                        if (transient)
                            row.retriedKinds.push_back(row.faultKind);
                        return transient;
                    },
                    &accounting,
                    [](std::uint32_t ms) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(ms));
                    });
                row.attempts = accounting.attempts;
                // The final attempt was not retried; its kind is not a
                // "retried" one unless a later attempt actually ran.
                if (row.retriedKinds.size() == accounting.attempts &&
                    !row.retriedKinds.empty())
                    row.retriedKinds.pop_back();

                std::lock_guard<std::mutex> lock(done_mutex);
                row.done = true;
                share_locked(group);
                const std::size_t before = completed_this_run;
                completed_this_run += group.size();
                if (options.checkpointEvery != 0 &&
                    before / options.checkpointEvery !=
                        completed_this_run / options.checkpointEvery)
                    write_checkpoint_locked();
            });
        }
        pool.wait();
    }
    outcome.wallSeconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    // Single-threaded aggregation in task order (determinism barrier).
    outcome.complete = true;
    for (const SweepRow& row : outcome.rows) {
        if (!row.done) {
            outcome.complete = false;
            continue;
        }
        ++outcome.completedRows;
        outcome.taskSecondsSum += row.seconds;
        if (row.failed)
            ++outcome.failedRows;
        if (row.attempts > 1)
            ++outcome.retriedRows;
    }

    if (outcome.complete) {
        for (const SweepRow& row : outcome.rows) {
            std::uint64_t h = hashCombine(0, row.taskIndex);
            h = mixString(h, row.params.toString());
            for (const auto& [name, value] : row.metrics) {
                h = mixString(h, name);
                h = mixString(h, value.toString());
            }
            h = hashCombine(h, row.failed ? 1 : 0);
            outcome.fingerprint = hashCombine(outcome.fingerprint, h);
        }
        outcome.sweepJson = renderSweepJson(spec, outcome, options);
    } else {
        // Partial run (--max-tasks): the checkpoint is the product; a
        // half-grid SWEEP document would masquerade as a full one.
        std::lock_guard<std::mutex> lock(done_mutex);
        write_checkpoint_locked();
    }
    return outcome;
}

std::string
renderPerfJson(const SweepOutcome& outcome)
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("jobs", static_cast<std::uint64_t>(outcome.jobs));
    json.field("tasks", static_cast<std::uint64_t>(outcome.rows.size()));
    json.field("completed_rows",
               static_cast<std::uint64_t>(outcome.completedRows));
    json.field("resumed_rows",
               static_cast<std::uint64_t>(outcome.resumedRows));
    // Rows that copied a twin's run; they add rows, not CPU seconds.
    json.field("shared_rows",
               static_cast<std::uint64_t>(outcome.sharedRows));
    json.field("wall_seconds", outcome.wallSeconds);
    json.field("task_seconds_sum", outcome.taskSecondsSum);
    json.field("sims_per_sec",
               outcome.wallSeconds == 0
                   ? 0.0
                   : static_cast<double>(outcome.rows.size()) /
                         outcome.wallSeconds);
    // Speedup vs --jobs=1, estimated as serial time (the sum of task
    // times) over wall time; exact when tasks dominate the run.
    json.field("speedup_vs_serial",
               outcome.wallSeconds == 0
                   ? 1.0
                   : outcome.taskSecondsSum / outcome.wallSeconds);
    // Retry history lives here, NOT in SWEEP.json: attempt counts
    // depend on wall-clock behavior, and the SWEEP document must be
    // byte-identical for any retry history (docs/ROBUSTNESS.md).
    json.field("retried_rows",
               static_cast<std::uint64_t>(outcome.retriedRows));
    json.key("retries");
    json.beginArray();
    for (const SweepRow& row : outcome.rows) {
        if (row.attempts <= 1)
            continue;
        json.beginObject();
        json.field("task", static_cast<std::uint64_t>(row.taskIndex));
        json.field("attempts", static_cast<std::uint64_t>(row.attempts));
        json.key("retried_kinds");
        json.beginArray();
        for (const std::string& kind : row.retriedKinds)
            json.value(kind);
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return os.str();
}

bool
writeSweepFiles(const SweepSpec& spec, const SweepOutcome& outcome,
                const SweepOptions& options)
{
    namespace fs = std::filesystem;
    if (options.outDir.empty())
        return true;

    bool ok = true;
    const auto write_file = [&ok](const fs::path& path,
                                  const std::string& content) {
        // Atomic publish (temp + rename): a killed process leaves the
        // previous complete document, never a torn half-written one.
        std::string error;
        if (!writeFileAtomic(path.string(), content, &error)) {
            std::fprintf(stderr, "pim_sweep: %s\n", error.c_str());
            ok = false;
        }
    };

    if (!outcome.complete) {
        // Partial run: the checkpoint (already on disk, written by
        // runSweep) is the only valid artifact. Refresh the perf
        // sidecar so operators can see slice throughput, but never
        // publish a partial SWEEP.json.
        write_file(fs::path(options.outDir) / "SWEEP.perf.json",
                   renderPerfJson(outcome) + "\n");
        return ok;
    }

    write_file(fs::path(options.outDir) / "SWEEP.json", outcome.sweepJson);
    write_file(fs::path(options.outDir) / "SWEEP.perf.json",
               renderPerfJson(outcome) + "\n");

    // Per-experiment row files in the bench --json shape (flat rows;
    // docs/OBSERVABILITY.md), named BENCH_sweep_<id>.json.
    for (std::size_t e = 0; e < spec.experiments.size(); ++e) {
        std::ostringstream os;
        JsonWriter json(os, /*pretty=*/true);
        json.beginObject();
        json.field("name", "sweep_" + spec.experiments[e].id);
        json.field("kind", taskKindName(spec.experiments[e].kind));
        json.key("rows");
        json.beginArray();
        for (const SweepRow& row : outcome.rows) {
            if (row.experiment != e)
                continue;
            json.beginObject();
            writeRowFields(json, row);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        os << "\n";
        write_file(fs::path(options.outDir) /
                       ("BENCH_sweep_" + spec.experiments[e].id + ".json"),
                   os.str());
    }

    // The grid is fully drained and published; the checkpoint would
    // only confuse a later --resume of a different grid in the same
    // directory.
    std::error_code ec;
    fs::remove(fs::path(options.outDir) / sweepCheckpointName(), ec);
    return ok;
}

} // namespace pim::sweep
