/**
 * @file
 * Schema validator for the simulator's JSON outputs (BENCH_*.json,
 * SWEEP.json, metrics, timelines, reportAllJson documents). Parses each
 * positional file and checks every --require=PATH dotted path resolves
 * to a value (numeric segments index arrays, e.g.
 * "rows.0.measured_cycles").
 *
 * --schema=NAME prepends a built-in required-path set for the
 * repository's standard documents: `bench` (a table binary's --json
 * report), `sweep` (pim_sweep's SWEEP.json, docs/EXPERIMENTS.md),
 * `sweep-perf` (its SWEEP.perf.json engine-throughput sidecar), `perf`
 * (pim_perf's BENCH_perf.json snoop-filter throughput report),
 * `campaign` (pim_soak's CAMPAIGN.json, docs/ROBUSTNESS.md),
 * `attribution` (the miss/cycle attribution report,
 * docs/OBSERVABILITY.md) and `history` (pim_report's
 * BENCH_HISTORY.jsonl ledger — JSONL, so each line is validated as its
 * own document). Explicit --require paths are checked in addition.
 *
 * Exit codes: 0 = all files parse and all required paths resolve;
 * 1 = a parse failure or a missing path. Used by the ctest `obs` and
 * `sweep` labels to validate schemas without a Python dependency.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/options.h"
#include "common/sim_fault.h"

using namespace pim;

namespace {

void
usage()
{
    std::printf(
        "json_check FILE... [--schema=NAME] [--require=PATH ...]\n"
        "  Parses each FILE as JSON and verifies every --require dotted\n"
        "  path resolves (numeric segments index arrays).\n"
        "  --schema adds a built-in path set: bench, sweep, sweep-perf,\n"
        "  perf, zoo, campaign, attribution, history (history validates\n"
        "  each JSONL line as its own document).\n");
}

/** Built-in required paths for @p schema; false if unknown. */
bool
schemaPaths(const std::string& schema, std::vector<std::string>* out)
{
    if (schema == "bench") {
        // A table/figure binary's --json report.
        *out = {"name", "scale", "pes", "rows.0.bench"};
        return true;
    }
    if (schema == "sweep") {
        // pim_sweep's SWEEP.json (docs/EXPERIMENTS.md).
        *out = {"name",
                "spec_seed",
                "tasks",
                "failed_rows",
                "fingerprint",
                "experiments.0.id",
                "experiments.0.kind",
                "experiments.0.rows.0.task",
                "experiments.0.rows.0.benchmark",
                "experiments.0.rows.0.makespan",
                "experiments.0.rows.0.bus_cycles",
                "experiments.0.rows.0.failed",
                "experiments.0.aggregate.makespan.mean",
                "experiments.0.aggregate.makespan.min",
                "experiments.0.aggregate.makespan.max"};
        return true;
    }
    if (schema == "sweep-perf") {
        // pim_sweep's SWEEP.perf.json engine-throughput sidecar.
        *out = {"jobs", "tasks", "shared_rows", "wall_seconds",
                "task_seconds_sum", "sims_per_sec", "speedup_vs_serial"};
        return true;
    }
    if (schema == "campaign") {
        // pim_soak's CAMPAIGN.json (docs/ROBUSTNESS.md).
        *out = {"name",
                "seeds_per_plan",
                "cells_total",
                "cells.0.plan",
                "cells.0.seed_slot",
                "cells.0.outcome",
                "cells.0.fires",
                "totals.clean",
                "totals.detected_auditor",
                "totals.detected_watchdog",
                "totals.timed_out",
                "totals.escaped",
                "escaped"};
        return true;
    }
    if (schema == "attribution") {
        // The attribution engine's report (docs/OBSERVABILITY.md).
        *out = {"name",
                "pes",
                "miss_classes.total",
                "miss_classes.cold",
                "miss_classes.capacity",
                "miss_classes.conflict",
                "miss_classes.invalidation",
                "miss_classes.lock_purge",
                "miss_classes.flush",
                "buckets.0.bucket",
                "buckets.0.cycles",
                "buckets.0.transactions",
                "by_op",
                "by_pe.0.pe",
                "hot_blocks",
                "locks",
                "waits",
                "cross_check.bus_total_cycles",
                "cross_check.attributed_cycles",
                "cross_check.match"};
        return true;
    }
    if (schema == "history") {
        // One pim_report ledger record (each JSONL line is one doc).
        *out = {"seq", "stamp", "label", "inputs", "metrics"};
        return true;
    }
    if (schema == "zoo") {
        // fig_zoo's protocol x replacement comparison report.
        *out = {"name",
                "scale",
                "pes",
                "rows.0.bench",
                "rows.0.bus_cycles_pim",
                "rows.0.rel_msi",
                "rows.0.rel_mesi",
                "rows.0.rel_moesi",
                "rows.0.rel_dragon",
                "rows.0.repl_rel_fifo",
                "rows.0.repl_rel_random",
                "rows.0.updates_dragon"};
        return true;
    }
    if (schema == "perf") {
        // pim_perf's BENCH_perf.json throughput report (one row per PE
        // point).
        *out = {"name",
                "scale",
                "pes",
                "rows.0.bench",
                "rows.0.pes_point",
                "rows.0.refs",
                "rows.0.refs_per_sec",
                "rows.0.cycles_per_ref",
                "rows.0.bus_transactions",
                "rows.0.fingerprint",
                "rows.0.cluster_size",
                "rows.0.hop_cycles",
                "rows.0.inter_cluster_cycles"};
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opts = Options::parse(argc, argv);
    if (opts.getBool("help") || opts.positional().empty()) {
        usage();
        return opts.getBool("help") ? 0 : 1;
    }

    // Collect every --require (the shared parser keeps only the last
    // value per name, so scan argv directly for repeats).
    std::vector<std::string> required;
    if (opts.has("schema")) {
        const std::string schema = opts.getString("schema");
        if (!schemaPaths(schema, &required)) {
            std::fprintf(stderr,
                         "json_check: unknown schema '%s' (expected "
                         "bench, sweep, sweep-perf, perf, zoo, "
                         "campaign, attribution or history)\n",
                         schema.c_str());
            return 1;
        }
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string prefix = "--require=";
        if (arg.rfind(prefix, 0) == 0)
            required.push_back(arg.substr(prefix.size()));
    }

    const bool jsonl = opts.getString("schema", "") == "history";

    int failures = 0;
    for (const std::string& path : opts.positional()) {
        if (jsonl) {
            // A ledger is JSONL: every non-blank line is one record and
            // must satisfy the schema on its own.
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                std::fprintf(stderr, "json_check: %s: cannot open\n",
                             path.c_str());
                ++failures;
                continue;
            }
            std::string line;
            std::size_t line_no = 0;
            std::size_t records = 0;
            int bad = 0;
            while (std::getline(in, line)) {
                ++line_no;
                if (line.find_first_not_of(" \t\r") == std::string::npos)
                    continue;
                ++records;
                JsonValue rec;
                try {
                    rec = JsonValue::parse(line);
                } catch (const SimFault& fault) {
                    std::fprintf(stderr, "json_check: %s:%zu: %s\n",
                                 path.c_str(), line_no, fault.what());
                    ++bad;
                    continue;
                }
                for (const std::string& req : required) {
                    if (rec.findPath(req) == nullptr) {
                        std::fprintf(stderr,
                                     "json_check: %s:%zu: missing "
                                     "required path '%s'\n",
                                     path.c_str(), line_no, req.c_str());
                        ++bad;
                    }
                }
            }
            if (records == 0) {
                std::fprintf(stderr, "json_check: %s: no records\n",
                             path.c_str());
                ++bad;
            }
            failures += bad;
            if (bad == 0) {
                std::printf("json_check: %s: ok (%zu ledger records)\n",
                            path.c_str(), records);
            }
            continue;
        }
        JsonValue doc;
        try {
            doc = JsonValue::parseFile(path);
        } catch (const SimFault& fault) {
            std::fprintf(stderr, "json_check: %s: %s\n", path.c_str(),
                         fault.what());
            ++failures;
            continue;
        }
        int missing = 0;
        for (const std::string& req : required) {
            if (doc.findPath(req) == nullptr) {
                std::fprintf(stderr,
                             "json_check: %s: missing required path "
                             "'%s'\n",
                             path.c_str(), req.c_str());
                ++missing;
            }
        }
        failures += missing;
        if (missing == 0) {
            std::printf("json_check: %s: ok (%zu top-level members)\n",
                        path.c_str(), doc.size());
        }
    }
    return failures == 0 ? 0 : 1;
}
