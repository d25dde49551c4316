#include "obs/perf_ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/sim_fault.h"

namespace pim {

namespace {

void
putMetric(std::map<std::string, LedgerMetric>* out, const std::string& key,
          double value, bool exact)
{
    LedgerMetric metric;
    metric.value = value;
    metric.exact = exact;
    (*out)[key] = metric;
}

/** Number at @p path under @p doc, or false. */
bool
numberAt(const JsonValue& doc, const std::string& path, double* out)
{
    const JsonValue* v = doc.findPath(path);
    if (v == nullptr || !v->isNumber())
        return false;
    *out = v->asNumber();
    return true;
}

void
extractPerf(const JsonValue& doc, std::map<std::string, LedgerMetric>* out)
{
    const JsonValue* rows = doc.find("rows");
    if (rows == nullptr || !rows->isArray())
        return;
    for (const JsonValue& row : rows->asArray()) {
        const JsonValue* pes = row.find("pes_point");
        if (pes == nullptr || !pes->isNumber())
            continue;
        const std::string prefix =
            "perf.p" +
            std::to_string(static_cast<std::uint64_t>(pes->asNumber()));
        const JsonValue* v = row.find("refs_per_sec");
        if (v != nullptr && v->isNumber())
            putMetric(out, prefix + ".refs_per_sec", v->asNumber(), false);
        v = row.find("cycles_per_ref");
        if (v != nullptr && v->isNumber())
            putMetric(out, prefix + ".cycles_per_ref", v->asNumber(), true);
        v = row.find("bus_transactions");
        if (v != nullptr && v->isNumber()) {
            putMetric(out, prefix + ".bus_transactions", v->asNumber(),
                      true);
        }
    }
}

void
extractBenchRows(const JsonValue& doc, const std::string& name,
                 std::map<std::string, LedgerMetric>* out)
{
    const JsonValue* rows = doc.find("rows");
    if (rows == nullptr || !rows->isArray())
        return;
    std::size_t i = 0;
    for (const JsonValue& row : rows->asArray()) {
        if (row.isObject()) {
            for (const auto& [key, value] : row.members()) {
                if (key.rfind("measured", 0) == 0 && value.isNumber()) {
                    putMetric(out,
                              name + ".r" + std::to_string(i) + "." + key,
                              value.asNumber(), true);
                }
            }
        }
        ++i;
    }
}

void
extractSweep(const JsonValue& doc, std::map<std::string, LedgerMetric>* out)
{
    double failed = 0;
    if (numberAt(doc, "failed_rows", &failed))
        putMetric(out, "sweep.failed_rows", failed, true);
    const JsonValue* experiments = doc.find("experiments");
    if (experiments == nullptr || !experiments->isArray())
        return;
    for (const JsonValue& exp : experiments->asArray()) {
        const JsonValue* id = exp.find("id");
        if (id == nullptr || !id->isString())
            continue;
        const std::string prefix = "sweep." + id->asString();
        double mean = 0;
        if (numberAt(exp, "aggregate.makespan.mean", &mean))
            putMetric(out, prefix + ".makespan_mean", mean, true);
        const JsonValue* rows = exp.find("rows");
        if (rows != nullptr && rows->isArray()) {
            double bus_total = 0;
            bool any = false;
            for (const JsonValue& row : rows->asArray()) {
                const JsonValue* cycles = row.find("bus_cycles");
                if (cycles != nullptr && cycles->isNumber()) {
                    bus_total += cycles->asNumber();
                    any = true;
                }
            }
            if (any)
                putMetric(out, prefix + ".bus_cycles", bus_total, true);
        }
    }
}

void
extractAttribution(const JsonValue& doc,
                   std::map<std::string, LedgerMetric>* out)
{
    const JsonValue* classes = doc.find("miss_classes");
    if (classes != nullptr && classes->isObject()) {
        for (const auto& [key, value] : classes->members()) {
            if (value.isNumber())
                putMetric(out, "attr.miss." + key, value.asNumber(), true);
        }
    }
    const JsonValue* buckets = doc.find("buckets");
    if (buckets != nullptr && buckets->isArray()) {
        for (const JsonValue& bucket : buckets->asArray()) {
            const JsonValue* name = bucket.find("bucket");
            const JsonValue* cycles = bucket.find("cycles");
            if (name != nullptr && name->isString() && cycles != nullptr &&
                cycles->isNumber()) {
                putMetric(out, "attr.bucket." + name->asString(),
                          cycles->asNumber(), true);
            }
        }
    }
}

} // namespace

std::map<std::string, LedgerMetric>
extractLedgerMetrics(const JsonValue& doc)
{
    std::map<std::string, LedgerMetric> out;
    if (!doc.isObject())
        return out;

    const JsonValue* name = doc.find("name");
    const std::string doc_name =
        name != nullptr && name->isString() ? name->asString() : "";

    if (doc_name == "perf") {
        extractPerf(doc, &out);
    } else if (doc_name == "attribution") {
        extractAttribution(doc, &out);
    } else if (doc.has("experiments")) {
        extractSweep(doc, &out);
    } else if (doc.has("sims_per_sec")) {
        double v = 0;
        if (numberAt(doc, "sims_per_sec", &v))
            putMetric(&out, "sweep_perf.sims_per_sec", v, false);
        if (numberAt(doc, "speedup_vs_serial", &v))
            putMetric(&out, "sweep_perf.speedup_vs_serial", v, false);
    } else if (doc.has("totals")) {
        double v = 0;
        if (numberAt(doc, "totals.escaped", &v))
            putMetric(&out, "campaign.escaped", v, true);
    } else if (!doc_name.empty()) {
        extractBenchRows(doc, doc_name, &out);
    }
    return out;
}

std::string
ledgerRecordLine(const LedgerRecord& record)
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/false);
    json.beginObject();
    json.field("seq", record.seq);
    json.field("stamp", record.stamp);
    json.field("label", record.label);
    json.key("inputs");
    json.beginArray();
    for (const std::string& input : record.inputs)
        json.value(input);
    json.endArray();
    json.key("metrics");
    json.beginObject();
    for (const auto& [key, metric] : record.metrics) {
        json.key(key);
        json.beginObject();
        json.field("v", metric.value);
        json.field("exact", metric.exact);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    return os.str();
}

LedgerRecord
parseLedgerRecord(const std::string& line)
{
    const JsonValue doc = JsonValue::parse(line);
    LedgerRecord record;
    const JsonValue* seq = doc.find("seq");
    if (seq == nullptr || !seq->isNumber()) {
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "ledger record without a numeric 'seq'");
    }
    record.seq = static_cast<std::uint64_t>(seq->asNumber());
    const JsonValue* stamp = doc.find("stamp");
    if (stamp != nullptr && stamp->isString())
        record.stamp = stamp->asString();
    const JsonValue* label = doc.find("label");
    if (label != nullptr && label->isString())
        record.label = label->asString();
    const JsonValue* inputs = doc.find("inputs");
    if (inputs != nullptr && inputs->isArray()) {
        for (const JsonValue& input : inputs->asArray()) {
            if (input.isString())
                record.inputs.push_back(input.asString());
        }
    }
    const JsonValue* metrics = doc.find("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "ledger record without a 'metrics' object");
    }
    for (const auto& [key, value] : metrics->members()) {
        const JsonValue* v = value.find("v");
        const JsonValue* exact = value.find("exact");
        if (v == nullptr || !v->isNumber()) {
            throw PIM_SIM_FAULT(SimFaultKind::Parse, "ledger metric '",
                                key, "' without a numeric 'v'");
        }
        LedgerMetric metric;
        metric.value = v->asNumber();
        metric.exact = exact != nullptr && exact->isBool() &&
                       exact->asBool();
        record.metrics[key] = metric;
    }
    return record;
}

std::vector<LedgerRecord>
loadLedger(const std::string& path)
{
    std::vector<LedgerRecord> history;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return history; // No ledger yet: empty history.
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            history.push_back(parseLedgerRecord(line));
        } catch (const SimFault& fault) {
            throw PIM_SIM_FAULT(SimFaultKind::Parse, path, ":", line_no,
                                ": ", fault.message());
        }
    }
    return history;
}

void
appendLedger(const std::string& path, const LedgerRecord& record)
{
    // Read-modify-publish: the rewritten file is the old content plus
    // one line, landed atomically so a crash never tears the ledger.
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream os;
            os << in.rdbuf();
            content = os.str();
        }
    }
    if (!content.empty() && content.back() != '\n')
        content += '\n';
    content += ledgerRecordLine(record);
    content += '\n';
    std::string error;
    if (!writeFileAtomic(path, content, &error)) {
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "cannot append to ledger: ", error);
    }
}

GateResult
gateRecords(const LedgerRecord& baseline, const LedgerRecord& current,
            const GateConfig& config)
{
    GateResult result;
    for (const auto& [key, cur] : current.metrics) {
        const auto base_it = baseline.metrics.find(key);
        if (base_it == baseline.metrics.end()) {
            result.notes.push_back("new metric: " + key);
            continue;
        }
        const LedgerMetric& base = base_it->second;
        result.compared += 1;

        double delta_pct = 0;
        if (base.value != 0) {
            delta_pct = 100.0 * (cur.value - base.value) / base.value;
        } else if (cur.value != 0) {
            delta_pct = cur.value > 0 ? 100.0 : -100.0;
        }

        GateFinding finding;
        finding.metric = key;
        finding.baseline = base.value;
        finding.current = cur.value;
        finding.deltaPct = delta_pct;
        finding.exact = cur.exact;

        if (cur.exact) {
            if (std::fabs(delta_pct) > config.exactTolPct) {
                if (config.updateGolden) {
                    result.notes.push_back("golden updated: " + key);
                } else {
                    result.regressions.push_back(finding);
                }
            }
        } else if (delta_pct < -config.maxDropPct) {
            result.regressions.push_back(finding);
        } else if (delta_pct > config.maxDropPct) {
            result.notes.push_back("improved: " + key);
        }
    }
    for (const auto& [key, base] : baseline.metrics) {
        (void)base;
        if (current.metrics.find(key) == current.metrics.end())
            result.notes.push_back("metric disappeared: " + key);
    }
    // Most-severe first: exact drift before throughput drops, then by
    // magnitude.
    std::sort(result.regressions.begin(), result.regressions.end(),
              [](const GateFinding& a, const GateFinding& b) {
                  if (a.exact != b.exact)
                      return a.exact;
                  return std::fabs(a.deltaPct) > std::fabs(b.deltaPct);
              });
    return result;
}

std::string
trendMarkdown(const std::vector<LedgerRecord>& history, std::size_t last_n)
{
    std::ostringstream out;
    out << "# Performance trend\n\n";
    if (history.empty()) {
        out << "The ledger is empty.\n";
        return out.str();
    }
    const LedgerRecord& latest = history.back();
    out << history.size() << " ledger record(s); latest: seq "
        << latest.seq;
    if (!latest.stamp.empty())
        out << ", " << latest.stamp;
    if (!latest.label.empty())
        out << ", label `" << latest.label << "`";
    out << ".\n";

    const std::size_t first =
        history.size() > last_n ? history.size() - last_n : 0;

    // One section per throughput metric of the newest record.
    for (const auto& [key, metric] : latest.metrics) {
        if (metric.exact)
            continue;
        out << "\n## " << key << "\n\n";
        out << "| seq | stamp | value | delta |\n";
        out << "|----:|:------|------:|------:|\n";
        double prev = 0;
        bool has_prev = false;
        for (std::size_t i = first; i < history.size(); ++i) {
            const LedgerRecord& rec = history[i];
            const auto it = rec.metrics.find(key);
            if (it == rec.metrics.end())
                continue;
            char value_buf[32];
            std::snprintf(value_buf, sizeof value_buf, "%.6g",
                          it->second.value);
            out << "| " << rec.seq << " | " << rec.stamp << " | "
                << value_buf << " | ";
            if (has_prev && prev != 0) {
                char delta_buf[32];
                std::snprintf(delta_buf, sizeof delta_buf, "%+.1f%%",
                              100.0 * (it->second.value - prev) / prev);
                out << delta_buf;
            } else {
                out << "-";
            }
            out << " |\n";
            prev = it->second.value;
            has_prev = true;
        }
    }

    std::size_t exact_count = 0;
    for (const auto& [key, metric] : latest.metrics) {
        (void)key;
        if (metric.exact)
            ++exact_count;
    }
    out << "\n## Golden guard\n\n"
        << exact_count << " exact metric(s) under drift guard "
        << "(simulated cycles, bus totals, failure counts); any change "
        << "without `--update-golden` fails the gate.\n";
    return out.str();
}

} // namespace pim
