/**
 * @file
 * Perf regression ledger tests (docs/OBSERVABILITY.md): metric
 * extraction per document shape, JSONL record round-trip, ledger
 * load/append, every gate path (throughput drop, exact drift, golden
 * update, new/disappeared metrics) and the markdown trend report.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/sim_fault.h"
#include "obs/perf_ledger.h"

namespace pim {
namespace {

std::string
tmpPath(const std::string& leaf)
{
    return ::testing::TempDir() + "/" + leaf;
}

LedgerRecord
makeRecord(std::uint64_t seq, double refs_per_sec, double cycles)
{
    LedgerRecord rec;
    rec.seq = seq;
    rec.stamp = "2026-08-09T00:00:00Z";
    rec.label = "test";
    rec.inputs = {"BENCH_perf.json"};
    rec.metrics["perf.p8.refs_per_sec"] = {refs_per_sec, false};
    rec.metrics["perf.p8.cycles_per_ref"] = {cycles, true};
    return rec;
}

// ---------------------------------------------------- extraction

TEST(Extract, PerfDocTakesEveryRow)
{
    const JsonValue doc = JsonValue::parse(R"({
        "name": "perf",
        "rows": [
            {"pes_point": 1, "refs_per_sec": 9000.0,
             "cycles_per_ref": 2.5},
            {"pes_point": 8,
             "refs_per_sec": 123456.0, "cycles_per_ref": 4.5,
             "bus_transactions": 42},
            {"refs_per_sec": 1.0}
        ]})");
    const auto metrics = extractLedgerMetrics(doc);
    ASSERT_EQ(metrics.size(), 5u);
    EXPECT_EQ(metrics.at("perf.p1.refs_per_sec").value, 9000.0);
    EXPECT_EQ(metrics.at("perf.p1.cycles_per_ref").value, 2.5);
    EXPECT_EQ(metrics.at("perf.p8.refs_per_sec").value, 123456.0);
    EXPECT_FALSE(metrics.at("perf.p8.refs_per_sec").exact);
    EXPECT_TRUE(metrics.at("perf.p8.cycles_per_ref").exact);
    EXPECT_TRUE(metrics.at("perf.p8.bus_transactions").exact);
}

TEST(Extract, BenchRowsTakeMeasuredFieldsAsExact)
{
    const JsonValue doc = JsonValue::parse(R"({
        "name": "table1",
        "rows": [
            {"bench": "Puzzle", "measured_cycles": 100,
             "measured_hit_rate": 0.95, "paper_cycles": 99}
        ]})");
    const auto metrics = extractLedgerMetrics(doc);
    ASSERT_EQ(metrics.size(), 2u);
    EXPECT_TRUE(metrics.at("table1.r0.measured_cycles").exact);
    EXPECT_TRUE(metrics.at("table1.r0.measured_hit_rate").exact);
    EXPECT_EQ(metrics.count("table1.r0.paper_cycles"), 0u);
}

TEST(Extract, SweepDocSumsBusCyclesPerExperiment)
{
    const JsonValue doc = JsonValue::parse(R"({
        "name": "sweep", "failed_rows": 1,
        "experiments": [
            {"id": "capacity",
             "aggregate": {"makespan": {"mean": 5000.5}},
             "rows": [{"bus_cycles": 10}, {"bus_cycles": 32}]}
        ]})");
    const auto metrics = extractLedgerMetrics(doc);
    EXPECT_EQ(metrics.at("sweep.failed_rows").value, 1.0);
    EXPECT_EQ(metrics.at("sweep.capacity.makespan_mean").value, 5000.5);
    EXPECT_EQ(metrics.at("sweep.capacity.bus_cycles").value, 42.0);
    EXPECT_TRUE(metrics.at("sweep.capacity.bus_cycles").exact);
}

TEST(Extract, SweepPerfAndCampaignAndAttribution)
{
    const auto perf = extractLedgerMetrics(JsonValue::parse(
        R"({"sims_per_sec": 12.5, "speedup_vs_serial": 3.1})"));
    EXPECT_FALSE(perf.at("sweep_perf.sims_per_sec").exact);
    EXPECT_FALSE(perf.at("sweep_perf.speedup_vs_serial").exact);

    const auto campaign = extractLedgerMetrics(
        JsonValue::parse(R"({"totals": {"escaped": 0}, "escaped": 0})"));
    EXPECT_TRUE(campaign.at("campaign.escaped").exact);
    EXPECT_EQ(campaign.at("campaign.escaped").value, 0.0);

    const auto attr = extractLedgerMetrics(JsonValue::parse(R"({
        "name": "attribution",
        "miss_classes": {"total": 7, "cold": 5},
        "buckets": [{"bucket": "memory_fill", "cycles": 90}]})"));
    EXPECT_EQ(attr.at("attr.miss.total").value, 7.0);
    EXPECT_EQ(attr.at("attr.bucket.memory_fill").value, 90.0);
    EXPECT_TRUE(attr.at("attr.bucket.memory_fill").exact);
}

TEST(Extract, UnknownShapeYieldsNothing)
{
    EXPECT_TRUE(extractLedgerMetrics(JsonValue::parse("{}")).empty());
    EXPECT_TRUE(
        extractLedgerMetrics(JsonValue::parse(R"({"x": [1, 2]})")).empty());
    EXPECT_TRUE(extractLedgerMetrics(JsonValue::parse("[1]")).empty());
}

// ------------------------------------------------- record round-trip

TEST(LedgerRecordIo, LineRoundTripsEveryField)
{
    const LedgerRecord rec = makeRecord(3, 1000.0, 4.25);
    const std::string line = ledgerRecordLine(rec);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const LedgerRecord back = parseLedgerRecord(line);
    EXPECT_EQ(back.seq, 3u);
    EXPECT_EQ(back.stamp, rec.stamp);
    EXPECT_EQ(back.label, rec.label);
    EXPECT_EQ(back.inputs, rec.inputs);
    ASSERT_EQ(back.metrics.size(), 2u);
    EXPECT_EQ(back.metrics.at("perf.p8.refs_per_sec").value, 1000.0);
    EXPECT_FALSE(back.metrics.at("perf.p8.refs_per_sec").exact);
    EXPECT_TRUE(back.metrics.at("perf.p8.cycles_per_ref").exact);
}

TEST(LedgerRecordIo, MalformedLinesThrowParseFaults)
{
    EXPECT_THROW(parseLedgerRecord("{}"), SimFault);
    EXPECT_THROW(parseLedgerRecord(R"({"seq": 1})"), SimFault);
    EXPECT_THROW(
        parseLedgerRecord(R"({"seq": 1, "metrics": {"m": {}}})"),
        SimFault);
}

// ------------------------------------------------------ file I/O

TEST(LedgerFile, MissingLedgerIsEmptyHistory)
{
    EXPECT_TRUE(loadLedger(tmpPath("no_such_ledger.jsonl")).empty());
}

TEST(LedgerFile, AppendThenLoadPreservesOrder)
{
    const std::string path = tmpPath("ledger_roundtrip.jsonl");
    std::remove(path.c_str());
    appendLedger(path, makeRecord(1, 100.0, 4.0));
    appendLedger(path, makeRecord(2, 110.0, 4.0));
    const std::vector<LedgerRecord> history = loadLedger(path);
    ASSERT_EQ(history.size(), 2u);
    EXPECT_EQ(history[0].seq, 1u);
    EXPECT_EQ(history[1].seq, 2u);
    EXPECT_EQ(history[1].metrics.at("perf.p8.refs_per_sec").value, 110.0);
}

TEST(LedgerFile, BlankLinesSkippedBadLinesNameTheLineNumber)
{
    const std::string path = tmpPath("ledger_bad.jsonl");
    {
        std::ofstream out(path, std::ios::binary);
        out << ledgerRecordLine(makeRecord(1, 1.0, 1.0)) << "\n\n"
            << "not json\n";
    }
    try {
        loadLedger(path);
        FAIL() << "expected a parse fault";
    } catch (const SimFault& fault) {
        EXPECT_NE(std::string(fault.what()).find(":3:"),
                  std::string::npos);
    }
}

// ------------------------------------------------------- the gate

TEST(Gate, SmallThroughputDipPassesBigDropFails)
{
    const GateConfig config; // 20% drop allowed.
    const LedgerRecord base = makeRecord(1, 1000.0, 4.0);
    const GateResult ok =
        gateRecords(base, makeRecord(2, 850.0, 4.0), config);
    EXPECT_FALSE(ok.failed());
    EXPECT_EQ(ok.compared, 2u);

    const GateResult bad =
        gateRecords(base, makeRecord(2, 700.0, 4.0), config);
    ASSERT_TRUE(bad.failed());
    EXPECT_EQ(bad.regressions[0].metric, "perf.p8.refs_per_sec");
    EXPECT_FALSE(bad.regressions[0].exact);
    EXPECT_LT(bad.regressions[0].deltaPct, -20.0);
}

TEST(Gate, BigThroughputGainIsANoteNotARegression)
{
    const GateResult res = gateRecords(makeRecord(1, 1000.0, 4.0),
                                       makeRecord(2, 2000.0, 4.0),
                                       GateConfig{});
    EXPECT_FALSE(res.failed());
    ASSERT_EQ(res.notes.size(), 1u);
    EXPECT_NE(res.notes[0].find("improved"), std::string::npos);
}

TEST(Gate, ExactDriftFailsEitherDirectionUnlessGoldenUpdated)
{
    const LedgerRecord base = makeRecord(1, 1000.0, 4.0);
    for (const double drift : {4.0001, 3.9999}) {
        const GateResult res =
            gateRecords(base, makeRecord(2, 1000.0, drift), GateConfig{});
        ASSERT_TRUE(res.failed());
        EXPECT_EQ(res.regressions[0].metric, "perf.p8.cycles_per_ref");
        EXPECT_TRUE(res.regressions[0].exact);
    }
    GateConfig golden;
    golden.updateGolden = true;
    const GateResult updated =
        gateRecords(base, makeRecord(2, 1000.0, 5.0), golden);
    EXPECT_FALSE(updated.failed());
    ASSERT_EQ(updated.notes.size(), 1u);
    EXPECT_NE(updated.notes[0].find("golden updated"), std::string::npos);
}

TEST(Gate, ExactToleranceAllowsTinyDrift)
{
    GateConfig config;
    config.exactTolPct = 1.0;
    const GateResult res = gateRecords(makeRecord(1, 1000.0, 400.0),
                                       makeRecord(2, 1000.0, 402.0),
                                       config);
    EXPECT_FALSE(res.failed()); // 0.5% < 1% tolerance.
}

TEST(Gate, NewAndDisappearedMetricsAreNotes)
{
    LedgerRecord base = makeRecord(1, 1000.0, 4.0);
    LedgerRecord cur = makeRecord(2, 1000.0, 4.0);
    base.metrics["sweep.failed_rows"] = {0.0, true};
    cur.metrics["campaign.escaped"] = {0.0, true};
    const GateResult res = gateRecords(base, cur, GateConfig{});
    EXPECT_FALSE(res.failed());
    EXPECT_EQ(res.compared, 2u);
    bool saw_new = false;
    bool saw_gone = false;
    for (const std::string& note : res.notes) {
        saw_new |= note.find("new metric: campaign.escaped") !=
                   std::string::npos;
        saw_gone |= note.find("metric disappeared: sweep.failed_rows") !=
                    std::string::npos;
    }
    EXPECT_TRUE(saw_new);
    EXPECT_TRUE(saw_gone);
}

TEST(Gate, ExactRegressionsSortBeforeThroughputDrops)
{
    const GateResult res = gateRecords(makeRecord(1, 1000.0, 4.0),
                                       makeRecord(2, 10.0, 5.0),
                                       GateConfig{});
    ASSERT_EQ(res.regressions.size(), 2u);
    EXPECT_TRUE(res.regressions[0].exact);
    EXPECT_FALSE(res.regressions[1].exact);
}

TEST(Gate, ZeroBaselineDoesNotDivide)
{
    LedgerRecord base = makeRecord(1, 0.0, 0.0);
    const GateResult res =
        gateRecords(base, makeRecord(2, 10.0, 1.0), GateConfig{});
    // Exact 0 -> 1 is a 100% drift regression; throughput 0 -> 10 is a
    // gain, not a drop.
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_TRUE(res.regressions[0].exact);
}

// ---------------------------------------------------------- trend

TEST(Trend, MarkdownListsThroughputSeriesAndGoldenGuard)
{
    std::vector<LedgerRecord> history = {makeRecord(1, 1000.0, 4.0),
                                         makeRecord(2, 1100.0, 4.0),
                                         makeRecord(3, 990.0, 4.0)};
    const std::string md = trendMarkdown(history, 2);
    EXPECT_NE(md.find("# Performance trend"), std::string::npos);
    EXPECT_NE(md.find("## perf.p8.refs_per_sec"), std::string::npos);
    // last_n=2 clips seq 1 from the table.
    EXPECT_EQ(md.find("| 1 | 2026"), std::string::npos);
    EXPECT_NE(md.find("| 3 | 2026"), std::string::npos);
    EXPECT_NE(md.find("-10.0%"), std::string::npos); // 1100 -> 990.
    EXPECT_NE(md.find("## Golden guard"), std::string::npos);
    EXPECT_EQ(md.find("## perf.p8.cycles_per_ref"), std::string::npos);
    EXPECT_NE(trendMarkdown({}).find("empty"), std::string::npos);
}

} // namespace
} // namespace pim
