/**
 * @file
 * Observability subsystem tests: the exact-sum guarantee of interval
 * telemetry (every additive column's per-interval deltas sum
 * bit-for-bit to the whole-run counter), trace-event JSON escaping and
 * structure, run-manifest round-trips, telemetry-off no-perturbation,
 * a spilled run's exports byte-identical to an in-memory run's,
 * occupancy gauges bounded by the structures' capacities, the warning
 * ring, and the thread pool's self-metrics.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dcbench.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/time_series.h"
#include "obs/trace_writer.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace dcb {
namespace {

// --- TimeSeriesRecorder: the exact-sum delta encoding -------------------

TEST(TimeSeries, FitDeltaMakesRunningSumsExact)
{
    // Fractional cumulative targets chosen to be awkward: thirds are
    // never exactly representable, so naive target[i]-target[i-1]
    // deltas drift off the cumulative values within a few rows.
    std::vector<double> targets;
    double t = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        t += static_cast<double>(i) / 3.0;
        targets.push_back(t);
    }
    double accounted = 0.0;
    for (const double target : targets) {
        accounted += obs::TimeSeriesRecorder::fit_delta(accounted, target);
        ASSERT_EQ(accounted, target);
    }
}

TEST(TimeSeries, FitDeltaIntegerCountersAreExactImmediately)
{
    EXPECT_EQ(obs::TimeSeriesRecorder::fit_delta(100.0, 250.0), 150.0);
    EXPECT_EQ(obs::TimeSeriesRecorder::fit_delta(0.0, 0.0), 0.0);
}

TEST(TimeSeries, StatsAndColumnLookup)
{
    obs::TimeSeriesRecorder rec({"a", "b"}, {true, false});
    const double r1[] = {1.0, 10.0};
    const double r2[] = {3.0, 20.0};
    rec.add_row(0, 100, r1);
    rec.add_row(100, 100, r2);
    EXPECT_EQ(rec.column_index("b"), 1);
    EXPECT_EQ(rec.column_index("missing"), -1);
    EXPECT_EQ(rec.sum(0), 4.0);
}

TEST(TimeSeries, CsvAndJsonRoundTrip)
{
    obs::TimeSeriesRecorder rec({"x"}, {true});
    const double r1[] = {1.5};
    rec.add_row(0, 10, r1);
    rec.set_source("wl \"quoted\"", 10);
    rec.set_totals({1.5});
    const std::string json = rec.to_json();
    EXPECT_NE(json.find("\"wl \\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"totals\": [1.5]"), std::string::npos);

    const std::string base = ::testing::TempDir() + "obs_test_rt";
    ASSERT_TRUE(rec.write_csv(base + ".csv"));
    ASSERT_TRUE(rec.write_json(base + ".json"));
    std::FILE* f = std::fopen((base + ".csv").c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[256] = {};
    ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
    EXPECT_STREQ(line, "interval,first_op,op_count,x\n");
    std::fclose(f);
}

// --- Interval telemetry through a real workload run ---------------------

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

core::HarnessConfig
telemetry_config(std::uint64_t interval_ops)
{
    core::HarnessConfig config;
    config.run.op_budget = 60'000;
    config.run.warmup_ops = 15'000;
    config.telemetry.interval_ops = interval_ops;
    config.telemetry.out_path.clear();  // in-memory only
    return config;
}

TEST(Telemetry, EveryAdditiveColumnSumsExactlyToTheRunTotal)
{
    // 4096 does not divide the measured span, so the final interval is
    // partial -- the flush path is part of the invariant under test.
    const core::RunResult run = core::run_workload(
        workloads::figure_order().front(), telemetry_config(4096));
    ASSERT_TRUE(run.status.ok) << run.status.error;
    ASSERT_NE(run.telemetry, nullptr);
    const obs::TimeSeriesRecorder& rec = *run.telemetry;
    ASSERT_GT(rec.rows().size(), 2u);
    const std::vector<std::string> cols = cpu::Core::telemetry_columns();
    const std::vector<bool> additive = cpu::Core::telemetry_additive();
    ASSERT_EQ(rec.totals().size(), cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (!additive[i])
            continue;
        // Bitwise equality, not near-equality: the delta encoding owes
        // us the exact IEEE double the counters ended the run with.
        EXPECT_EQ(rec.sum(i), rec.totals()[i])
            << "column " << cols[i] << " drifted by "
            << rec.sum(i) - rec.totals()[i];
    }
    // Cycles accumulate fractionally (per-op latency shares), so this
    // run exercised the nextafter fitting, not just integer luck.
    const int cycles = rec.column_index("cycles");
    ASSERT_GE(cycles, 0);
    EXPECT_NE(rec.totals()[cycles],
              std::floor(rec.totals()[cycles]));
}

TEST(Telemetry, OccupancyGaugesBoundedByCapacity)
{
    const core::RunResult run = core::run_workload(
        workloads::figure_order().front(), telemetry_config(4096));
    ASSERT_TRUE(run.status.ok);
    ASSERT_NE(run.telemetry, nullptr);
    const obs::TimeSeriesRecorder& rec = *run.telemetry;
    const cpu::CoreConfig core = cpu::westmere_core_config();
    const std::map<std::string, double> cap = {
        {"rob_occupancy", core.rob_entries},
        {"rs_occupancy", core.rs_entries},
        {"load_buf_occupancy", core.load_buffer_entries},
        {"store_buf_occupancy", core.store_buffer_entries},
    };
    for (const auto& [name, limit] : cap) {
        const int col = rec.column_index(name);
        ASSERT_GE(col, 0) << name;
        bool nonzero = false;
        for (const obs::IntervalRow& row : rec.rows()) {
            EXPECT_GE(row.values[col], 0.0) << name;
            EXPECT_LE(row.values[col], limit) << name;
            nonzero = nonzero || row.values[col] > 0.0;
        }
        EXPECT_TRUE(nonzero) << name << " never moved";
    }
}

TEST(Telemetry, RowsCoverExactlyTheMeasuredSpan)
{
    const core::RunResult run = core::run_workload(
        workloads::figure_order().front(), telemetry_config(4096));
    ASSERT_TRUE(run.status.ok);
    const obs::TimeSeriesRecorder& rec = *run.telemetry;
    std::uint64_t expect_first = 0;
    for (const obs::IntervalRow& row : rec.rows()) {
        EXPECT_EQ(row.first_op, expect_first);
        expect_first = row.first_op + row.op_count;
    }
    const int inst = rec.column_index("inst_retired");
    ASSERT_GE(inst, 0);
    EXPECT_EQ(rec.sum(inst), rec.totals()[inst]);
}

TEST(Telemetry, OffByDefaultAndDoesNotPerturbTheRun)
{
    const std::string name = workloads::figure_order().front();
    core::HarnessConfig off = telemetry_config(0);
    const core::RunResult plain = core::run_workload(name, off);
    ASSERT_TRUE(plain.status.ok);
    EXPECT_EQ(plain.telemetry, nullptr);

    const core::RunResult observed =
        core::run_workload(name, telemetry_config(2048));
    ASSERT_TRUE(observed.status.ok);
    // Observation must be invisible to the simulation: every report
    // field identical to the unobserved run, bit for bit.
    EXPECT_EQ(plain.report.instructions, observed.report.instructions);
    EXPECT_EQ(plain.report.cycles, observed.report.cycles);
    EXPECT_EQ(plain.report.ipc, observed.report.ipc);
    EXPECT_EQ(plain.report.l1i_mpki, observed.report.l1i_mpki);
    EXPECT_EQ(plain.report.l2_mpki, observed.report.l2_mpki);
    EXPECT_EQ(plain.report.stalls.fetch, observed.report.stalls.fetch);
    EXPECT_EQ(plain.report.stalls.rob, observed.report.stalls.rob);
    EXPECT_EQ(plain.report.branch_misprediction_ratio,
              observed.report.branch_misprediction_ratio);
}

TEST(Telemetry, SpilledRunMatchesInMemoryRun)
{
    // An 80-op interval gives Sort about 10,000 rows: two full 4096-row
    // extents sealed mid-run plus the tail sealed at finalize.
    const std::string name = "Sort";  // already a safe file name
    core::HarnessConfig config = telemetry_config(80);
    const core::RunResult in_memory = core::run_workload(name, config);
    config.telemetry.out_path = ::testing::TempDir() + "obs_test_spill_";
    const core::RunResult spilled = core::run_workload(name, config);
    ASSERT_TRUE(in_memory.status.ok) << in_memory.status.error;
    ASSERT_TRUE(spilled.status.ok) << spilled.status.error;
    ASSERT_NE(in_memory.telemetry, nullptr);
    ASSERT_NE(spilled.telemetry, nullptr);
    ASSERT_FALSE(in_memory.telemetry->spilled());
    ASSERT_GE(in_memory.telemetry->total_rows(), 2u * 4096u);
    EXPECT_TRUE(spilled.telemetry->spilled());
    EXPECT_LE(spilled.telemetry->peak_buffered_rows(), 4096u);

    const std::string base =
        config.telemetry.out_path + name + ".telemetry";
    EXPECT_EQ(read_file(base + ".csv"), in_memory.telemetry->to_csv());
    EXPECT_EQ(read_file(base + ".json"), in_memory.telemetry->to_json());
    for (const char* ext : {".csv", ".json", ".dcx"})
        std::remove((base + ext).c_str());
}

TEST(Telemetry, SampledRunsSkipTelemetry)
{
    core::HarnessConfig config = telemetry_config(2048);
    config.sampling.ratio = 0.05;
    const core::RunResult run = core::run_workload(
        workloads::figure_order().front(), config);
    ASSERT_TRUE(run.status.ok);
    EXPECT_EQ(run.telemetry, nullptr);
}

// --- TraceWriter: escaping, structure, categories -----------------------

TEST(TraceWriter, EscapesNamesAndValidatesStructure)
{
    obs::TraceWriter trace;
    trace.complete("evil \"name\"\\with\nnewline", "cat\t1",
                   obs::TraceWriter::kHostPid, 7, 1.0, 2.0,
                   "{\"k\": 1}");
    trace.instant("tick", "marks", obs::TraceWriter::kClusterPid, 3, 5.0);
    trace.name_thread(obs::TraceWriter::kHostPid, 7, "lane \"7\"");
    const std::string json = trace.to_json();
    // Raw specials must be gone, their escapes present.
    EXPECT_EQ(json.find("evil \"name\""), std::string::npos);
    EXPECT_NE(json.find("evil \\\"name\\\"\\\\with\\nnewline"),
              std::string::npos);
    EXPECT_NE(json.find("cat\\t1"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"k\": 1}"), std::string::npos);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.count_category("marks"), 1u);
    EXPECT_EQ(trace.count_category("absent"), 0u);
}

/** A burst of instants renders exactly as the same instants pushed one
    by one, between other events, and counts as one event per tid. */
TEST(TraceWriter, InstantBurstMatchesSingleInstants)
{
    const std::uint64_t tids[] = {910003, 910000, 910003, 910015};
    obs::TraceWriter burst;
    obs::TraceWriter single;
    for (obs::TraceWriter* trace : {&burst, &single}) {
        trace->complete("epoch 0", "epoch", obs::TraceWriter::kClusterPid,
                        930000, 0.0, 3e6, "{\"events\": 9}");
    }
    burst.instants("grant", "sched", obs::TraceWriter::kClusterPid, 3e6,
                   tids, 4);
    burst.instants("grant", "sched", obs::TraceWriter::kClusterPid, 4e6,
                   tids, 0);
    for (const std::uint64_t tid : tids)
        single.instant("grant", "sched", obs::TraceWriter::kClusterPid,
                       tid, 3e6);
    for (obs::TraceWriter* trace : {&burst, &single})
        trace->instant("kill", "sched", obs::TraceWriter::kClusterPid,
                       910001, 3e6);
    EXPECT_EQ(burst.to_json(), single.to_json());
    EXPECT_EQ(burst.size(), 6u);
    EXPECT_EQ(burst.count_category("sched"), 5u);
    EXPECT_EQ(burst.count_category("epoch"), 1u);
}

/** A counter sample is stored raw and formatted only by to_json; the
    rendering (integral, fractional, non-finite values, escaped names)
    is pinned to what formatting at each call produced. */
TEST(TraceWriter, CounterRendersAsFormattedArgs)
{
    obs::TraceWriter trace;
    const auto pid = obs::TraceWriter::kClusterPid;
    trace.counter("uplink r3", "uplink", pid, 920003, 5e6, "depth", 4.0);
    trace.complete("wait", "barrier-wait", pid, 920003, 5e6, 2.5e5);
    trace.counter("uplink r3", "uplink", pid, 920003, 6e6, "depth",
                  1.0 / 3.0);
    trace.counter("q\"d", "", pid, 7, 7e6, "de\"pth",
                  std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(
        trace.to_json(),
        "{\"traceEvents\": [\n"
        "  {\"name\": \"uplink r3\", \"cat\": \"uplink\", \"ph\": \"C\", "
        "\"ts\": 5000000, \"pid\": 2, \"tid\": 920003, "
        "\"args\": {\"depth\": 4}},\n"
        "  {\"name\": \"wait\", \"cat\": \"barrier-wait\", \"ph\": \"X\", "
        "\"ts\": 5000000, \"dur\": 250000, \"pid\": 2, \"tid\": 920003},\n"
        "  {\"name\": \"uplink r3\", \"cat\": \"uplink\", \"ph\": \"C\", "
        "\"ts\": 6000000, \"pid\": 2, \"tid\": 920003, "
        "\"args\": {\"depth\": 0.33333333333333331}},\n"
        "  {\"name\": \"q\\\"d\", \"ph\": \"C\", \"ts\": 7000000, "
        "\"pid\": 2, \"tid\": 7, \"args\": {\"de\\\"pth\": 0}}\n"
        "]}\n");
    EXPECT_EQ(trace.size(), 4u);
}

TEST(TraceWriter, WritesAFileAndTimeAdvances)
{
    obs::TraceWriter trace;
    const double t0 = trace.now_us();
    trace.complete("span", "c", obs::TraceWriter::kHostPid, 0, t0, 1.0);
    EXPECT_GE(trace.now_us(), t0);
    const std::string path = ::testing::TempDir() + "obs_test_trace.json";
    ASSERT_TRUE(trace.write(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
}

// --- RunManifest --------------------------------------------------------

TEST(Manifest, TypedValuesRoundTripThroughJson)
{
    obs::RunManifest m;
    m.set("tool", "obs_test \"quoted\"");
    m.set("ops", std::uint64_t{18'000'000'000'000'000'123ULL});
    m.set("answer", 42);
    m.set("ratio", 0.02);
    m.set("fast", true);
    m.set("answer", 43);  // overwrite keeps position, updates value
    m.add_host_info();
    EXPECT_TRUE(m.contains("build_type"));
    EXPECT_TRUE(m.contains("hardware_concurrency"));
    EXPECT_EQ(m.value_text("answer"), "43");
    EXPECT_EQ(m.value_text("fast"), "true");

    const std::map<std::string, std::string> parsed =
        obs::parse_flat_object(m.to_json());
    ASSERT_FALSE(parsed.empty());
    EXPECT_EQ(parsed.at("tool"), "obs_test \"quoted\"");
    EXPECT_EQ(parsed.at("ops"), "18000000000000000123");
    EXPECT_EQ(parsed.at("answer"), "43");
    EXPECT_EQ(parsed.at("ratio"), m.value_text("ratio"));
    EXPECT_EQ(parsed.at("fast"), "true");
}

TEST(Manifest, WritesAFile)
{
    obs::RunManifest m;
    m.set("k", "v");
    const std::string path = ::testing::TempDir() + "obs_test_manifest.json";
    ASSERT_TRUE(m.write(path));
    // A directory is not writable as a file.
    EXPECT_FALSE(m.write(::testing::TempDir()));
}

// --- json helpers -------------------------------------------------------

TEST(Json, DoubleFormattingRoundTrips)
{
    EXPECT_EQ(obs::json_double(5.0), "5");
    EXPECT_EQ(obs::json_double(0.0), "0");
    const double frac = 6668.0833333331975;
    EXPECT_EQ(std::stod(obs::json_double(frac)), frac);
    const double tiny = 1e-17;
    EXPECT_EQ(std::stod(obs::json_double(tiny)), tiny);
}

TEST(Json, EscapeCoversControlCharacters)
{
    EXPECT_EQ(obs::json_escape("a\"b\\c\n\t\x01"),
              "a\\\"b\\\\c\\n\\t\\u0001");
    EXPECT_EQ(obs::json_quote("x"), "\"x\"");
}

// --- Warning ring + suite self-metrics ----------------------------------

TEST(WarningRing, RecordsAndSlices)
{
    const std::uint64_t mark = util::warning_sequence();
    util::warn("obs_test", "first warning");
    util::warn("second warning, no component");
    const std::vector<std::string> since = util::warnings_since(mark);
    ASSERT_EQ(since.size(), 2u);
    EXPECT_EQ(since[0], "[obs_test] first warning");
    EXPECT_EQ(since[1], "second warning, no component");
    EXPECT_TRUE(util::warnings_since(util::warning_sequence()).empty());
}

TEST(LogLevel, ParsesNamesAndDigits)
{
    util::LogLevel level = util::LogLevel::kWarn;
    EXPECT_TRUE(util::parse_log_level("quiet", &level));
    EXPECT_EQ(level, util::LogLevel::kQuiet);
    EXPECT_TRUE(util::parse_log_level("debug", &level));
    EXPECT_EQ(level, util::LogLevel::kDebug);
    EXPECT_TRUE(util::parse_log_level("2", &level));
    EXPECT_EQ(level, util::LogLevel::kInform);
    // Unknown text is rejected and leaves the level alone.
    EXPECT_FALSE(util::parse_log_level("bogus", &level));
    EXPECT_EQ(level, util::LogLevel::kInform);
}

TEST(SuiteMetrics, WallTimePoolStatsAndWarnings)
{
    core::HarnessConfig config;
    config.run.op_budget = 30'000;
    config.run.warmup_ops = 5'000;
    config.jobs = 2;
    const std::vector<std::string> names(
        workloads::figure_order().begin(),
        workloads::figure_order().begin() + 2);
    const core::SuiteResult suite = core::run_suite(names, config);
    ASSERT_TRUE(suite.all_ok());
    EXPECT_GT(suite.wall_seconds, 0.0);
    for (const core::RunResult& run : suite.runs)
        EXPECT_GT(run.wall_seconds, 0.0);
    if (suite.jobs_used > 1) {
        EXPECT_EQ(suite.pool_tasks, names.size());
        EXPECT_GT(suite.pool_busy_seconds, 0.0);
        EXPECT_GT(suite.pool_utilization, 0.0);
        EXPECT_LE(suite.pool_utilization, 1.0 + 1e-9);
    }
}

TEST(ThreadPoolStats, CountsTasksAndBusyTime)
{
    util::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i)
        pool.submit([] {
            volatile double sink = 0.0;
            for (int k = 0; k < 50'000; ++k)
                sink = sink + static_cast<double>(k);
        });
    pool.wait_idle();
    EXPECT_EQ(pool.tasks_completed(), 8u);
    EXPECT_GT(pool.busy_seconds(), 0.0);
}

// --- Tracing through the harness ----------------------------------------

TEST(HarnessTrace, WorkloadAndSamplingSpansAppear)
{
    obs::TraceWriter trace;
    core::HarnessConfig config;
    config.run.op_budget = 30'000;
    config.run.warmup_ops = 5'000;
    config.trace = &trace;
    const core::RunResult exact = core::run_workload(
        workloads::figure_order().front(), config, 0);
    ASSERT_TRUE(exact.status.ok);
    EXPECT_EQ(trace.count_category("workload"), 1u);

    config.sampling.ratio = 0.05;
    const core::RunResult sampled = core::run_workload(
        workloads::figure_order().front(), config, 1);
    ASSERT_TRUE(sampled.status.ok);
    EXPECT_EQ(trace.count_category("workload"), 2u);
    EXPECT_GT(trace.count_category("sampling"), 0u);
    // Tracing must not change the measurement either.
    core::HarnessConfig plain = config;
    plain.trace = nullptr;
    const core::RunResult untraced = core::run_workload(
        workloads::figure_order().front(), plain, 1);
    EXPECT_EQ(untraced.report.ipc, sampled.report.ipc);
    EXPECT_EQ(untraced.report.instructions, sampled.report.instructions);
}

}  // namespace
}  // namespace dcb
