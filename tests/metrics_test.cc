/** @file Tests for the labeled metrics registry and its cluster wiring:
    snapshot/exposition byte-identity across serial, sharded and
    replayed multi-job runs, exact-sum counter columns, deterministic
    Prometheus rendering, and dump() invariance when metrics arm. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "obs/metrics.h"
#include "obs/time_series.h"

namespace dcb::obs {
namespace {

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Drop the `dcb_host_*` families from an exposition: those gauges are
 * documented host-side wall-clock values (shard busy seconds, the
 * engine's parallel/coordinator/idle split, steal counts), so they are exactly the lines that legitimately vary
 * across thread counts. Everything else must be byte-stable.
 */
std::string
strip_host_families(const std::string& prom)
{
    std::istringstream in(prom);
    std::string out, line;
    while (std::getline(in, line))
        if (line.find("dcb_host_") == std::string::npos)
            out += line + "\n";
    return out;
}

// ---- Cluster wiring: byte-identity across engines --------------------

mapreduce::ClusterConfig
small_cluster()
{
    mapreduce::ClusterConfig cluster;
    cluster.slaves = 32;
    cluster.racks = 4;
    return cluster;
}

std::vector<mapreduce::JobSubmission>
small_fleet()
{
    std::vector<mapreduce::JobSubmission> subs;
    for (std::uint32_t j = 0; j < 4; ++j) {
        mapreduce::JobSubmission sub;
        sub.spec.name = "fleet";
        sub.spec.input_gb = 24.0 + 8.0 * j;
        sub.spec.total_instructions_g = 30.0 * sub.spec.input_gb;
        sub.spec.map_output_ratio = (j % 2 == 0) ? 0.6 : 0.2;
        sub.submit_time_s = 4.0 * j;
        sub.weight = 1.0 + (j % 3);
        subs.push_back(sub);
    }
    return subs;
}

/** One armed run: fresh registry spilling to `path`, finalized. */
struct ArmedRun
{
    std::string dump;
    std::string prom;
    std::string extent_bytes;
    std::uint64_t snapshots = 0;
};

ArmedRun
run_armed(unsigned threads, const std::string& path)
{
    MetricsRegistry registry;
    registry.set_snapshot_spill(path);
    fault::FaultPlan plan;
    plan.seed = 0xBEEF;
    plan.task_crash_prob = 0.02;
    plan.node_crash_time_s = 30.0;
    plan.crash_node = 5;
    fault::FaultInjector injector(plan);
    mapreduce::MultiJobOptions options;
    options.threads = threads;
    options.injector = &injector;
    options.metrics = &registry;
    const mapreduce::MultiJobScheduler scheduler;
    const mapreduce::MultiJobResult result =
        scheduler.run(small_fleet(), small_cluster(), options);
    EXPECT_TRUE(result.ok) << result.error;
    ArmedRun out;
    out.dump = result.dump();
    out.prom = strip_host_families(registry.render_prometheus());
    out.snapshots = registry.snapshot_count();
    EXPECT_TRUE(registry.finalize_snapshots());
    out.extent_bytes = slurp(path);
    std::remove(path.c_str());
    return out;
}

/**
 * The tentpole guarantee: every metric update happens on the
 * coordinator thread at barriers in fixed order, so the Prometheus
 * text (minus the host-side dcb_host_* families), the snapshot extent
 * file and the result dump are byte-identical between the serial
 * reference, a sharded run and a replay.
 */
TEST(MetricsCluster, SnapshotBytesIdenticalSerialShardedReplay)
{
    const ArmedRun serial = run_armed(1, "metrics_test_serial.dcx");
    const ArmedRun sharded = run_armed(4, "metrics_test_sharded.dcx");
    const ArmedRun replay = run_armed(1, "metrics_test_replay.dcx");

    ASSERT_GT(serial.snapshots, 0u);
    EXPECT_EQ(serial.snapshots, sharded.snapshots);
    EXPECT_EQ(serial.snapshots, replay.snapshots);

    EXPECT_EQ(serial.prom, sharded.prom);
    EXPECT_EQ(serial.prom, replay.prom);

    ASSERT_FALSE(serial.extent_bytes.empty());
    EXPECT_EQ(serial.extent_bytes, sharded.extent_bytes);
    EXPECT_EQ(serial.extent_bytes, replay.extent_bytes);

    EXPECT_EQ(serial.dump, sharded.dump);
    EXPECT_EQ(serial.dump, replay.dump);
}

/** Observation-only: arming the registry must not change the simulated
    result by a single byte against a metrics-free run. */
TEST(MetricsCluster, ArmedDumpMatchesUnarmedDump)
{
    const mapreduce::MultiJobScheduler scheduler;
    mapreduce::MultiJobOptions unarmed;
    unarmed.threads = 2;
    const mapreduce::MultiJobResult bare =
        scheduler.run(small_fleet(), small_cluster(), unarmed);

    MetricsRegistry registry;
    mapreduce::MultiJobOptions armed = unarmed;
    armed.metrics = &registry;
    const mapreduce::MultiJobResult observed =
        scheduler.run(small_fleet(), small_cluster(), armed);

    ASSERT_TRUE(bare.ok) << bare.error;
    ASSERT_TRUE(observed.ok) << observed.error;
    EXPECT_EQ(bare.dump(), observed.dump());
    // And the registry really observed the run.
    EXPECT_GT(registry.series_count(), 0u);
    EXPECT_GT(registry.snapshot_count(), 0u);
}

/** The engine's host-side wall split lands in one engine-level gauge
    per part; no per-shard barrier wait is left. */
TEST(MetricsCluster, EngineWallSplitGaugesExported)
{
    MetricsRegistry registry;
    mapreduce::MultiJobOptions options;
    options.threads = 2;
    options.metrics = &registry;
    const mapreduce::MultiJobResult result = mapreduce::MultiJobScheduler()
        .run(small_fleet(), small_cluster(), options);
    ASSERT_TRUE(result.ok) << result.error;
    const std::string prom = registry.render_prometheus();
    for (const char* part : {"parallel", "coordinator", "idle"}) {
        const std::string name =
            std::string("dcb_host_engine_") + part + "_seconds";
        ASSERT_NE(prom.find(name), std::string::npos) << name;
        EXPECT_GE(registry.gauge(name)->value(), 0.0) << name;
    }
    EXPECT_GT(registry.gauge("dcb_host_engine_parallel_seconds")->value(),
              0.0);
    EXPECT_EQ(prom.find("barrier_wait"), std::string::npos);
}

// ---- Registry semantics ----------------------------------------------

/** Rendering is a pure function of the update sequence: families
    sorted by name, series sorted by label key, repeatable bytes. */
TEST(MetricsRegistry, PrometheusRenderIsDeterministicAndSorted)
{
    MetricsRegistry registry;
    MetricLabels j1;
    j1.job = 1;
    MetricLabels j0s2;
    j0s2.job = 0;
    j0s2.shard = 2;
    registry.counter("zeta_total", j1)->add(3.0);
    registry.counter("zeta_total", j0s2)->add(2.5);
    registry.gauge("alpha_depth")->set(7.0);
    Histogram* hist = registry.histogram("mid_latency_seconds", j1);
    for (int i = 1; i <= 100; ++i)
        hist->observe(0.01 * i);

    const std::string first = registry.render_prometheus();
    const std::string second = registry.render_prometheus();
    EXPECT_EQ(first, second);

    // Families appear in sorted order...
    const std::size_t alpha = first.find("# TYPE alpha_depth gauge");
    const std::size_t mid = first.find("# TYPE mid_latency_seconds summary");
    const std::size_t zeta = first.find("# TYPE zeta_total counter");
    ASSERT_NE(alpha, std::string::npos);
    ASSERT_NE(mid, std::string::npos);
    ASSERT_NE(zeta, std::string::npos);
    EXPECT_LT(alpha, mid);
    EXPECT_LT(mid, zeta);
    // ...series sorted by label key within a family (job=0 < job=1)...
    EXPECT_LT(first.find("zeta_total{job=\"0\",shard=\"2\"} 2.5"),
              first.find("zeta_total{job=\"1\"} 3"));
    // ...and summaries carry quantiles plus _sum and _count.
    EXPECT_NE(first.find("mid_latency_seconds{job=\"1\",quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(first.find("mid_latency_seconds_count{job=\"1\"} 100"),
              std::string::npos);
    EXPECT_NE(first.find("mid_latency_seconds_sum{job=\"1\"}"),
              std::string::npos);
}

/** Counter snapshot columns are fit_delta()-nudged: accumulating the
    recorded deltas reproduces the live counter value bit-for-bit even
    for non-representable increments. */
TEST(MetricsRegistry, CounterColumnsSumExactlyToLiveValue)
{
    MetricsRegistry registry;
    Counter* counter = registry.counter("frac_total");
    Histogram* hist = registry.histogram("lat_seconds");
    for (int row = 0; row < 50; ++row) {
        counter->add(0.1);  // not representable in binary
        hist->observe(0.3 + 0.1 * row);
        registry.snapshot(static_cast<std::uint64_t>(row), 1);
    }
    const TimeSeriesRecorder* rec = registry.snapshots();
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->rows().size(), 50u);

    const int frac = rec->column_index("frac_total");
    const int count = rec->column_index("lat_seconds_count");
    const int sum = rec->column_index("lat_seconds_sum");
    ASSERT_GE(frac, 0);
    ASSERT_GE(count, 0);
    ASSERT_GE(sum, 0);
    double acc_frac = 0.0, acc_count = 0.0, acc_sum = 0.0;
    for (const IntervalRow& row : rec->rows()) {
        acc_frac += row.values[static_cast<std::size_t>(frac)];
        acc_count += row.values[static_cast<std::size_t>(count)];
        acc_sum += row.values[static_cast<std::size_t>(sum)];
    }
    EXPECT_EQ(acc_frac, counter->value());  // bitwise, not approx
    EXPECT_EQ(acc_count, static_cast<double>(hist->count()));
    EXPECT_EQ(acc_sum, hist->sum());
}

/** Histogram defers sketch inserts but the resulting sketch must be
    indistinguishable from eager insertion. */
TEST(MetricsRegistry, DeferredHistogramMatchesEagerSketch)
{
    MetricsRegistry registry;
    Histogram* hist = registry.histogram("d_seconds");
    QuantileSketch eager;
    std::uint64_t state = 42;
    std::vector<double> batch;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const double v =
            static_cast<double>(state >> 11) / 9007199254740992.0;
        eager.insert(v);
        // Mix singleton and batched observes while preserving the
        // global insertion order (flush the batch before a singleton).
        if (i % 10 == 9) {
            hist->observe_many(batch.data(), batch.size());
            batch.clear();
            hist->observe(v);
        } else {
            batch.push_back(v);
        }
    }
    if (!batch.empty())
        hist->observe_many(batch.data(), batch.size());
    EXPECT_EQ(hist->count(), 20000u);
    EXPECT_EQ(hist->sketch().count(), eager.count());
    // Same insertion order => same GK tuple evolution => same quantiles.
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99})
        EXPECT_EQ(hist->sketch().query(q), eager.query(q)) << q;
}

/** One name keeps one kind across all label sets. */
TEST(MetricsRegistryDeathTest, KindConfusionPanics)
{
    MetricsRegistry registry;
    registry.counter("dual_total");
    EXPECT_DEATH(registry.gauge("dual_total"), "it->second == kind");
}

}  // namespace
}  // namespace dcb::obs
