/**
 * @file
 * Observability demo: exercises every span source in one run and
 * writes one Chrome trace-event / Perfetto file that contains all of
 * them -- per-workload harness runs and interval telemetry (exact
 * runs), sampling-engine segments (a sampled run), and the sharded
 * multi-job engine under a node-crash fault plan with the labeled
 * metrics registry armed (job phases, epoch barriers, fair-share
 * grants, fault epochs, per-barrier snapshots). This is the file the CI
 * observability step validates and the README's Perfetto quick-start
 * opens.
 *
 * Usage: ./obs_demo [--ops N] [--obs-interval N] [--obs-out PREFIX]
 *                   [--trace-out FILE] [--obs-metrics-out FILE]
 *                   [--obs-phase] [--manifest FILE]
 *
 * Defaults (unlike the figure benches, observability is ON here):
 * trace to obs_demo.trace.json, manifest to obs_demo.manifest.json,
 * metrics to obs_demo.metrics.prom (+ .dcx snapshot extents),
 * telemetry every op_budget/20 ops into obs/, phase detection on.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

#include "fault/fault.h"
#include "mapreduce/fairshare.h"

int
main(int argc, char** argv)
{
    using namespace dcb;

    core::HarnessConfig config = bench::config_from_args(argc, argv);
    bench::ObsSinks& sinks = bench::obs_sinks();
    if (sinks.trace == nullptr) {
        sinks.trace_path = "obs_demo.trace.json";
        sinks.trace = std::make_unique<obs::TraceWriter>();
        sinks.trace->name_process(obs::TraceWriter::kHostPid,
                                  "harness (host time)");
    }
    if (sinks.metrics == nullptr) {
        sinks.metrics_path = "obs_demo.metrics.prom";
        sinks.metrics = std::make_unique<obs::MetricsRegistry>();
        sinks.metrics->set_snapshot_spill(sinks.metrics_path + ".dcx");
    }
    if (sinks.manifest_path.empty())
        sinks.manifest_path = "obs_demo.manifest.json";
    if (!sinks.flush_registered) {
        std::atexit(&bench::flush_obs_sinks);
        sinks.flush_registered = true;
    }
    config.trace = sinks.trace.get();
    if (!config.telemetry.enabled())
        config.telemetry.interval_ops = config.run.op_budget / 20;
    if (config.telemetry.out_path.empty())
        config.telemetry.out_path = "obs/";
    config.detect_phases = true;  // telemetry is always on here
    if (sinks.phase_path.empty())
        sinks.phase_path = "obs_demo.phases.json";
    config.sampling = sample::SamplePlan{};  // exact first: telemetry on
    // Defaults were applied after config_from_args filled the manifest;
    // re-stamp the effective values (set() overwrites in place).
    bench::manifest().set("obs_interval_ops",
                          config.telemetry.interval_ops);
    bench::manifest().set("obs_out", config.telemetry.out_path);
    bench::manifest().set("trace_out", sinks.trace_path);
    bench::manifest().set("obs_metrics_out", sinks.metrics_path);
    bench::manifest().set("phase_detection", true);
    bench::manifest().set("obs_phase_out", sinks.phase_path);

    // --- Exact runs: workload spans + interval telemetry ----------------
    const std::vector<std::string> all = workloads::figure_order();
    const std::vector<std::string> names(all.begin(),
                                         all.begin() +
                                             std::min<std::size_t>(
                                                 3, all.size()));
    std::printf("\nexact runs (telemetry every %llu ops):\n",
                static_cast<unsigned long long>(
                    config.telemetry.interval_ops));
    core::SuiteResult suite = core::run_suite(names, config);
    bool telemetry_ok = suite.all_ok();
    for (std::size_t i = 0; i < suite.runs.size(); ++i) {
        const core::RunResult& run = suite.runs[i];
        if (!run.status.ok || run.telemetry == nullptr) {
            telemetry_ok = false;
            continue;
        }
        std::printf("  %-20s %zu intervals, ipc %.3f, %.3f s\n",
                    names[i].c_str(), run.telemetry->rows().size(),
                    run.report.ipc, run.wall_seconds);
        telemetry_ok = telemetry_ok && !run.telemetry->empty();
    }

    // --- Sampled run: sampling-engine segment spans ---------------------
    core::HarnessConfig sampled = config;
    sampled.telemetry = obs::TelemetryConfig{};  // sampled: telemetry off
    sampled.sampling.ratio = 0.05;
    const core::RunResult sampled_run =
        core::run_workload(names.front(), sampled, names.size());
    std::printf("sampled run: %-13s ipc %.3f, %.3f s\n",
                names.front().c_str(), sampled_run.report.ipc,
                sampled_run.wall_seconds);

    // --- Faulty sharded multi-job run: metrics + cluster-clock trace ----
    std::vector<mapreduce::JobSubmission> fleet;
    for (std::uint32_t j = 0; j < 3; ++j) {
        mapreduce::JobSubmission sub;
        sub.spec.name = "demo-job-" + std::to_string(j);
        sub.spec.input_gb = 24.0 + 8.0 * j;
        sub.spec.total_instructions_g = 30.0 * sub.spec.input_gb;
        sub.submit_time_s = 5.0 * j;
        sub.weight = 1.0 + j;
        fleet.push_back(sub);
    }
    mapreduce::ClusterConfig mj_cluster;
    mj_cluster.slaves = 32;
    mj_cluster.racks = 4;
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.02;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = 3;
    fault::FaultInjector injector(plan);
    mapreduce::MultiJobOptions mj_opt;
    mj_opt.threads = 2;
    mj_opt.injector = &injector;
    mj_opt.trace = sinks.trace.get();
    mj_opt.metrics = bench::metrics_registry();
    const mapreduce::MultiJobScheduler fair_scheduler;
    const mapreduce::MultiJobResult mj =
        fair_scheduler.run(fleet, mj_cluster, mj_opt);
    std::uint32_t task_failures = 0;
    for (const mapreduce::JobOutcome& job : mj.jobs)
        task_failures += job.task_failures;
    std::printf("multi-job run: %s, %zu jobs, makespan %.1f sim-s, "
                "%llu epochs, %u task failures, %u node(s) lost\n",
                mj.ok && mj.all_completed() ? "completed" : "FAILED",
                mj.jobs.size(), mj.makespan_s,
                static_cast<unsigned long long>(mj.epochs), task_failures,
                mj.cluster.nodes_lost);
    suite.shard_barrier_wait_seconds.clear();
    suite.shard_steals.clear();
    for (const mapreduce::ShardStats& st : mj.shards) {
        suite.shard_barrier_wait_seconds.push_back(
            st.barrier_wait_seconds);
        suite.shard_steals.push_back(st.steals);
    }
    bench::stamp_phase_results(suite);

    bench::manifest().set("demo_workloads",
                          static_cast<std::uint64_t>(names.size()));
    bench::manifest().set("demo_multijob_completed",
                          mj.ok && mj.all_completed());

    // --- Shape checks: the trace really holds every span source ---------
    const obs::TraceWriter& trace = *sinks.trace;
    std::printf("\ntrace: %zu events -- workload %zu, sampling %zu, "
                "phase %zu, sched %zu, fault %zu\n\n",
                trace.size(), trace.count_category("workload"),
                trace.count_category("sampling"),
                trace.count_category("phase"),
                trace.count_category("sched"),
                trace.count_category("fault"));
    bool ok = true;
    ok &= core::shape_check("every exact run produced telemetry",
                            telemetry_ok);
    ok &= core::shape_check("per-workload run spans recorded",
                            trace.count_category("workload") ==
                                names.size() + 1);
    ok &= core::shape_check("sampling segment spans recorded",
                            trace.count_category("sampling") > 0);
    ok &= core::shape_check("map/reduce phase spans recorded",
                            trace.count_category("phase") >= 3);
    ok &= core::shape_check("fault epochs recorded",
                            trace.count_category("fault") > 0);
    ok &= core::shape_check("epoch barrier spans recorded",
                            trace.count_category("epoch") > 0);
    ok &= core::shape_check("fair-share grant instants recorded",
                            trace.count_category("sched") > 0);
    ok &= core::shape_check("the faulty multi-job fleet completed",
                            mj.ok && mj.all_completed());
    const obs::MetricsRegistry& metrics = *sinks.metrics;
    ok &= core::shape_check("metrics registry holds series",
                            metrics.series_count() > 0);
    ok &= core::shape_check("per-barrier snapshots recorded",
                            metrics.snapshot_count() > 0);
    bool phases_found = false;
    for (const core::RunResult& run : suite.runs)
        phases_found = phases_found || run.phases != nullptr;
    ok &= core::shape_check("phase detection produced boundaries",
                            phases_found);
    return ok ? 0 : 1;
}
