/**
 * @file
 * Interval-sampling accuracy and throughput bench: runs the full suite
 * twice on one thread -- exact, then sampled -- and reports the
 * suite speedup plus the relative error of every fig03-fig12 metric for
 * every workload, writing the numbers to BENCH_sampling.json.
 *
 * Usage: ./bench_sampling [--ops N] [--sample=ratio] [--sample-window N]
 *                         [--check-speedup X] [--check-rel-err Y] [--dump]
 *
 * With --check-speedup / --check-rel-err the process exits nonzero when
 * the sampled run is slower than X times exact or any metric's relative
 * error exceeds Y (CI guard).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/atomic_file.h"

namespace {

using namespace dcb;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Relative error with an absolute floor: metrics that are legitimately
 * near zero (e.g. ITLB walks PKI ~0.01) would otherwise turn a
 * negligible absolute difference into a huge relative one.
 */
constexpr double kRelErrFloor = 0.02;

double
rel_err(double sampled, double exact)
{
    return std::fabs(sampled - exact) /
           std::max(std::fabs(exact), kRelErrFloor);
}

}  // namespace

int
main(int argc, char** argv)
{
    // Split off this bench's flags before the shared parser sees them
    // (it rejects flags it does not know).
    double check_speedup = -1.0;
    double check_rel_err = -1.0;
    bool dump = false;
    std::vector<char*> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dump") == 0)
            dump = true;
        else if (const char* v = bench::flag_value(argc, argv, i,
                                                   "--check-speedup"))
            check_speedup = bench::parse_real("--check-speedup", v);
        else if (const char* v = bench::flag_value(argc, argv, i,
                                                   "--check-rel-err"))
            check_rel_err = bench::parse_real("--check-rel-err", v);
        else
            pass.push_back(argv[i]);
    }

    core::HarnessConfig sampled_config = bench::config_from_args(
        static_cast<int>(pass.size()), pass.data());
    if (!sampled_config.sampling.enabled())
        sampled_config.sampling.ratio = bench::kDefaultSampleRatio;
    sampled_config.jobs = 1;  // single-thread: measure substrate speedup

    core::HarnessConfig exact_config = sampled_config;
    exact_config.sampling = sample::SamplePlan{};

    const sample::IntervalLayout resolved = sample::resolve_layout(
        sampled_config.sampling, sampled_config.run.op_budget,
        sampled_config.run.warmup_ops);
    // The default ratio and jobs pin happen after config_from_args
    // filled the manifest; re-stamp the effective values.
    bench::manifest().set("jobs", std::uint64_t{1});
    bench::manifest().set("sampling_enabled", true);
    bench::manifest().set("sampling_ratio", sampled_config.sampling.ratio);
    bench::manifest().set("sampling_window_ops",
                          static_cast<std::uint64_t>(resolved.window_ops));
    const std::vector<std::string> names = workloads::figure_order();
    std::printf("sampling accuracy bench: %zu workloads, %llu ops each, "
                "ratio %.3f, window %llu ops\n\n",
                names.size(),
                static_cast<unsigned long long>(
                    sampled_config.run.op_budget),
                sampled_config.sampling.ratio,
                static_cast<unsigned long long>(resolved.window_ops));

    const auto exact_start = Clock::now();
    const core::SuiteResult exact_suite =
        core::run_suite(names, exact_config);
    const double exact_seconds = seconds_since(exact_start);

    const auto sampled_start = Clock::now();
    const core::SuiteResult sampled_suite =
        core::run_suite(names, sampled_config);
    const double sampled_seconds = seconds_since(sampled_start);

    const double speedup =
        sampled_seconds > 0.0 ? exact_seconds / sampled_seconds : 0.0;
    std::printf("exact suite:   %.3f s\n", exact_seconds);
    std::printf("sampled suite: %.3f s  (speedup %.2fx)\n\n",
                sampled_seconds, speedup);

    // --- Per-metric relative error over all workloads -------------------
    struct MetricErr
    {
        double max_err = 0.0;
        double sum_err = 0.0;
        std::size_t n = 0;
        std::string worst_workload;
    };
    std::vector<MetricErr> errs(cpu::kReportMetricCount);
    struct WorkloadErr
    {
        std::string name;
        double max_err = 0.0;
        std::string worst_metric;
        std::size_t windows = 0;
    };
    std::vector<WorkloadErr> per_workload;

    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!exact_suite.runs[i].status.ok ||
            !sampled_suite.runs[i].status.ok) {
            std::fprintf(stderr, "warning: %s skipped (failed run)\n",
                         names[i].c_str());
            continue;
        }
        const cpu::CounterReport& e = exact_suite.runs[i].report;
        const cpu::CounterReport& s = sampled_suite.runs[i].report;
        WorkloadErr w;
        w.name = names[i];
        w.windows = s.sample_windows;
        for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
            const auto metric = static_cast<cpu::ReportMetric>(m);
            const double err = rel_err(cpu::report_metric(s, metric),
                                       cpu::report_metric(e, metric));
            if (dump && err > 0.03)
                std::printf("  dump %-20s %-28s exact %.5f sampled %.5f "
                            "+-%.5f (err %.1f%%)\n",
                            names[i].c_str(),
                            cpu::report_metric_name(metric),
                            cpu::report_metric(e, metric),
                            cpu::report_metric(s, metric), s.metric_stderr[m],
                            100.0 * err);
            errs[m].sum_err += err;
            ++errs[m].n;
            if (err > errs[m].max_err) {
                errs[m].max_err = err;
                errs[m].worst_workload = names[i];
            }
            if (err > w.max_err) {
                w.max_err = err;
                w.worst_metric = cpu::report_metric_name(metric);
            }
        }
        per_workload.push_back(w);
    }

    double overall_max = 0.0;
    std::string overall_worst;
    std::printf("%-28s %12s %12s  %s\n", "metric", "max rel err",
                "mean rel err", "worst workload");
    for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
        const auto metric = static_cast<cpu::ReportMetric>(m);
        const double mean =
            errs[m].n ? errs[m].sum_err / static_cast<double>(errs[m].n)
                      : 0.0;
        std::printf("%-28s %11.2f%% %11.2f%%  %s\n",
                    cpu::report_metric_name(metric),
                    100.0 * errs[m].max_err, 100.0 * mean,
                    errs[m].worst_workload.c_str());
        if (errs[m].max_err > overall_max) {
            overall_max = errs[m].max_err;
            overall_worst = std::string(cpu::report_metric_name(metric)) +
                            " @ " + errs[m].worst_workload;
        }
    }
    std::printf("\noverall max rel err: %.2f%% (%s)\n", 100.0 * overall_max,
                overall_worst.c_str());

    // --- JSON dump ------------------------------------------------------
    const char* json_path = "BENCH_sampling.json";
    std::string json_temp;
    if (std::FILE* f = util::open_file_atomic(json_path, &json_temp)) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"op_budget\": %llu,\n",
                     static_cast<unsigned long long>(
                         sampled_config.run.op_budget));
        std::fprintf(f, "  \"sample_ratio\": %.4f,\n",
                     sampled_config.sampling.ratio);
        std::fprintf(f, "  \"sample_window_ops\": %llu,\n",
                     static_cast<unsigned long long>(resolved.window_ops));
        std::fprintf(f, "  \"exact_seconds\": %.6f,\n", exact_seconds);
        std::fprintf(f, "  \"sampled_seconds\": %.6f,\n", sampled_seconds);
        std::fprintf(f, "  \"suite_speedup\": %.4f,\n", speedup);
        std::fprintf(f, "  \"overall_max_rel_err\": %.6f,\n", overall_max);
        std::fprintf(f, "  \"metrics\": [\n");
        for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
            const auto metric = static_cast<cpu::ReportMetric>(m);
            const double mean =
                errs[m].n
                    ? errs[m].sum_err / static_cast<double>(errs[m].n)
                    : 0.0;
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"max_rel_err\": %.6f, "
                         "\"mean_rel_err\": %.6f, "
                         "\"worst_workload\": \"%s\"}%s\n",
                         cpu::report_metric_name(metric), errs[m].max_err,
                         mean, errs[m].worst_workload.c_str(),
                         m + 1 < cpu::kReportMetricCount ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"workloads\": [\n");
        for (std::size_t i = 0; i < per_workload.size(); ++i) {
            const WorkloadErr& w = per_workload[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"max_rel_err\": %.6f, "
                         "\"worst_metric\": \"%s\", \"windows\": %zu}%s\n",
                         w.name.c_str(), w.max_err, w.worst_metric.c_str(),
                         w.windows, i + 1 < per_workload.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"manifest\": %s\n",
                     bench::manifest().json_fragment(2).c_str());
        std::fprintf(f, "}\n");
        if (!util::commit_file_atomic(f, json_temp, json_path)) {
            std::fprintf(stderr, "error: cannot write %s\n", json_path);
            return 1;
        }
        std::printf("wrote %s\n", json_path);
    } else {
        std::fprintf(stderr, "error: cannot write %s\n", json_path);
        return 1;
    }

    // --- CI guards ------------------------------------------------------
    int rc = 0;
    if (check_speedup > 0.0 && speedup < check_speedup) {
        std::fprintf(stderr,
                     "FAIL: speedup %.2fx below required %.2fx\n", speedup,
                     check_speedup);
        rc = 1;
    }
    if (check_rel_err > 0.0 && overall_max > check_rel_err) {
        std::fprintf(stderr,
                     "FAIL: max rel err %.2f%% above allowed %.2f%%\n",
                     100.0 * overall_max, 100.0 * check_rel_err);
        rc = 1;
    }
    return rc;
}
