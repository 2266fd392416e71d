/**
 * @file
 * The suite workloads: all 26 figure workloads through core::run_suite,
 * exact (suite_exact) or under the full-warming sampling plan
 * (suite_sampled), on a fixed-size thread pool.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "checks.h"
#include "core/harness.h"
#include "ledger.h"
#include "perfbench.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using namespace dcb;

/** Ops per workload: the figure benches' default budget. */
constexpr std::uint64_t kOpBudget = 2'000'000;
/** `--sample-full` defaults of the figure benches. */
constexpr double kFullSampleRatio = 0.15;
/**
 * Largest relative IPC error, and largest absolute stall-share error,
 * a sampled run may show against the exact run of the same inputs. The
 * errors move with the seed (0.06-0.21 and 0.04-0.10 over 16 seeds), so
 * they are checks with headroom rather than bounded metrics.
 */
constexpr double kIpcErrTolerance = 0.35;
constexpr double kStallErrTolerance = 0.25;
/** Ledger driver size in the traced run. */
constexpr std::uint64_t kLedgerOps = 1'000'000;
constexpr int kLedgerReps = 5;

/** Host-side facts of one timed run_suite call. */
struct Pass
{
    double wall_s = 0.0;
    double ops = 0.0;         ///< simulated (represented) ops, all runs
    double run_s = 0.0;       ///< summed per-workload host seconds
    double max_run_s = 0.0;
    std::array<double, 4> category_s{};  ///< by workloads::Category
    double pool_utilization = 0.0;
    double pool_imbalance = 0.0;  ///< busiest / least busy worker
};

class SuiteWorkload final : public Workload
{
  public:
    SuiteWorkload(const Options& options, bool sampled)
        : options_(options), sampled_(sampled),
          names_(workloads::figure_order())
    {
        config_ = core::bench_config();
        config_.run.op_budget = kOpBudget;
        config_.run.warmup_ops = kOpBudget / 4;
        config_.run.seed = options.seed;
        config_.jobs = worker_threads();
        if (sampled) {
            config_.sampling.ratio = kFullSampleRatio;
            config_.sampling.full_warming = true;
        }
        for (const std::string& name : names_) {
            auto workload = workloads::make_workload(name);
            categories_.push_back(workload->info().category);
        }
    }

    void measure(Report& out, obs::TraceWriter* trace) override;

    std::string inputs() const override
    {
        return "\"threads\": " + std::to_string(config_.jobs) +
               ", \"workloads\": " + std::to_string(names_.size()) +
               ", \"op_budget\": " + std::to_string(config_.run.op_budget) +
               ", \"warmup_ops\": " + std::to_string(config_.run.warmup_ops) +
               ", \"sampling_ratio\": " +
               std::to_string(config_.sampling.ratio);
    }

  private:
    Pass pass_of(const core::SuiteResult& suite, double wall_s) const;

    Options options_;
    bool sampled_;
    std::vector<std::string> names_;
    std::vector<workloads::Category> categories_;
    core::HarnessConfig config_;
};

Pass
SuiteWorkload::pass_of(const core::SuiteResult& suite, double wall_s) const
{
    Pass p;
    p.wall_s = wall_s;
    for (std::size_t i = 0; i < suite.runs.size(); ++i) {
        const core::RunResult& run = suite.runs[i];
        p.ops += static_cast<double>(config_.run.warmup_ops) +
                 run.report.instructions;
        p.run_s += run.wall_seconds;
        p.max_run_s = std::max(p.max_run_s, run.wall_seconds);
        p.category_s[static_cast<std::size_t>(categories_[i])] +=
            run.wall_seconds;
    }
    p.pool_utilization = suite.pool_utilization;
    const auto [lo, hi] = std::minmax_element(
        suite.worker_busy_seconds.begin(), suite.worker_busy_seconds.end());
    if (lo != suite.worker_busy_seconds.end() && *lo > 0.0)
        p.pool_imbalance = *hi / *lo;
    return p;
}

/** Suite-wide sampled-vs-exact errors: max relative IPC error and max
    absolute stall-share error over every workload and stall class. */
std::pair<double, double>
sample_errors(const core::SuiteResult& sampled, const core::SuiteResult& exact)
{
    double ipc_err = 0.0;
    double stall_err = 0.0;
    for (std::size_t i = 0; i < sampled.runs.size(); ++i) {
        const cpu::CounterReport& s = sampled.runs[i].report;
        const cpu::CounterReport& e = exact.runs[i].report;
        ipc_err = std::max(ipc_err, std::fabs(s.ipc - e.ipc) / e.ipc);
        for (double d : {s.stalls.fetch - e.stalls.fetch,
                         s.stalls.rat - e.stalls.rat,
                         s.stalls.load - e.stalls.load,
                         s.stalls.store - e.stalls.store,
                         s.stalls.rs - e.stalls.rs,
                         s.stalls.rob - e.stalls.rob})
            stall_err = std::max(stall_err, std::fabs(d));
    }
    return {ipc_err, stall_err};
}

bool
suites_identical(const core::SuiteResult& a, const core::SuiteResult& b)
{
    if (a.runs.size() != b.runs.size())
        return false;
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        if (a.runs[i].status.ok != b.runs[i].status.ok ||
            !reports_identical(a.runs[i].report, b.runs[i].report))
            return false;
    return true;
}

void
SuiteWorkload::measure(Report& out, obs::TraceWriter* trace)
{
    // --- Untimed serial pass, the reference for bit-identity. It runs
    // first and gives the memory metric: its peak is the largest single
    // simulated machine over a fixed process history, where a parallel
    // pass's peak depends on which workloads happen to overlap.
    core::HarnessConfig serial_config = config_;
    serial_config.jobs = 1;
    reset_peak_rss();
    const core::SuiteResult serial = core::run_suite(names_, serial_config);
    const double rss_mb = peak_rss_mb();

    // --- Timed loop: whole-suite passes until the time is up. Every pass
    // must reproduce the first bit for bit.
    core::SuiteResult first;
    bool repeat_identical = true;
    std::vector<Pass> passes;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;
    timed_loop(options_.seconds, 3, [&] {
        // A traced run spans every other pass, so the untraced passes
        // give the tracing overhead.
        const bool traced = trace != nullptr && passes.size() % 2 == 0;
        const double start_us = traced ? trace->now_us() : 0.0;
        const auto start = Clock::now();
        core::SuiteResult suite = core::run_suite(names_, config_);
        const double wall_s = seconds_since(start);
        if (traced)
            span(trace, "run_suite", "workloads", start_us);
        (traced ? traced_s : untraced_s).push_back(wall_s);
        passes.push_back(pass_of(suite, wall_s));
        if (passes.size() == 1)
            first = std::move(suite);
        else
            repeat_identical =
                repeat_identical && suites_identical(first, suite);
        return wall_s;
    });

    // --- Untimed output checks.
    for (std::size_t i = 0; i < first.runs.size(); ++i)
        if (!first.runs[i].status.ok)
            out.check("run " + names_[i], false, first.runs[i].status.error);
    out.attempted += passes.size() * names_.size();
    out.failed += (passes.size() - 1) * first.failure_count();
    out.check("every pass bit-identical to the first", repeat_identical);
    for (const ShapeCheck& c : paper_shape_checks(first.reports()))
        out.check(c.name, c.held);
    out.check("parallel suite bit-identical to the serial suite",
              suites_identical(first, serial));
    double ipc_err = 0.0;
    double stall_err = 0.0;
    if (sampled_) {
        // The exact reference of the same seed and budget, untimed.
        core::HarnessConfig exact = config_;
        exact.sampling = sample::SamplePlan{};
        const core::SuiteResult reference = core::run_suite(names_, exact);
        std::tie(ipc_err, stall_err) = sample_errors(first, reference);
        char detail[64];
        std::snprintf(detail, sizeof detail, "%.4f", ipc_err);
        out.check("sampled IPC within the tolerance of exact",
                  ipc_err <= kIpcErrTolerance, detail);
        std::snprintf(detail, sizeof detail, "%.4f", stall_err);
        out.check("sampled stall shares within the tolerance of exact",
                  stall_err <= kStallErrTolerance, detail);
    }

    // --- End-to-end metrics (medians over passes).
    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const Pass& p : passes)
            v.push_back(field(p));
        return median(v);
    };
    out.metric("sim_rate",
               med([](const Pass& p) { return p.ops / p.wall_s / 1e3; }),
               "k/s");
    out.metric("sim_rate_per_thread",
               med([](const Pass& p) { return p.ops / p.run_s / 1e3; }),
               "k/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    if (trace == nullptr)
        return;

    // --- Per-layer metrics.
    const char* category_metric[] = {"workloads.da_s", "workloads.service_s",
                                     "workloads.spec_s", "workloads.hpcc_s"};
    for (std::size_t c = 0; c < 4; ++c)
        out.metric(category_metric[c],
                   med([c](const Pass& p) { return p.category_s[c]; }), "s");
    out.metric("workloads.max_run_s",
               med([](const Pass& p) { return p.max_run_s; }), "s");
    out.metric("core.pool_utilization",
               med([](const Pass& p) { return p.pool_utilization; }),
               "frac");
    out.metric("core.pool_imbalance",
               med([](const Pass& p) { return p.pool_imbalance; }), "ratio");
    double cycles = 0.0;
    double windows = 0.0;
    double ipc_stderr = 0.0;
    for (const cpu::CounterReport& r : first.reports()) {
        cycles += r.cycles;
        windows += static_cast<double>(r.sample_windows);
        if (r.ipc > 0.0)
            ipc_stderr =
                std::max(ipc_stderr, r.stderr_of(cpu::ReportMetric::kIpc) /
                                         r.ipc);
    }
    out.metric("sim.ops", passes.front().ops, "count");
    out.metric("sim.cycles", cycles, "count");
    if (sampled_) {
        const sample::IntervalLayout layout = sample::resolve_layout(
            config_.sampling, config_.run.op_budget, config_.run.warmup_ops);
        out.metric("sample.windows", windows, "count");
        out.metric("sample.detailed_frac",
                   windows * static_cast<double>(layout.window_ops) /
                       passes.front().ops,
                   "frac");
        out.metric("sample.ipc_stderr_max", ipc_stderr, "frac");
        out.metric("sample.ipc_err", ipc_err, "frac");
        out.metric("sample.stall_err", stall_err, "frac");
    } else {
        out.unused(kSampleLayerMetrics);
    }

    const LedgerResult ledger =
        measure_ledger(options_.seed, kLedgerOps, kLedgerReps, trace);
    const double ops = static_cast<double>(ledger.ops);
    out.metric("datagen.ns_per_op", 1e9 * ledger.datagen_s / ops, "ns");
    out.metric("trace.emit_ns_per_op", 1e9 * ledger.emit_s / ops, "ns");
    out.metric("cpu.ns_per_op", 1e9 * ledger.cpu_s / ops, "ns");
    out.metric("cpu.warm_ns_per_op",
               1e9 * ledger.warm_s / static_cast<double>(ledger.warm_ops),
               "ns");
    out.metric("mem.ns_per_access",
               1e9 * ledger.mem_s / static_cast<double>(ledger.mem_accesses),
               "ns");
    out.metric("ledger.residual_frac", ledger.residual_frac(), "frac");
    char detail[64];
    std::snprintf(detail, sizeof detail, "%+.4f", ledger.residual_frac());
    out.check("ledger parts add up to the direct run",
              std::fabs(ledger.residual_frac()) <= kLedgerTolerance, detail);
    out.metric("bench.trace_overhead_s",
               median(traced_s) - median(untraced_s), "s");
    out.unused(kClusterLayerMetrics);
    out.unused(kObsLayerMetrics);
}

}  // namespace

std::unique_ptr<Workload>
make_suite_workload(const Options& options, bool sampled)
{
    return std::make_unique<SuiteWorkload>(options, sampled);
}

}  // namespace perfbench
