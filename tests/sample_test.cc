/** @file Tests for the interval-sampling subsystem: the
 *  IntervalEstimator statistics, SamplePlan resolution (including every
 *  degenerate-input fallback), and the ExecCtx interval schedule as
 *  observed from the sink side. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/harness.h"
#include "cpu/perf.h"
#include "sample/controller.h"
#include "sample/interval_estimator.h"
#include "sample/plan.h"
#include "trace/code_layout.h"
#include "trace/exec_ctx.h"
#include "workloads/registry.h"

namespace dcb::sample {
namespace {

// --- IntervalEstimator --------------------------------------------------

TEST(IntervalEstimator, KnownMeanAndError)
{
    IntervalEstimator est(2);
    const double w1[] = {1.0, 10.0};
    const double w2[] = {2.0, 10.0};
    const double w3[] = {3.0, 10.0};
    est.add_window(w1);
    est.add_window(w2);
    est.add_window(w3);
    EXPECT_EQ(est.windows(), 3u);
    EXPECT_DOUBLE_EQ(est.mean(0), 2.0);
    EXPECT_DOUBLE_EQ(est.mean(1), 10.0);
    EXPECT_DOUBLE_EQ(est.standard_deviation(0), 1.0);
    EXPECT_DOUBLE_EQ(est.standard_deviation(1), 0.0);
    EXPECT_NEAR(est.standard_error(0), 1.0 / std::sqrt(3.0), 1e-12);
    EXPECT_DOUBLE_EQ(est.standard_error(1), 0.0);
}

TEST(IntervalEstimator, ErrorShrinksWithMoreWindows)
{
    // Same dispersion, more windows: stderr ~ sd / sqrt(n).
    IntervalEstimator few(1);
    IntervalEstimator many(1);
    for (int i = 0; i < 4; ++i) {
        const double v = (i % 2 == 0) ? 1.0 : 3.0;
        few.add_window(&v);
    }
    for (int i = 0; i < 64; ++i) {
        const double v = (i % 2 == 0) ? 1.0 : 3.0;
        many.add_window(&v);
    }
    EXPECT_GT(few.standard_error(0), many.standard_error(0));
    // stderr = sqrt(m2 / (n - 1)) / sqrt(n); with m2 == n here the
    // ratio is sqrt(63 / 3) = sqrt(21).
    EXPECT_NEAR(few.standard_error(0) / many.standard_error(0),
                std::sqrt(21.0), 1e-12);
}

TEST(IntervalEstimator, ZeroAndOneWindow)
{
    IntervalEstimator est(1);
    EXPECT_EQ(est.windows(), 0u);
    EXPECT_DOUBLE_EQ(est.mean(0), 0.0);
    EXPECT_DOUBLE_EQ(est.standard_error(0), 0.0);
    const double v = 7.5;
    est.add_window(&v);
    EXPECT_DOUBLE_EQ(est.mean(0), 7.5);
    // A single window carries no dispersion information.
    EXPECT_DOUBLE_EQ(est.standard_deviation(0), 0.0);
    EXPECT_DOUBLE_EQ(est.standard_error(0), 0.0);
}

TEST(IntervalEstimator, ExtrapolatedTotal)
{
    IntervalEstimator est(1);
    const double a = 2.0;
    const double b = 4.0;
    est.add_window(&a);
    est.add_window(&b);
    EXPECT_DOUBLE_EQ(est.extrapolated_total(0, 1000.0), 3000.0);
}

// --- SamplePlan resolution ----------------------------------------------

TEST(ResolveLayout, DisabledPlanStaysExact)
{
    EXPECT_FALSE(resolve_layout(SamplePlan{}, 1'000'000).sampled);
    SamplePlan off;
    off.ratio = 0.0;
    EXPECT_FALSE(resolve_layout(off, 1'000'000).sampled);
}

TEST(ResolveLayout, DegenerateInputsFallBackToExact)
{
    SamplePlan plan;
    plan.ratio = 0.05;
    EXPECT_FALSE(resolve_layout(plan, 0).sampled);
    // Warmup consuming the whole budget.
    plan.warmup_ops = 1'000'000;
    EXPECT_FALSE(resolve_layout(plan, 1'000'000).sampled);
    // A window longer than the post-warmup budget.
    SamplePlan wide;
    wide.ratio = 0.05;
    wide.window_ops = 2'000'000;
    EXPECT_FALSE(resolve_layout(wide, 1'000'000).sampled);
    // Explicit zero-length window disables sampling outright.
    SamplePlan zero;
    zero.ratio = 0.05;
    zero.window_ops = 0;
    EXPECT_FALSE(zero.enabled());
    EXPECT_FALSE(resolve_layout(zero, 1'000'000).sampled);
}

TEST(ResolveLayout, DefaultWindowAndDiscard)
{
    SamplePlan plan;
    plan.ratio = 0.02;
    const IntervalLayout layout = resolve_layout(plan, 1'000'000);
    ASSERT_TRUE(layout.sampled);
    EXPECT_EQ(layout.window_ops, 2'000u);
    EXPECT_EQ(layout.window_discard_ops, 1'000u);
}

TEST(ResolveLayout, FullWarmingWarmsTheWholeGap)
{
    SamplePlan plan;
    plan.ratio = 0.1;
    plan.window_ops = 2'000;
    plan.warmup_ops = 100'000;
    const IntervalLayout layout = resolve_layout(plan, 1'100'000);
    ASSERT_TRUE(layout.sampled);
    EXPECT_EQ(layout.warmup_ops, 100'000u);
    EXPECT_EQ(layout.windows, 50u);  // 0.1 * 1M / 2000
    EXPECT_EQ(layout.period_ops, 20'000u);
    EXPECT_EQ(layout.gap_ops(), 18'000u);
    EXPECT_EQ(layout.detailed_ops(), 100'000u);
}

TEST(ResolveLayout, RejectsAnyModeButFullWarming)
{
    SamplePlan plan;
    plan.ratio = 0.1;
    plan.full_warming = false;
    EXPECT_EXIT(resolve_layout(plan, 1'000'000),
                ::testing::ExitedWithCode(1), "full_warming");
}

TEST(ResolveLayout, DiscardClampsToHalfWindow)
{
    SamplePlan plan;
    plan.ratio = 0.05;
    plan.window_ops = 1'000;
    plan.window_discard_ops = 900;
    const IntervalLayout layout = resolve_layout(plan, 1'000'000);
    ASSERT_TRUE(layout.sampled);
    EXPECT_EQ(layout.window_discard_ops, 500u);
}

TEST(ResolveLayout, DefaultWarmupFallsBackToHarnessValue)
{
    SamplePlan plan;
    plan.ratio = 0.05;
    const IntervalLayout layout = resolve_layout(plan, 1'000'000, 250'000);
    ASSERT_TRUE(layout.sampled);
    EXPECT_EQ(layout.warmup_ops, 250'000u);
}

TEST(SamplingControllerTest, InactiveOnDegeneratePlan)
{
    const SamplingController off(SamplePlan{}, 1'000'000);
    EXPECT_FALSE(off.active());
    SamplePlan plan;
    plan.ratio = 0.05;
    const SamplingController on(plan, 1'000'000, 250'000);
    EXPECT_TRUE(on.active());
}

// --- The executed schedule, observed from the sink ----------------------

/** Sink that hands the ExecCtx a layout and records what comes back. */
class ScheduleSink final : public trace::OpSink
{
  public:
    explicit ScheduleSink(const IntervalLayout& layout) : layout_(layout)
    {
    }

    void consume(const trace::MicroOp&) override
    {
        ++timed_ops;
        if (open_window)
            ++current_window_ops;
    }

    void consume_warm_batch(const trace::MicroOp*, std::size_t,
                            const trace::WarmSummary& represented) override
    {
        warm_represented += represented.user_ops + represented.kernel_ops;
    }

    void begin_sample_window() override
    {
        EXPECT_FALSE(open_window);
        open_window = true;
        current_window_ops = 0;
        ++windows_begun;
    }

    void begin_window_measurement() override
    {
        EXPECT_TRUE(open_window);
        ++measurements_begun;
        ops_at_measurement.push_back(current_window_ops);
    }

    void end_sample_window() override
    {
        EXPECT_TRUE(open_window);
        open_window = false;
        window_lengths.push_back(current_window_ops);
    }

    void sampling_warmup_done() override
    {
        ++warmups_done;
        warm_at_warmup_done = warm_represented;
    }

    const IntervalLayout* sample_layout() const override
    {
        return &layout_;
    }

    IntervalLayout layout_;
    std::uint64_t timed_ops = 0;
    std::uint64_t warm_represented = 0;
    std::uint64_t warm_at_warmup_done = 0;
    std::uint64_t current_window_ops = 0;
    std::vector<std::uint64_t> window_lengths;
    std::vector<std::uint64_t> ops_at_measurement;
    int windows_begun = 0;
    int measurements_begun = 0;
    int warmups_done = 0;
    bool open_window = false;
};

IntervalLayout
small_schedule()
{
    IntervalLayout layout;
    layout.sampled = true;
    layout.warmup_ops = 300;
    layout.windows = 4;
    layout.window_ops = 50;
    layout.window_discard_ops = 10;
    layout.period_ops = 500;
    return layout;
}

/** Push `n` ops of mixed classes through the context. */
void
drive(trace::ExecCtx& ctx, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        switch (i % 4) {
          case 0:
            ctx.load(0x1000 + 64 * i);
            break;
          case 1:
            ctx.store(0x9000 + 64 * i);
            break;
          case 2:
            ctx.alu(1);
            break;
          default:
            ctx.branch(i % 17, i % 3 == 0);
            break;
        }
    }
    ctx.flush();
}

trace::ExecCtx
make_ctx(trace::OpSink& sink)
{
    return trace::ExecCtx(sink, trace::tight_kernel_layout(0x10000, 7),
                          trace::tight_kernel_layout(0x800000, 8),
                          trace::ExecProfile{}, 42);
}

TEST(IntervalSchedule, PeriodicWindowsUntilStreamEnds)
{
    // 300 warmup + 4 nominal periods of 500 = 2300; drive well past it
    // and the periodic schedule must keep opening windows.
    const IntervalLayout layout = small_schedule();
    ScheduleSink sink(layout);
    trace::ExecCtx ctx = make_ctx(sink);
    ASSERT_TRUE(ctx.sampling());
    drive(ctx, 6'000);

    EXPECT_EQ(sink.warmups_done, 1);
    // Every closed window is exactly window_ops of timed ops.
    ASSERT_GE(sink.window_lengths.size(), 5u);
    for (const std::uint64_t len : sink.window_lengths)
        EXPECT_EQ(len, 50u);
    // One measurement baseline per window, placed after the discard.
    EXPECT_EQ(sink.measurements_begun, sink.windows_begun);
    for (const std::uint64_t at : sink.ops_at_measurement)
        EXPECT_EQ(at, 10u);
    // Producer accounting covers every represented op exactly once.
    EXPECT_EQ(sink.timed_ops + sink.warm_represented, 6'000u);
    EXPECT_EQ(ctx.counts().total(), 6'000u);
}

TEST(IntervalSchedule, FullWarmingWarmsEveryGap)
{
    const IntervalLayout layout = small_schedule();
    ScheduleSink sink(layout);
    trace::ExecCtx ctx = make_ctx(sink);
    drive(ctx, 4'000);

    EXPECT_EQ(sink.warmups_done, 1);
    // The warmup lead-in itself warms under full warming.
    EXPECT_EQ(sink.warm_at_warmup_done, 300u);
    EXPECT_GE(sink.window_lengths.size(), 3u);
    for (const std::uint64_t len : sink.window_lengths)
        EXPECT_EQ(len, 50u);
    EXPECT_EQ(sink.timed_ops + sink.warm_represented, 4'000u);
}

TEST(IntervalSchedule, JitterVariesGapLengthsAroundTheMean)
{
    // With mean-preserving jitter in [gap/2, 3*gap/2], consecutive
    // windows are not equally spaced -- that spacing is exactly what
    // lets periodic phases escape a rigid schedule.
    const IntervalLayout layout = small_schedule();
    ScheduleSink sink(layout);
    trace::ExecCtx ctx = make_ctx(sink);
    drive(ctx, 20'000);

    ASSERT_GE(sink.window_lengths.size(), 10u);
    const double mean_period =
        static_cast<double>(20'000 - layout.warmup_ops) /
        static_cast<double>(sink.window_lengths.size());
    // The realized window count stays near the nominal period's.
    EXPECT_NEAR(mean_period, 500.0, 150.0);
}

TEST(IntervalSchedule, NoLayoutMeansExactMode)
{
    // A sink without a layout (the default) leaves the context in
    // exact mode: no windows, no warm batches, every op timed.
    class PlainSink final : public trace::OpSink
    {
      public:
        void consume(const trace::MicroOp&) override { ++timed_ops; }
        void begin_sample_window() override { ++windows; }
        std::uint64_t timed_ops = 0;
        int windows = 0;
    };
    PlainSink sink;
    trace::ExecCtx ctx = make_ctx(sink);
    EXPECT_FALSE(ctx.sampling());
    drive(ctx, 1'000);
    EXPECT_EQ(sink.timed_ops, 1'000u);
    EXPECT_EQ(sink.windows, 0);
}

// --- End-to-end tolerance guard -----------------------------------------

/**
 * One workload, exact vs sampled under full warming. Full warming notes
 * the same demand events the timed path does over the whole stream, so
 * the structure-rate metrics must track exact mode tightly; the
 * window-measured timing metrics get a loose guard (they carry real
 * sampling error, reported via metric_stderr).
 */
TEST(SampledRun, FullWarmingTracksExactMode)
{
    core::HarnessConfig exact;
    exact.run.op_budget = 1'000'000;
    exact.run.warmup_ops = 250'000;
    core::HarnessConfig sampled = exact;
    sampled.sampling.ratio = 0.15;

    const cpu::CounterReport e =
        core::run_workload("Grep", exact).report;
    const cpu::CounterReport s =
        core::run_workload("Grep", sampled).report;

    EXPECT_FALSE(e.sampled);
    EXPECT_TRUE(s.sampled);
    EXPECT_GT(s.sample_windows, 10u);

    // Producer-side accounting: instruction totals and the kernel-mode
    // split are exact by construction.
    EXPECT_EQ(s.instructions, e.instructions);
    EXPECT_NEAR(s.kernel_instr_fraction, e.kernel_instr_fraction, 1e-12);

    // Structure metrics: full-stream event coverage, near-exact.
    EXPECT_NEAR(s.l1i_mpki, e.l1i_mpki, 0.05 * e.l1i_mpki + 0.05);
    EXPECT_NEAR(s.l2_mpki, e.l2_mpki, 0.05 * e.l2_mpki + 0.05);
    EXPECT_NEAR(s.itlb_walk_pki, e.itlb_walk_pki,
                0.05 * e.itlb_walk_pki + 0.05);
    EXPECT_NEAR(s.dtlb_walk_pki, e.dtlb_walk_pki,
                0.05 * e.dtlb_walk_pki + 0.05);
    EXPECT_NEAR(s.l3_service_ratio, e.l3_service_ratio, 0.05);
    EXPECT_NEAR(s.branch_misprediction_ratio,
                e.branch_misprediction_ratio, 0.01);

    // Window-extrapolated timing: loose guard against gross breakage.
    EXPECT_NEAR(s.ipc, e.ipc, 0.25 * e.ipc);
    EXPECT_NEAR(s.stalls.sum(), 1.0, 1e-9);

    // The error bars exist only on the sampled report.
    EXPECT_GT(s.stderr_of(cpu::ReportMetric::kIpc), 0.0);
    EXPECT_EQ(e.stderr_of(cpu::ReportMetric::kIpc), 0.0);
}

/** One workload per category: the runs the two report-path hashes pin. */
const std::vector<std::string> kCategorySample = {
    "WordCount", "Media Streaming", "SPECINT", "HPCC-RandomAccess"};

/**
 * FNV-1a hash over every CounterReport field (stderr bars and window
 * counts included) of each of `names`, run under `config` in order.
 * With `with_info`, each workload's last_input_bytes() and every
 * WorkloadInfo and JobSpec field are mixed in after its report.
 */
std::uint64_t
report_hash(const core::HarnessConfig& config,
            const std::vector<std::string>& names = kCategorySample,
            bool with_info = false)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    auto mix_double = [&mix](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    };
    auto mix_string = [&mix](const std::string& s) {
        for (const char c : s)
            mix(static_cast<unsigned char>(c));
    };
    for (const std::string& name : names) {
        const auto workload = workloads::make_workload(name);
        if (workload == nullptr) {
            ADD_FAILURE() << "unknown workload " << name;
            continue;
        }
        const cpu::CounterReport r = core::run_workload(*workload, config);
        mix_string(r.workload);
        for (const double v :
             {r.instructions, r.cycles, r.ipc, r.kernel_instr_fraction,
              r.stalls.fetch, r.stalls.rat, r.stalls.load, r.stalls.store,
              r.stalls.rs, r.stalls.rob, r.l1i_mpki, r.itlb_walk_pki,
              r.l2_mpki, r.l3_service_ratio, r.dtlb_walk_pki,
              r.branch_misprediction_ratio})
            mix_double(v);
        mix(r.sampled ? 1 : 0);
        mix(r.sample_windows);
        for (const double v : r.metric_stderr)
            mix_double(v);
        if (!with_info)
            continue;
        const workloads::WorkloadInfo& info = workload->info();
        const mapreduce::JobSpec& spec = info.cluster_spec;
        mix(workload->last_input_bytes());
        mix_string(info.name);
        mix(static_cast<std::uint64_t>(info.category));
        mix_string(info.source);
        mix_double(info.paper_input_gb);
        mix_double(info.paper_instructions_g);
        mix_string(spec.name);
        for (const double v :
             {spec.input_gb, spec.total_instructions_g,
              spec.map_output_ratio, spec.output_ratio,
              spec.reduce_fraction, spec.serial_fraction})
            mix_double(v);
        mix(spec.iterations);
    }
    return h;
}

/** The golden runs: 300k ops after a 75k-op ramp-up discard. */
core::HarnessConfig
golden_config()
{
    core::HarnessConfig config;
    config.run.op_budget = 300'000;
    config.run.warmup_ops = 75'000;
    return config;
}

/**
 * Pins the sampled path bit for bit: any change to the schedule, its
 * RNG draws, the warm paths or the report assembly shows up here, not
 * only a change large enough to break a tolerance.
 */
TEST(SampledRun, FullWarmingGoldenHash)
{
    core::HarnessConfig config = golden_config();
    config.sampling.ratio = 0.15;
    // Computed when a second, skipping warming mode still existed; the
    // one-mode engine must reproduce it exactly.
    EXPECT_EQ(report_hash(config), 0x4a3537b38a020366ULL);
}

/**
 * Pins exact-mode reports bit for bit over the same runs, unsampled
 * (the figure CSVs pin them only after rounding).
 */
TEST(ExactRun, GoldenHash)
{
    EXPECT_EQ(report_hash(golden_config()), 0x1df640288649df06ULL);
}

/**
 * Pins every workload of the suite bit for bit: its exact report, its
 * simulated input bytes and its static description (Table I figures
 * and cluster job parameters), so a change to how workloads are built
 * or described shows up here rather than only in rounded figure CSVs.
 */
TEST(ExactRun, EveryWorkloadGoldenHash)
{
    EXPECT_EQ(report_hash(golden_config(), workloads::figure_order(), true),
              0xd8bada2021e2535dULL);
}

/**
 * The fidelity guard over the whole figure suite: every fig03-fig12
 * metric of every workload, exact vs sampled at ratio 0.15 and 500k
 * ops, within a relative error of 1.5. The error has an absolute floor
 * of 0.02 so near-zero metrics (ITLB walks PKI ~0.01) do not turn a
 * negligible difference into a huge relative one. The worst value is
 * about 1.0 (stall_store on Grep).
 */
TEST(SampledRun, SuiteWithinFidelityGuard)
{
    constexpr double kRelErrFloor = 0.02;
    constexpr double kMaxRelErr = 1.5;
    core::HarnessConfig exact = core::bench_config();
    exact.run.op_budget = 500'000;
    exact.run.warmup_ops = exact.run.op_budget / 4;
    exact.jobs = 4;  // results are bit-identical to serial
    core::HarnessConfig sampled = exact;
    sampled.sampling.ratio = 0.15;

    const std::vector<std::string> names = workloads::figure_order();
    const core::SuiteResult e = core::run_suite(names, exact);
    const core::SuiteResult s = core::run_suite(names, sampled);
    ASSERT_EQ(e.runs.size(), names.size());
    ASSERT_EQ(s.runs.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(e.runs[i].status.ok) << names[i];
        ASSERT_TRUE(s.runs[i].status.ok) << names[i];
        for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
            const auto metric = static_cast<cpu::ReportMetric>(m);
            const double want = cpu::report_metric(e.runs[i].report, metric);
            const double got = cpu::report_metric(s.runs[i].report, metric);
            EXPECT_LE(std::fabs(got - want) /
                          std::max(std::fabs(want), kRelErrFloor),
                      kMaxRelErr)
                << cpu::report_metric_name(metric) << " on " << names[i]
                << ": exact " << want << ", sampled " << got;
        }
    }
}

/** A sampled run must leave exact mode untouched: a degenerate plan
 *  resolves to an exact run producing the identical report. */
TEST(SampledRun, DegeneratePlanIsByteIdenticalToExact)
{
    core::HarnessConfig exact;
    exact.run.op_budget = 300'000;
    exact.run.warmup_ops = 75'000;
    core::HarnessConfig degenerate = exact;
    degenerate.sampling.ratio = 0.1;
    degenerate.sampling.window_ops = 400'000;  // > budget: exact fallback

    const cpu::CounterReport a =
        core::run_workload("Sort", exact).report;
    const cpu::CounterReport b =
        core::run_workload("Sort", degenerate).report;
    EXPECT_FALSE(b.sampled);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1i_mpki, b.l1i_mpki);
    EXPECT_EQ(a.l2_mpki, b.l2_mpki);
    EXPECT_EQ(a.dtlb_walk_pki, b.dtlb_walk_pki);
    EXPECT_EQ(a.branch_misprediction_ratio, b.branch_misprediction_ratio);
    EXPECT_EQ(a.stalls.fetch, b.stalls.fetch);
    EXPECT_EQ(a.stalls.rob, b.stalls.rob);
}

}  // namespace
}  // namespace dcb::sample
