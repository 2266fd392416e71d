#include "sample/controller.h"

#include <array>

#include "cpu/core.h"
#include "util/assert.h"

namespace dcb::sample {

SamplingController::SamplingController(const SamplePlan& plan,
                                       std::uint64_t op_budget,
                                       std::uint64_t default_warmup_ops)
    : layout_(resolve_layout(plan, op_budget, default_warmup_ops))
{
}

namespace {

/**
 * Per-window values of the timing metrics (estimator input). The other
 * ReportMetrics come from full-stream totals and stay 0 here, so their
 * standard error is 0 too.
 */
std::array<double, cpu::kReportMetricCount>
window_metrics(const cpu::CounterReport& w)
{
    using cpu::ReportMetric;
    std::array<double, cpu::kReportMetricCount> m{};
    for (const ReportMetric timing :
         {ReportMetric::kIpc, ReportMetric::kStallFetch,
          ReportMetric::kStallRat, ReportMetric::kStallLoad,
          ReportMetric::kStallStore, ReportMetric::kStallRs,
          ReportMetric::kStallRob})
        m[static_cast<std::size_t>(timing)] = cpu::report_metric(w, timing);
    return m;
}

}  // namespace

cpu::CounterReport
SamplingController::make_report(const std::string& workload,
                                const cpu::Core& core) const
{
    DCB_EXPECTS(layout_.sampled);
    using cpu::Event;

    // The timing point estimates are ratios of event totals summed over
    // every detailed window -- the exact-mode formulas applied to the
    // covered ops. Windows are equal-instruction, so a plain mean of
    // per-window *ratios* would weight a 400-cycle window as heavily as
    // a 4000-cycle one and bias every per-cycle metric (IPC, stall
    // shares) on phase-heterogeneous streams; summing first weights
    // each cycle once, the way the whole-run counters do. The
    // IntervalEstimator still sees the per-window metric values: its
    // standard error reports the across-window dispersion of each
    // metric, the sampling error bar alongside the estimate.
    IntervalEstimator estimator(cpu::kReportMetricCount);
    cpu::CoreStats window_sum;
    for (const cpu::CoreStats& w : core.sample_windows()) {
        estimator.add_window(
            window_metrics(cpu::make_report(workload, w)).data());
        window_sum += w;
    }

    // Totals: the producer accounts every represented op whether it was
    // warmed or simulated, so the instruction totals -- and with them
    // the kernel-mode fraction -- are exact by construction. The warm
    // path notes the same demand events (misses, walks, branches) the
    // timed path does, so the event totals cover the *entire*
    // post-reset stream and the rate metrics follow the exact-mode
    // formulas over the exact-mode coverage -- near-exact by
    // construction rather than window-extrapolated, with no sampling
    // error bar. Rare events (e.g. ITLB walks at ~0.5 per kilo-op) make
    // this the only way to bound their error at small window budgets.
    cpu::CoreStats totals = core.stats();
    totals.add(Event::kInstRetired,
               static_cast<double>(core.warm_user_ops() +
                                   core.warm_kernel_ops()));
    totals.kernel_instructions +=
        static_cast<double>(core.warm_kernel_ops());
    cpu::CounterReport r = cpu::make_report(workload, totals);
    r.sampled = true;
    r.sample_windows = core.sample_windows().size();

    // Timing: the window sum's IPC and stall shares; a run with no
    // windows reports 0.
    r.ipc = 0.0;
    r.stalls = {};
    if (estimator.windows() > 0) {
        const cpu::CounterReport timing =
            cpu::make_report(workload, window_sum);
        r.ipc = timing.ipc;
        r.stalls = timing.stalls;
        for (std::size_t i = 0; i < cpu::kReportMetricCount; ++i)
            r.metric_stderr[i] = estimator.standard_error(i);
    }
    r.cycles = r.ipc > 0.0 ? r.instructions / r.ipc : 0.0;
    return r;
}

}  // namespace dcb::sample
