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
window_metrics(const cpu::WindowSample& w)
{
    using cpu::Event;
    using cpu::ReportMetric;
    auto get = [&w](Event e) {
        return w.events[static_cast<std::size_t>(e)];
    };
    std::array<double, cpu::kReportMetricCount> m{};
    auto set = [&m](ReportMetric r, double v) {
        m[static_cast<std::size_t>(r)] = v;
    };

    const double instr = get(Event::kInstRetired);
    const double cycles = get(Event::kCycles);
    set(ReportMetric::kIpc, cycles > 0.0 ? instr / cycles : 0.0);
    const cpu::StallBreakdown stalls = cpu::normalize_stalls(
        get(Event::kFetchStallCycles), get(Event::kRatStallCycles),
        get(Event::kLoadBufStallCycles), get(Event::kStoreBufStallCycles),
        get(Event::kRsFullStallCycles), get(Event::kRobFullStallCycles));
    set(ReportMetric::kStallFetch, stalls.fetch);
    set(ReportMetric::kStallRat, stalls.rat);
    set(ReportMetric::kStallLoad, stalls.load);
    set(ReportMetric::kStallStore, stalls.store);
    set(ReportMetric::kStallRs, stalls.rs);
    set(ReportMetric::kStallRob, stalls.rob);
    return m;
}

}  // namespace

cpu::CounterReport
SamplingController::make_report(const std::string& workload,
                                const cpu::Core& core) const
{
    DCB_EXPECTS(layout_.sampled);
    using cpu::Event;

    cpu::CounterReport r;
    r.workload = workload;
    r.sampled = true;
    r.sample_windows = core.sample_windows().size();

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
    std::array<double, cpu::kEventCount> sum{};
    for (const cpu::WindowSample& w : core.sample_windows()) {
        estimator.add_window(window_metrics(w).data());
        for (std::size_t i = 0; i < cpu::kEventCount; ++i)
            sum[i] += w.events[i];
    }
    auto total = [&sum](Event e) {
        return sum[static_cast<std::size_t>(e)];
    };
    if (estimator.windows() > 0) {
        const double instr = total(Event::kInstRetired);
        const double cycles = total(Event::kCycles);
        r.ipc = cycles > 0.0 ? instr / cycles : 0.0;
        r.stalls = cpu::normalize_stalls(
            total(Event::kFetchStallCycles),
            total(Event::kRatStallCycles),
            total(Event::kLoadBufStallCycles),
            total(Event::kStoreBufStallCycles),
            total(Event::kRsFullStallCycles),
            total(Event::kRobFullStallCycles));
        for (std::size_t i = 0; i < cpu::kReportMetricCount; ++i)
            r.metric_stderr[i] = estimator.standard_error(i);
    }

    // Totals: the producer accounts every represented op whether it was
    // warmed or simulated, so the instruction totals -- and with them
    // the kernel-mode fraction -- are exact by construction.
    const cpu::CoreStats& stats = core.stats();
    const double total_instr =
        stats.get(Event::kInstRetired) +
        static_cast<double>(core.warm_user_ops() +
                            core.warm_kernel_ops());
    r.instructions = total_instr;
    r.cycles = r.ipc > 0.0 ? total_instr / r.ipc : 0.0;
    const double kernel_instr =
        stats.kernel_instructions +
        static_cast<double>(core.warm_kernel_ops());
    r.kernel_instr_fraction =
        total_instr > 0.0 ? kernel_instr / total_instr : 0.0;

    // The warm path notes the same demand events (misses, walks,
    // branches) the timed path does, so the event totals cover the
    // *entire* post-reset stream and the rate metrics follow the
    // exact-mode formulas over the exact-mode coverage -- near-exact by
    // construction rather than window-extrapolated, with no sampling
    // error bar. Rare events (e.g. ITLB walks at ~0.5 per kilo-op) make
    // this the only way to bound their error at small window budgets.
    if (total_instr > 0.0) {
        const double kilo_instr = total_instr / 1000.0;
        r.l1i_mpki = stats.get(Event::kL1IMiss) / kilo_instr;
        r.itlb_walk_pki = stats.get(Event::kITlbWalk) / kilo_instr;
        r.l2_mpki = stats.get(Event::kL2Miss) / kilo_instr;
        r.dtlb_walk_pki = stats.get(Event::kDTlbWalk) / kilo_instr;
    }
    const double l2_miss = stats.get(Event::kL2Miss);
    if (l2_miss > 0.0)
        r.l3_service_ratio = (l2_miss - stats.get(Event::kL3Miss)) / l2_miss;
    const double branches = stats.get(Event::kBrRetired);
    if (branches > 0.0)
        r.branch_misprediction_ratio =
            stats.get(Event::kBrMispred) / branches;
    return r;
}

}  // namespace dcb::sample
