#ifndef DCBENCH_SAMPLE_PLAN_H_
#define DCBENCH_SAMPLE_PLAN_H_

/**
 * @file
 * Interval-sampling plans: how a workload's op stream is split into
 * alternating fast-forward (functional warming) and detailed
 * (full-model) segments.
 *
 * The scheme follows the SMARTS tradition and the subsetting insight
 * of Jia et al. (arXiv:1409.0792): every op between two detailed
 * measurement windows goes through functional warming, which keeps the
 * long-lived microarchitectural state (cache tags, TLBs, branch
 * predictor tables, page table) as current as an exact run's. The
 * expensive timing model (stall attribution, ROB/RS/LSQ occupancy, PMU
 * accounting) only runs inside the windows, and the timing metrics are
 * extrapolated from the window measurements with a per-metric standard
 * error.
 *
 * Everything here is inline (util/assert.h is too), so every layer
 * (trace producer, cpu sink, harness) can share the plan types without
 * link-time coupling.
 */

#include <cstdint>

#include "util/assert.h"

namespace dcb::sample {

/** User-facing sampling knobs (HarnessConfig::sampling). */
struct SamplePlan
{
    /**
     * Fraction of the post-warmup op budget simulated in detail.
     * <= 0 disables sampling entirely (exact mode, the default).
     */
    double ratio = 0.0;

    /** Sentinel: resolve_layout() derives the value from the window. */
    static constexpr std::uint64_t kAuto = ~std::uint64_t{0};

    /**
     * Ops per detailed measurement window. Stall shares of
     * slow-rebuilding structures (the store buffer above all) need a
     * window this long before they re-materialize.
     */
    std::uint64_t window_ops = 2'000;

    /**
     * Detailed ops at the head of each window excluded from
     * measurement: they re-pressurize the pipeline (ROB/RS/buffer
     * occupancy rings, port cursors) after the fast-forward, so the
     * measured tail sees steady-state timing. Clamped to half the
     * window; kAuto resolves to half the window.
     */
    std::uint64_t window_discard_ops = kAuto;

    /**
     * Lead-in before the first period, mirroring the exact-mode
     * ramp-up discard so sampled and exact runs measure the same span
     * of the stream. 0 means "use the run's warmup_ops". The lead-in
     * warms like every gap.
     */
    std::uint64_t warmup_ops = 0;

    /**
     * Always true: every fast-forward op warms the structures (full
     * warming), the only sampled mode. The member remains because
     * existing callers still assign it; resolve_layout() rejects false
     * as a configuration error rather than running some other mode.
     */
    bool full_warming = true;

    bool enabled() const { return ratio > 0.0 && window_ops > 0; }
};

/**
 * A plan resolved against a concrete op budget: the actual interval
 * schedule a run executes.
 *
 * Stream layout (op counts):
 *
 *   [ warmup ][ warm | window ][ warm | window ] ...
 *     warming   warming  full
 *
 * with warm = gap_ops() = period_ops - window_ops. The cycle repeats
 * until the stream actually ends: workloads stop at phase granularity
 * and can overshoot the nominal budget, and exact mode measures that
 * overshoot too, so `windows` is the nominal count for a stream that
 * stops exactly at its budget, not a cap. The executor jitters each
 * period's gap length (mean-preserving) so periodic workload phases
 * cannot alias with the schedule. "Warm" segments replay the stream
 * through the warm-only structure paths; "window" segments run the
 * full timing model.
 */
struct IntervalLayout
{
    bool sampled = false;  ///< false: run exact (no schedule)
    std::uint64_t warmup_ops = 0;
    std::uint64_t windows = 0;
    std::uint64_t window_ops = 0;
    std::uint64_t window_discard_ops = 0;
    std::uint64_t period_ops = 0;  ///< warm gap + window

    std::uint64_t detailed_ops() const { return windows * window_ops; }
    std::uint64_t gap_ops() const { return period_ops - window_ops; }
};

/**
 * Resolve a plan against an op budget. Degenerate inputs -- a disabled
 * plan, a zero budget, warmup consuming the whole budget, or a window
 * longer than the post-warmup budget -- resolve to an exact run
 * (sampled == false), never to a broken schedule.
 */
inline IntervalLayout
resolve_layout(const SamplePlan& plan, std::uint64_t op_budget,
               std::uint64_t default_warmup_ops = 0)
{
    DCB_CONFIG_CHECK(plan.full_warming,
                     "SamplePlan::full_warming = false: full warming is "
                     "the only sampling mode");
    IntervalLayout layout;
    if (!plan.enabled() || op_budget == 0)
        return layout;
    const std::uint64_t warmup =
        plan.warmup_ops ? plan.warmup_ops : default_warmup_ops;
    if (warmup >= op_budget)
        return layout;
    const std::uint64_t usable = op_budget - warmup;
    const std::uint64_t window_ops = plan.window_ops;
    if (window_ops > usable)
        return layout;  // window > budget: fall back to exact mode
    const double ratio = plan.ratio < 1.0 ? plan.ratio : 1.0;
    auto windows = static_cast<std::uint64_t>(
        ratio * static_cast<double>(usable) /
            static_cast<double>(window_ops) +
        0.5);
    if (windows == 0)
        windows = 1;
    const std::uint64_t max_windows = usable / window_ops;
    if (windows > max_windows)
        windows = max_windows;  // >= 1: window_ops <= usable
    layout.sampled = true;
    layout.warmup_ops = warmup;
    layout.windows = windows;
    layout.window_ops = window_ops;
    const std::uint64_t discard =
        plan.window_discard_ops != SamplePlan::kAuto
            ? plan.window_discard_ops
            : window_ops / 2;
    layout.window_discard_ops =
        discard < window_ops / 2 ? discard : window_ops / 2;
    layout.period_ops = usable / windows;  // >= window_ops
    return layout;
}

}  // namespace dcb::sample

#endif  // DCBENCH_SAMPLE_PLAN_H_
