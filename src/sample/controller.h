#ifndef DCBENCH_SAMPLE_CONTROLLER_H_
#define DCBENCH_SAMPLE_CONTROLLER_H_

/**
 * @file
 * SamplingController: the harness-side owner of one sampled run.
 *
 * It resolves a SamplePlan against the run's op budget into a concrete
 * IntervalLayout (handed to the core, which forwards it to the ExecCtx),
 * and afterwards assembles the extrapolated CounterReport:
 *
 *  - The timing metrics (IPC, stall shares) are measured inside the
 *    detailed windows and extrapolated to the whole run as ratios of
 *    window event totals, with a per-metric standard error via
 *    IntervalEstimator.
 *  - The structure-rate metrics (MPKI/PKI, hit and misprediction
 *    ratios) come from the full-stream counters, which the warm paths
 *    share with the timed paths: near-exact by construction, so their
 *    standard error is 0.
 *  - The kernel-instruction fraction and total instruction count come
 *    from the producer-side op accounting, which covers the full
 *    stream and is therefore exact by construction.
 */

#include <string>

#include "cpu/perf.h"
#include "sample/interval_estimator.h"
#include "sample/plan.h"

namespace dcb::sample {

/** Drives one sampled workload run and builds its extrapolated report. */
class SamplingController
{
  public:
    /**
     * @param plan                The requested sampling parameters.
     * @param op_budget           The run's total op budget.
     * @param default_warmup_ops  Warmup used when the plan leaves it 0
     *                            (the harness passes the run's exact-mode
     *                            ramp-up discard).
     */
    SamplingController(const SamplePlan& plan, std::uint64_t op_budget,
                       std::uint64_t default_warmup_ops = 0);

    /** The resolved schedule (unsampled when the plan is degenerate). */
    const IntervalLayout& layout() const { return layout_; }

    /** True when the run will actually interval-sample. */
    bool active() const { return layout_.sampled; }

    /**
     * Build the extrapolated report for a finished sampled run.
     * Requires active().
     */
    cpu::CounterReport make_report(const std::string& workload,
                                   const cpu::Core& core) const;

  private:
    IntervalLayout layout_;
};

}  // namespace dcb::sample

#endif  // DCBENCH_SAMPLE_CONTROLLER_H_
