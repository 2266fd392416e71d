#ifndef DCBENCH_CPU_PERF_H_
#define DCBENCH_CPU_PERF_H_

/**
 * @file
 * Derived metrics: the one derivation of every report from CoreStats.
 *
 * The paper derives every reported figure from raw counter values; this
 * header defines the same derivations: IPC (Figure 3), user/kernel
 * instruction split (Figure 4), the normalized six-way pipeline stall
 * breakdown (Figure 6), L1I MPKI (Figure 7), ITLB walks PKI (Figure 8),
 * L2 MPKI (Figure 9), the L3 service ratio per Equation 1 (Figure 10),
 * DTLB walks PKI (Figure 11), and the branch misprediction ratio
 * (Figure 12).
 */

#include <array>
#include <string>

#include "cpu/core.h"

namespace dcb::cpu {

/**
 * The per-figure metrics a CounterReport carries, indexable so sampled
 * runs can attach a standard error to each one (fig03..fig12).
 */
enum class ReportMetric : std::uint8_t {
    kIpc,             ///< Figure 3
    kKernelFraction,  ///< Figure 4
    kStallFetch,      ///< Figure 6 (six categories)
    kStallRat,
    kStallLoad,
    kStallStore,
    kStallRs,
    kStallRob,
    kL1iMpki,                   ///< Figure 7
    kItlbWalkPki,               ///< Figure 8
    kL2Mpki,                    ///< Figure 9
    kL3ServiceRatio,            ///< Figure 10 (Equation 1)
    kDtlbWalkPki,               ///< Figure 11
    kBranchMispredictionRatio,  ///< Figure 12
    kCount
};

inline constexpr std::size_t kReportMetricCount =
    static_cast<std::size_t>(ReportMetric::kCount);

/** Short name for a report metric (tables, JSON keys). */
const char* report_metric_name(ReportMetric m);

/** Normalized pipeline-stall breakdown (sums to 1 when any stalls). */
struct StallBreakdown
{
    double fetch = 0.0;
    double rat = 0.0;
    double load = 0.0;
    double store = 0.0;
    double rs = 0.0;
    double rob = 0.0;

    double sum() const { return fetch + rat + load + store + rs + rob; }
    /** In-order-part share (fetch + RAT), as discussed in Section IV-B. */
    double in_order_part() const { return fetch + rat; }
    /** Out-of-order-part share (RS + ROB). */
    double out_of_order_part() const { return rs + rob; }
};

/** All derived metrics for one workload run. */
struct CounterReport
{
    std::string workload;

    double instructions = 0.0;
    double cycles = 0.0;
    double ipc = 0.0;                      ///< Figure 3

    double kernel_instr_fraction = 0.0;    ///< Figure 4

    StallBreakdown stalls;                 ///< Figure 6

    double l1i_mpki = 0.0;                 ///< Figure 7
    double itlb_walk_pki = 0.0;            ///< Figure 8
    double l2_mpki = 0.0;                  ///< Figure 9
    double l3_service_ratio = 0.0;         ///< Figure 10 (Equation 1)
    double dtlb_walk_pki = 0.0;            ///< Figure 11
    double branch_misprediction_ratio = 0.0;  ///< Figure 12

    // --- Interval-sampling annotations (exact runs leave these zero) --
    bool sampled = false;            ///< built by extrapolation
    std::size_t sample_windows = 0;  ///< detailed windows measured
    /** Per-metric standard error across detailed windows. */
    std::array<double, kReportMetricCount> metric_stderr{};

    double stderr_of(ReportMetric m) const
    {
        return metric_stderr[static_cast<std::size_t>(m)];
    }
};

/** Read one ReportMetric's value out of a report. */
double report_metric(const CounterReport& r, ReportMetric m);

/**
 * Derive every report metric from one counter record: the whole run's
 * totals, one window's deltas or a sum of windows.
 */
CounterReport make_report(const std::string& workload,
                          const CoreStats& stats);

/** Build a report from a core's always-on counters. */
CounterReport make_report(const std::string& workload, const Core& core);

/** Compute the normalized stall breakdown from raw event values. */
StallBreakdown normalize_stalls(double fetch, double rat, double load,
                                double store, double rs, double rob);

}  // namespace dcb::cpu

#endif  // DCBENCH_CPU_PERF_H_
