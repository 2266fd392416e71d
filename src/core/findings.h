#ifndef DCBENCH_CORE_FINDINGS_H_
#define DCBENCH_CORE_FINDINGS_H_

/**
 * @file
 * The paper's Figure 3-12 findings as one table of checks over a suite
 * run. The figure driver prints each row under its figure and the shape
 * tests assert them, so every claim and its bound is written once here.
 */

#include <vector>

#include "cpu/perf.h"

namespace dcb::core {

/** One claim of the paper about one figure, with its bound. */
struct Finding
{
    const char* id;     ///< paper finding (DESIGN.md §1): "F1" ... "F6"
    int figure;         ///< the figure whose metric the claim reads
    const char* claim;  ///< what must hold, bound included
    /** The predicate over a complete suite (figure_order, any order). */
    bool (*holds)(const std::vector<cpu::CounterReport>& reports);
};

/** Every Figure 3-12 finding, in figure order. */
const std::vector<Finding>& paper_findings();

/**
 * Whether each row of paper_findings() holds on `reports`, in table
 * order. Every claim needs the whole suite, so every row fails when any
 * workloads::figure_order() workload has no report (a failed run).
 */
std::vector<bool> check_findings(
    const std::vector<cpu::CounterReport>& reports);

}  // namespace dcb::core

#endif  // DCBENCH_CORE_FINDINGS_H_
