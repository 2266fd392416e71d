#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

/**
 * @file
 * Output checks the benchmark runs on what the simulator returned: the
 * paper's shape findings a suite's reports can decide, bit-identity of
 * repeated or differently-threaded runs, and exact task counts of
 * completed cluster jobs.
 */

#include <string>
#include <vector>

#include "cpu/perf.h"
#include "mapreduce/fairshare.h"

namespace perfbench {

/** One paper finding checked against a suite's reports. */
struct ShapeCheck
{
    std::string name;
    bool held = false;
};

/**
 * F1 (IPC ordering), F3 (L1I), F4 (L2 / L3), F5 (branch) and F6 (kernel
 * share) over the 26-workload suite. A workload missing from `reports`
 * makes every claim fail.
 */
std::vector<ShapeCheck>
paper_shape_checks(const std::vector<dcb::cpu::CounterReport>& reports);

/** Every field of two reports is bit-identical. */
bool reports_identical(const dcb::cpu::CounterReport& a,
                       const dcb::cpu::CounterReport& b);

/**
 * Jobs of `result` that did not complete or completed with other than
 * exactly expected_task_counts maps and reduces, as "name: reason".
 */
std::vector<std::string>
job_failures(const dcb::mapreduce::MultiJobResult& result,
             const std::vector<dcb::mapreduce::JobSubmission>& fleet,
             const dcb::mapreduce::ClusterConfig& cluster);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
