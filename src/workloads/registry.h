#ifndef DCBENCH_WORKLOADS_REGISTRY_H_
#define DCBENCH_WORKLOADS_REGISTRY_H_

/**
 * @file
 * Workload registry: lookup by name and the paper's figure ordering for
 * all 26 measured workloads (Figure 3's x-axis, less its "avg" bar).
 */

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace dcb::workloads {

/** Construct any workload by its figure label; nullptr if unknown. */
std::unique_ptr<Workload> make_workload(const std::string& name);

/**
 * All 26 workload names in the paper's figure order: the eleven data
 * analysis workloads (Naive Bayes first), then the CloudSuite/SPECweb
 * services, SPEC CPU groups, and the HPCC kernels.
 */
const std::vector<std::string>& figure_order();

/** The names of one category in table order (Table I order for the
    data-analysis workloads). */
std::vector<std::string> names_in_category(Category category);

}  // namespace dcb::workloads

#endif  // DCBENCH_WORKLOADS_REGISTRY_H_
