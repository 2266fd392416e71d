#ifndef DCBENCH_CORE_DCBENCH_H_
#define DCBENCH_CORE_DCBENCH_H_

/**
 * @file
 * Umbrella header: the DCBench-Repro public API.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   dcb::core::HarnessConfig config = dcb::core::bench_config();
 *   auto report = dcb::core::run_workload("WordCount", config);
 *   // report.ipc, report.l2_mpki, report.stalls, ...
 */

#include "core/domain_catalog.h"
#include "core/findings.h"
#include "core/harness.h"
#include "core/paper_data.h"
#include "core/report.h"
#include "cpu/perf.h"
#include "mapreduce/cluster.h"
#include "workloads/registry.h"

#endif  // DCBENCH_CORE_DCBENCH_H_
