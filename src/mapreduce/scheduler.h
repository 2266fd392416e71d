#ifndef DCBENCH_MAPREDUCE_SCHEDULER_H_
#define DCBENCH_MAPREDUCE_SCHEDULER_H_

/**
 * @file
 * Per-task timing truth shared by every cluster model.
 *
 * derive_task_profile turns one job on one cluster into the integral task
 * populations and nominal per-task service times the analytic model
 * implies. ClusterSimulator::run (cluster.h) runs those tasks as
 * closed-form waves for the fault-free Figure 2 / Figure 5 timings; the
 * fair-share scheduler (fairshare.h) executes them attempt by attempt
 * under faults. expected_task_counts is the population a completed job
 * must have produced, the chaos harness's invariant anchor.
 */

#include <cstdint>

#include "mapreduce/cluster.h"

namespace dcb::mapreduce {

/** The analytic-model task population of one job on one cluster. */
struct TaskCounts
{
    std::uint64_t maps = 0;     ///< map completions a full job must make
    std::uint64_t reduces = 0;  ///< reduce completions, ditto
};

/**
 * Per-iteration task population and service rates of one job on one
 * cluster, derived from the same Table I rates the analytic model uses.
 * This is the single source of per-task timing truth: the wave model
 * (ClusterSimulator::run) and the fair-share engine (fairshare.h) both
 * consume it, so a job's nominal task times agree across models to the
 * last bit.
 */
struct TaskProfile
{
    std::uint32_t map_count = 0;     ///< integral map tasks per iteration
    std::uint32_t reduce_count = 0;  ///< integral reduce tasks per iter
    double tasks = 0.0;              ///< real-valued map population
    double reduce_tasks = 0.0;       ///< real-valued reduce population
    double map_task_s = 0.0;         ///< nominal per-task map seconds
    double reduce_task_s = 0.0;      ///< nominal per-task reduce seconds
    double shuffle_raw_s = 0.0;      ///< unoverlapped all-to-all shuffle
    double task_overhead_s = 0.0;    ///< per-iteration fixed overhead
    double serial_s = 0.0;           ///< Amdahl residue per iteration
    double par = 0.0;                ///< 1 - serial_fraction
    double inter_bytes = 0.0;        ///< whole-job intermediate bytes
    double output_bytes = 0.0;       ///< whole-job output bytes
    double replicas_remote = 0.0;    ///< off-node HDFS replicas
};

/** Derive the profile; inputs must already validate clean. */
TaskProfile derive_task_profile(const JobSpec& job,
                                const ClusterConfig& cluster);

/**
 * What a completed job must have produced (both counts include the
 * iterations multiplier). Chaos-harness invariant anchor: recovery may
 * re-execute work, but the final completion counts are exact.
 */
TaskCounts expected_task_counts(const JobSpec& job,
                                const ClusterConfig& cluster);

}  // namespace dcb::mapreduce

#endif  // DCBENCH_MAPREDUCE_SCHEDULER_H_
