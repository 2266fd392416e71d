#ifndef DCBENCH_MAPREDUCE_CLUSTER_H_
#define DCBENCH_MAPREDUCE_CLUSTER_H_

/**
 * @file
 * Cluster-level job-time simulation for the Figure 2 speedup experiment.
 *
 * The paper runs the eleven workloads on 1/4/8 Hadoop slaves and reports
 * speedups ranging 3.3-8.2 at eight slaves. Two fault-free models live
 * here:
 *
 *  - ClusterSimulator::analytic_run() is the closed-form discrete-phase
 *    model: fixed job and per-task overheads, disk-bound vs CPU-bound
 *    phases, the all-to-all shuffle over shared 1 GbE, HDFS output
 *    replication, and straggler slack that grows with the task
 *    population.
 *
 *  - ClusterSimulator::run() is the task-wave model behind Figures 2
 *    and 5: the integral task populations of derive_task_profile
 *    (scheduler.h) run as slot-limited waves, so it matches the analytic
 *    model to within wave quantization (ceil(tasks/slots) vs
 *    tasks/slots).
 *
 * Jobs under faults -- retries, speculation, node and rack loss,
 * partitions, master failover -- run attempt by attempt on the
 * fair-share scheduler (fairshare.h), one submission per job.
 *
 * Per-workload compute intensity comes straight from Table I (retired
 * instructions / input bytes).
 */

#include <cstdint>
#include <string>

#include "os/disk.h"
#include "os/network.h"

namespace dcb::mapreduce {

/** Workload description for the cluster model (Table I derived). */
struct JobSpec
{
    std::string name;
    double input_gb = 150.0;              ///< Table I input size
    double total_instructions_g = 4000.0; ///< Table I retired instructions
    double map_output_ratio = 0.2;   ///< intermediate bytes / input bytes
    double output_ratio = 0.05;      ///< job output bytes / input bytes
    double reduce_fraction = 0.2;    ///< share of compute in reducers
    /** Iterative jobs (Mahout drivers) repeat the job this many times;
        overheads are paid per iteration. */
    std::uint32_t iterations = 1;
    /**
     * Amdahl serial residue: the fraction of single-node job time that
     * does not parallelize (job client setup, libjars distribution,
     * single-point output commit/aggregation). Calibrated per workload;
     * scan-style jobs with trivial reduces (Grep) carry the most.
     */
    double serial_fraction = 0.02;
};

/** Cluster description (Section III-A/B). */
struct ClusterConfig
{
    std::uint32_t slaves = 4;
    /**
     * Racks the slaves are spread over (contiguous blocks; see
     * fault::Topology), in [1, slaves]. The wave model ignores racks; the
     * fair-share scheduler runs one shard per rack, places map tasks
     * rack-aware (off-rack launches pay its remote penalty), drains
     * cross-rack shuffle through per-rack uplinks, and takes racks as
     * the fault domain of rack power loss and partitions.
     */
    std::uint32_t racks = 1;
    std::uint32_t cores_per_node = 12;     ///< 2 sockets x 6 cores
    std::uint32_t map_slots = 24;          ///< per node (Section III-B)
    std::uint32_t reduce_slots = 12;
    double effective_ipc = 0.78;           ///< Figure 3 DA average
    double frequency_ghz = 2.4;
    std::uint64_t split_mb = 64;
    double task_overhead_s = 1.2;          ///< JVM reuse + scheduling
    double job_overhead_s = 18.0;          ///< setup/teardown per job
    double straggler_sigma = 0.12;
    os::DiskParams disk;
    os::NetworkParams network;
};

/** Empty string when the config is runnable, else a clear error. */
std::string validate(const ClusterConfig& cluster);
std::string validate(const JobSpec& job);

/** Phase breakdown of one simulated job. */
struct JobTimings
{
    double total_s = 0.0;
    double map_s = 0.0;
    double shuffle_s = 0.0;
    double reduce_s = 0.0;
    double overhead_s = 0.0;
    /** Per-slave disk write requests (spills + output + replication). */
    double disk_write_requests = 0.0;
    /** Figure 5 metric: write requests per second per slave. */
    double disk_writes_per_second = 0.0;
};

/** Expected straggler slack for a population of `tasks` parallel tasks. */
double straggler_factor(double sigma, double tasks);

/**
 * Fault-free single-job timing. run() is the task-wave model behind the
 * figures; analytic_run() is the continuous reference it is
 * regression-checked against.
 */
class ClusterSimulator
{
  public:
    /** Time one job on the given cluster (fatal on bad configs; use
        mapreduce::validate() first for recoverable checking). */
    JobTimings run(const JobSpec& job, const ClusterConfig& cluster) const;

    /** Closed-form fault-free reference model. */
    JobTimings analytic_run(const JobSpec& job,
                            const ClusterConfig& cluster) const;

    /** T(1 slave) / T(n slaves) for the same job. */
    double speedup(const JobSpec& job, const ClusterConfig& cluster,
                   std::uint32_t slaves) const;
};

}  // namespace dcb::mapreduce

#endif  // DCBENCH_MAPREDUCE_CLUSTER_H_
