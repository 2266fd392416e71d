#include "mapreduce/scheduler.h"

#include <algorithm>
#include <cmath>

namespace dcb::mapreduce {

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

TaskProfile
derive_task_profile(const JobSpec& job, const ClusterConfig& c)
{
    const double n = c.slaves;
    const double input_bytes = job.input_gb * kGiB;
    const double inter_bytes = input_bytes * job.map_output_ratio;
    const double output_bytes = input_bytes * job.output_ratio;
    const double total_ops = job.total_instructions_g * 1e9;
    const double node_ops_s =
        c.cores_per_node * c.effective_ipc * c.frequency_ghz * 1e9;
    const double disk_bw = c.disk.bandwidth_mb_s * kMiB;
    const double net_bw = c.network.bandwidth_mb_s * kMiB;

    // Same task population the analytic model uses (real-valued for the
    // rate math, integral for the event simulation).
    const double tasks = std::max(
        1.0, input_bytes / (static_cast<double>(c.split_mb) * kMiB));
    const auto map_count = static_cast<std::uint32_t>(std::ceil(tasks));
    const double map_slot_total = n * c.map_slots;
    const double waves = std::ceil(tasks / map_slot_total);

    // ---- Per-iteration rates, mirroring the analytic model. ------------
    const double map_ops = total_ops * (1.0 - job.reduce_fraction) /
                           job.iterations;
    const double map_work_one_node =
        std::max(map_ops / node_ops_s,
                 (input_bytes + inter_bytes) / disk_bw / job.iterations);
    const double sf_map = straggler_factor(
        c.straggler_sigma, std::min(tasks, map_slot_total));
    // Nominal per-task map time: spreads the one-node aggregate work
    // over the task population so that `tasks / (n * map_slots)` full
    // waves reproduce the analytic phase time exactly.
    const double map_task_s =
        map_work_one_node * c.map_slots / tasks * sf_map;

    const double cross_fraction = n > 1.0 ? (n - 1.0) / n : 0.0;
    const double shuffle_bytes = inter_bytes * cross_fraction /
                                 job.iterations;
    const double incast = 1.0 + 0.05 * (n - 1.0);
    const double shuffle_raw_s = shuffle_bytes / (n * net_bw / incast);

    const double reduce_ops = total_ops * job.reduce_fraction /
                              job.iterations;
    const double reduce_cpu_s = reduce_ops / (n * node_ops_s);
    const double replicas_remote = n > 1.0 ? 1.0 : 0.0;
    const double out_disk_s = output_bytes * (1.0 + replicas_remote) /
                              (n * disk_bw) / job.iterations;
    const double out_net_s = output_bytes * replicas_remote /
                             (n * net_bw) / job.iterations;
    const double reduce_tasks = std::min(n * c.reduce_slots, tasks);
    const double sf_reduce =
        straggler_factor(c.straggler_sigma, reduce_tasks);
    // Reducers span the whole phase: one wave of `reduce_tasks` tasks.
    const double reduce_task_s =
        std::max({reduce_cpu_s, out_disk_s, out_net_s}) * sf_reduce;
    const auto reduce_count =
        static_cast<std::uint32_t>(std::ceil(reduce_tasks));

    const double work_one_node =
        (map_work_one_node +
         std::max(reduce_ops / node_ops_s,
                  output_bytes / disk_bw / job.iterations));
    const double serial_s = job.serial_fraction * work_one_node;
    const double task_overhead = waves * c.task_overhead_s +
                                 c.job_overhead_s;
    const double par = 1.0 - job.serial_fraction;

    TaskProfile p;
    p.map_count = map_count;
    p.reduce_count = reduce_count;
    p.tasks = tasks;
    p.reduce_tasks = reduce_tasks;
    p.map_task_s = map_task_s;
    p.reduce_task_s = reduce_task_s;
    p.shuffle_raw_s = shuffle_raw_s;
    p.task_overhead_s = task_overhead;
    p.serial_s = serial_s;
    p.par = par;
    p.inter_bytes = inter_bytes;
    p.output_bytes = output_bytes;
    p.replicas_remote = replicas_remote;
    return p;
}

TaskCounts
expected_task_counts(const JobSpec& job, const ClusterConfig& cluster)
{
    // Mirrors the task-population math in derive_task_profile (and the
    // analytic model): this is the contract the chaos harness holds
    // completed jobs to.
    const double input_bytes = job.input_gb * kGiB;
    const double tasks = std::max(
        1.0,
        input_bytes / (static_cast<double>(cluster.split_mb) * kMiB));
    const double reduce_tasks = std::min(
        static_cast<double>(cluster.slaves) * cluster.reduce_slots,
        tasks);
    TaskCounts counts;
    counts.maps = static_cast<std::uint64_t>(std::ceil(tasks)) *
                  job.iterations;
    counts.reduces = static_cast<std::uint64_t>(std::ceil(reduce_tasks)) *
                     job.iterations;
    return counts;
}

}  // namespace dcb::mapreduce
