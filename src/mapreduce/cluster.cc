#include "mapreduce/cluster.h"

#include <algorithm>
#include <cmath>

#include "mapreduce/scheduler.h"
#include "util/assert.h"

namespace dcb::mapreduce {

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

}  // namespace

double
straggler_factor(double sigma, double tasks)
{
    if (tasks <= 1.0)
        return 1.0;
    // Expected maximum of lognormal task times grows ~ sigma*sqrt(2 ln n).
    return std::exp(sigma * std::sqrt(2.0 * std::log(tasks)));
}

std::string
validate(const ClusterConfig& c)
{
    if (c.slaves < 1)
        return "ClusterConfig.slaves must be >= 1 (the cluster needs at "
               "least one slave)";
    if (c.racks < 1)
        return "ClusterConfig.racks must be >= 1 (every node lives in "
               "some rack)";
    if (c.racks > c.slaves)
        return "ClusterConfig.racks must be <= slaves (empty racks make "
               "correlated faults meaningless)";
    if (c.cores_per_node < 1)
        return "ClusterConfig.cores_per_node must be >= 1";
    if (c.map_slots < 1 || c.reduce_slots < 1)
        return "ClusterConfig.map_slots and reduce_slots must be >= 1 "
               "(zero slots can never run a task)";
    if (c.split_mb < 1)
        return "ClusterConfig.split_mb must be >= 1 (a zero-byte split "
               "yields infinitely many tasks)";
    if (c.effective_ipc <= 0.0 || c.frequency_ghz <= 0.0)
        return "ClusterConfig.effective_ipc and frequency_ghz must be "
               "positive (node compute capacity would be zero)";
    if (c.task_overhead_s < 0.0 || c.job_overhead_s < 0.0)
        return "ClusterConfig overheads must be >= 0";
    if (c.straggler_sigma < 0.0)
        return "ClusterConfig.straggler_sigma must be >= 0";
    if (c.disk.bandwidth_mb_s <= 0.0)
        return "ClusterConfig.disk.bandwidth_mb_s must be positive";
    if (c.disk.request_bytes == 0)
        return "ClusterConfig.disk.request_bytes must be nonzero";
    if (c.network.bandwidth_mb_s <= 0.0)
        return "ClusterConfig.network.bandwidth_mb_s must be positive";
    return "";
}

std::string
validate(const JobSpec& job)
{
    if (!(job.input_gb > 0.0))
        return "JobSpec.input_gb must be positive (no input, no job)";
    if (!(job.total_instructions_g > 0.0))
        return "JobSpec.total_instructions_g must be positive";
    if (job.map_output_ratio < 0.0 || job.output_ratio < 0.0)
        return "JobSpec byte ratios must be >= 0";
    if (job.reduce_fraction < 0.0 || job.reduce_fraction > 1.0)
        return "JobSpec.reduce_fraction must be in [0, 1]";
    if (job.iterations < 1)
        return "JobSpec.iterations must be >= 1 (jobs run at least once)";
    if (job.serial_fraction < 0.0 || job.serial_fraction >= 1.0)
        return "JobSpec.serial_fraction must be in [0, 1)";
    return "";
}

JobTimings
ClusterSimulator::analytic_run(const JobSpec& job,
                               const ClusterConfig& c) const
{
    const std::string err_cluster = validate(c);
    DCB_CONFIG_CHECK(err_cluster.empty(), err_cluster.c_str());
    const std::string err_job = validate(job);
    DCB_CONFIG_CHECK(err_job.empty(), err_job.c_str());

    const double n = c.slaves;
    const double input_bytes = job.input_gb * kGiB;
    const double inter_bytes = input_bytes * job.map_output_ratio;
    const double output_bytes = input_bytes * job.output_ratio;
    const double total_ops = job.total_instructions_g * 1e9;

    // Node compute capacity: all cores at the workload-class IPC.
    const double node_ops_s =
        c.cores_per_node * c.effective_ipc * c.frequency_ghz * 1e9;
    const double disk_bw = c.disk.bandwidth_mb_s * 1024.0 * 1024.0;
    const double net_bw = c.network.bandwidth_mb_s * 1024.0 * 1024.0;

    const double tasks = std::max(
        1.0, input_bytes / (static_cast<double>(c.split_mb) * 1024.0 *
                            1024.0));
    const double waves = std::ceil(tasks / (n * c.map_slots));

    JobTimings t;

    // ---- Map phase: CPU overlapped with input read + spill write. ------
    const double map_ops = total_ops * (1.0 - job.reduce_fraction) /
                           job.iterations;
    const double map_cpu_s = map_ops / (n * node_ops_s);
    const double map_disk_s =
        (input_bytes + inter_bytes) / (n * disk_bw) / job.iterations;
    const double concurrent_tasks = std::min(tasks, n * c.map_slots);
    t.map_s = std::max(map_cpu_s, map_disk_s) *
              straggler_factor(c.straggler_sigma, concurrent_tasks);

    // ---- Shuffle: cross-node fraction of intermediate data over 1 GbE.
    const double cross_fraction = n > 1.0 ? (n - 1.0) / n : 0.0;
    const double shuffle_bytes = inter_bytes * cross_fraction /
                                 job.iterations;
    // Receiver-link bound with mild incast degradation.
    const double incast = 1.0 + 0.05 * (n - 1.0);
    const double shuffle_s = shuffle_bytes / (n * net_bw / incast);
    // Hadoop overlaps roughly half of the shuffle with the map phase.
    t.shuffle_s = std::max(0.0, shuffle_s - 0.5 * t.map_s);

    // ---- Reduce phase: CPU + replicated output write. ------------------
    const double reduce_ops = total_ops * job.reduce_fraction /
                              job.iterations;
    const double reduce_cpu_s = reduce_ops / (n * node_ops_s);
    const double replicas_remote = n > 1.0 ? 1.0 : 0.0;  // dfs pipeline
    const double out_disk_s = output_bytes * (1.0 + replicas_remote) /
                              (n * disk_bw) / job.iterations;
    const double out_net_s = output_bytes * replicas_remote /
                             (n * net_bw) / job.iterations;
    const double reduce_tasks = std::min<double>(n * c.reduce_slots, tasks);
    t.reduce_s = std::max({reduce_cpu_s, out_disk_s, out_net_s}) *
                 straggler_factor(c.straggler_sigma, reduce_tasks);

    // ---- Fixed overheads. ------------------------------------------------
    const double task_overhead =
        waves * c.task_overhead_s + c.job_overhead_s;
    t.overhead_s = task_overhead;

    // Amdahl residue: the serial part is sized from the one-node
    // parallel-phase work (independent of n).
    const double work_one_node =
        (std::max(map_ops / node_ops_s,
                  (input_bytes + inter_bytes) / disk_bw) +
         std::max(reduce_ops / node_ops_s,
                  output_bytes / disk_bw)) /
        job.iterations;
    const double serial_s = job.serial_fraction * work_one_node;

    const double per_iteration = (1.0 - job.serial_fraction) *
                                     (t.map_s + t.shuffle_s + t.reduce_s) +
                                 serial_s + t.overhead_s;
    t.map_s *= job.iterations * (1.0 - job.serial_fraction);
    t.shuffle_s *= job.iterations * (1.0 - job.serial_fraction);
    t.reduce_s *= job.iterations * (1.0 - job.serial_fraction);
    t.overhead_s = (t.overhead_s + serial_s) * job.iterations;
    t.total_s = per_iteration * job.iterations;

    // ---- Figure 5: per-slave disk write requests per second. ------------
    const double write_bytes_per_node =
        (inter_bytes +  // spill writes
         inter_bytes +  // reduce-side merge writes
         output_bytes * (1.0 + replicas_remote)) / n;
    t.disk_write_requests = write_bytes_per_node /
                            static_cast<double>(c.disk.request_bytes);
    t.disk_writes_per_second = t.total_s > 0.0
        ? t.disk_write_requests / t.total_s
        : 0.0;
    return t;
}

JobTimings
ClusterSimulator::run(const JobSpec& job, const ClusterConfig& c) const
{
    const std::string err_cluster = validate(c);
    DCB_CONFIG_CHECK(err_cluster.empty(), err_cluster.c_str());
    const std::string err_job = validate(job);
    DCB_CONFIG_CHECK(err_job.empty(), err_job.c_str());

    const TaskProfile p = derive_task_profile(job, c);
    const double slots = static_cast<double>(c.slaves) * c.map_slots;
    const auto waves = static_cast<std::uint32_t>(
        std::ceil(static_cast<double>(p.map_count) / slots));

    // Every task starts on a free slot the moment one opens, so each map
    // wave ends one map_task_s after the last; the reducers fit in one
    // wave. The clock runs on across iterations and each wave is added
    // to it in turn, so phase lengths round exactly as a per-event
    // simulation of the same waves would.
    JobTimings t;
    double clock = 0.0;
    for (std::uint32_t it = 0; it < job.iterations; ++it) {
        double end = clock;
        for (std::uint32_t w = 0; w < waves; ++w)
            end += p.map_task_s;
        const double map_i = end - clock;
        clock = end;
        const double shuffle_i =
            std::max(0.0, p.shuffle_raw_s - 0.5 * map_i);
        clock += shuffle_i;
        end = clock + p.reduce_task_s;
        const double reduce_i = end - clock;
        clock = end;

        t.map_s += p.par * map_i;
        t.shuffle_s += p.par * shuffle_i;
        t.reduce_s += p.par * reduce_i;
        t.overhead_s += p.task_overhead_s + p.serial_s;
        t.total_s += p.par * (map_i + shuffle_i + reduce_i) + p.serial_s +
                     p.task_overhead_s;
    }

    // Figure 5: spill writes, reduce-side merge writes, replicated output.
    const double write_bytes_per_node =
        (p.inter_bytes + p.inter_bytes +
         p.output_bytes * (1.0 + p.replicas_remote)) / c.slaves;
    t.disk_write_requests = write_bytes_per_node /
                            static_cast<double>(c.disk.request_bytes);
    t.disk_writes_per_second =
        t.total_s > 0.0 ? t.disk_write_requests / t.total_s : 0.0;
    return t;
}

double
ClusterSimulator::speedup(const JobSpec& job, const ClusterConfig& cluster,
                          std::uint32_t slaves) const
{
    ClusterConfig one = cluster;
    one.slaves = 1;
    ClusterConfig many = cluster;
    many.slaves = slaves;
    const double t1 = run(job, one).total_s;
    const double tn = run(job, many).total_s;
    DCB_EXPECTS(tn > 0.0);
    return t1 / tn;
}

}  // namespace dcb::mapreduce
