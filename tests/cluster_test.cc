/** @file Tests for the cluster-level speedup simulator (Figure 2). */

#include <gtest/gtest.h>

#include "mapreduce/cluster.h"
#include "workloads/registry.h"

namespace dcb::mapreduce {
namespace {

JobSpec
cpu_bound_job()
{
    JobSpec job;
    job.name = "cpu-bound";
    job.input_gb = 147;
    job.total_instructions_g = 68'131;  // Naive Bayes scale
    job.map_output_ratio = 0.1;
    job.output_ratio = 0.01;
    job.reduce_fraction = 0.15;
    return job;
}

JobSpec
io_bound_job()
{
    JobSpec job;
    job.name = "io-bound";
    job.input_gb = 150;
    job.total_instructions_g = 1'499;  // Grep scale
    job.map_output_ratio = 0.002;
    job.output_ratio = 0.002;
    job.reduce_fraction = 0.05;
    return job;
}

TEST(Cluster, SpeedupIsOneForOneSlave)
{
    ClusterSimulator sim;
    EXPECT_NEAR(sim.speedup(cpu_bound_job(), ClusterConfig{}, 1), 1.0,
                1e-9);
}

TEST(Cluster, SpeedupMonotoneInSlaves)
{
    ClusterSimulator sim;
    const JobSpec job = cpu_bound_job();
    double prev = 0.0;
    for (std::uint32_t s : {1u, 2u, 4u, 8u, 16u}) {
        const double sp = sim.speedup(job, ClusterConfig{}, s);
        EXPECT_GT(sp, prev);
        prev = sp;
    }
}

TEST(Cluster, SpeedupBoundedBySlaves)
{
    ClusterSimulator sim;
    for (std::uint32_t s : {2u, 4u, 8u}) {
        EXPECT_LE(sim.speedup(cpu_bound_job(), ClusterConfig{}, s),
                  static_cast<double>(s) + 1e-9);
        EXPECT_LE(sim.speedup(io_bound_job(), ClusterConfig{}, s),
                  static_cast<double>(s) + 1e-9);
    }
}

TEST(Cluster, ComputeBoundJobsScaleBetterThanIoBound)
{
    // The paper's Figure 2 spread: compute-heavy analytics (Bayes,
    // Fuzzy K-means) approach linear; I/O-light jobs (Grep) flatten.
    ClusterSimulator sim;
    const double cpu = sim.speedup(cpu_bound_job(), ClusterConfig{}, 8);
    const double io = sim.speedup(io_bound_job(), ClusterConfig{}, 8);
    EXPECT_GT(cpu, io);
}

TEST(Cluster, PhaseTimesArePositiveAndSumBelowTotal)
{
    ClusterSimulator sim;
    ClusterConfig cluster;
    cluster.slaves = 4;
    const JobTimings t = sim.run(cpu_bound_job(), cluster);
    EXPECT_GT(t.total_s, 0.0);
    EXPECT_GT(t.map_s, 0.0);
    EXPECT_GE(t.shuffle_s, 0.0);
    EXPECT_GT(t.reduce_s, 0.0);
    EXPECT_GT(t.overhead_s, 0.0);
    EXPECT_NEAR(t.map_s + t.shuffle_s + t.reduce_s + t.overhead_s,
                t.total_s, t.total_s * 0.01);
}

TEST(Cluster, DiskWriteRateReflectsDataMovement)
{
    ClusterSimulator sim;
    ClusterConfig cluster;
    cluster.slaves = 4;
    JobSpec shuffle_heavy = cpu_bound_job();
    shuffle_heavy.map_output_ratio = 1.0;
    shuffle_heavy.output_ratio = 1.0;
    shuffle_heavy.total_instructions_g = 4578;  // Sort
    const JobTimings heavy = sim.run(shuffle_heavy, cluster);
    const JobTimings light = sim.run(io_bound_job(), cluster);
    EXPECT_GT(heavy.disk_writes_per_second,
              light.disk_writes_per_second * 3);
}

TEST(Cluster, EightSlaveSpeedupsSpanThePaperRange)
{
    // Figure 2: all eleven workloads land in roughly [3.3, 8.2] with a
    // visible spread between the extremes.
    ClusterSimulator sim;
    ClusterConfig cluster;
    double lo = 100.0;
    double hi = 0.0;
    for (const auto& name :
         workloads::names_in_category(workloads::Category::kDataAnalysis)) {
        const auto w = workloads::make_workload(name);
        const double sp = sim.speedup(w->info().cluster_spec, cluster, 8);
        lo = std::min(lo, sp);
        hi = std::max(hi, sp);
        EXPECT_GT(sp, 2.0) << name;
        EXPECT_LE(sp, 8.0 + 1e-9) << name;
    }
    EXPECT_GT(hi - lo, 1.5) << "speedup spread should be visible";
}

TEST(Cluster, MoreIterationsPayMoreOverhead)
{
    ClusterSimulator sim;
    ClusterConfig cluster;
    cluster.slaves = 8;
    JobSpec once = cpu_bound_job();
    JobSpec five = once;
    five.iterations = 5;
    const JobTimings a = sim.run(once, cluster);
    const JobTimings b = sim.run(five, cluster);
    // Per-iteration fixed costs (job setup, task waves) are paid five
    // times; the Amdahl serial residue is split across iterations, so
    // the total overhead grows several-fold but less than 5x.
    EXPECT_GT(b.overhead_s, a.overhead_s * 1.5);
    EXPECT_LE(b.overhead_s, a.overhead_s * 5 + 1e-9);
    // Same total compute, more fixed cost: never faster.
    EXPECT_GE(b.total_s, a.total_s);
}

TEST(Cluster, InvalidConfigRejected)
{
    ClusterSimulator sim;
    ClusterConfig cluster;
    cluster.slaves = 3;
    const JobTimings t = sim.run(cpu_bound_job(), cluster);
    EXPECT_GT(t.total_s, 0.0);  // odd slave counts are fine
}

}  // namespace
}  // namespace dcb::mapreduce
