/**
 * @file
 * Tests for single-job cluster timing: the fault-free wave model behind
 * Figures 2 and 5, and one-submission fair-share runs under faults
 * (retries, speculation, map re-execution, degradation, correlated
 * faults and self-healing).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapreduce/fairshare.h"
#include "mapreduce/scheduler.h"
#include "workloads/data_analysis.h"
#include "workloads/registry.h"

namespace dcb::mapreduce {
namespace {

JobSpec
spec_of(const std::string& name)
{
    return workloads::make_workload(name)->info().cluster_spec;
}

ClusterConfig
eight_slaves()
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    return cluster;
}

/** One job alone on the cluster, with its fault log. */
struct OneJob
{
    MultiJobResult result;
    fault::FaultLog log;

    const JobOutcome& job() const { return result.jobs.front(); }
    double total_s() const { return job().finish_s - job().submit_s; }
};

OneJob
run_one(const JobSpec& spec, const ClusterConfig& cluster,
        const fault::FaultPlan& plan = {}, unsigned threads = 1,
        const FairShareConfig& config = {})
{
    fault::FaultInjector injector(plan);
    MultiJobOptions options;
    options.threads = threads;
    options.injector = &injector;
    JobSubmission sub;
    sub.spec = spec;
    OneJob out;
    out.result = MultiJobScheduler(config).run({sub}, cluster, options);
    out.log = injector.log();
    return out;
}

/** The job completed with exactly the analytic-model population. */
void
expect_exact(const OneJob& run, const JobSpec& spec,
             const ClusterConfig& cluster)
{
    ASSERT_TRUE(run.result.ok) << run.result.error;
    ASSERT_TRUE(run.job().completed) << run.job().error;
    const TaskCounts want = expected_task_counts(spec, cluster);
    EXPECT_EQ(run.job().maps_completed, want.maps);
    EXPECT_EQ(run.job().reduces_completed, want.reduces);
}

// ---------------------------------------------------------------------
// Fault-free wave model (Figures 2 and 5)
// ---------------------------------------------------------------------

/**
 * The wave model runs the integral task populations of the analytic
 * aggregates, so the two agree to within map-wave quantization
 * (ceil(tasks/slots) vs tasks/slots).
 */
TEST(Scheduler, ZeroFaultMatchesAnalyticModel)
{
    const ClusterSimulator sim;
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        for (const std::uint32_t slaves : {1u, 4u, 8u}) {
            ClusterConfig cluster;
            cluster.slaves = slaves;
            const JobTimings waves = sim.run(spec, cluster);
            const JobTimings ref = sim.analytic_run(spec, cluster);
            EXPECT_NEAR(waves.total_s, ref.total_s, 0.10 * ref.total_s)
                << name << " @" << slaves << " slaves";
        }
    }
}

TEST(Scheduler, ZeroFaultSpeedupsMatchAnalyticModel)
{
    const ClusterSimulator sim;
    ClusterConfig one;
    one.slaves = 1;
    const ClusterConfig eight = eight_slaves();
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        const double wave_speedup =
            sim.run(spec, one).total_s / sim.run(spec, eight).total_s;
        const double ref_speedup =
            sim.analytic_run(spec, one).total_s /
            sim.analytic_run(spec, eight).total_s;
        EXPECT_NEAR(wave_speedup, ref_speedup, 0.10 * ref_speedup)
            << name;
    }
}

/**
 * The fault-free timings are the baseline every figure and experiment
 * compares against, so they are pinned by value: an FNV-1a hash over
 * the timings of all eleven workloads at 1/4/8 slaves, with the
 * fault-free recovery counters the hash has always covered. If a change
 * moves this hash, it changed Figure 2 or 5 -- either fix the regression
 * or consciously re-pin with the figure CSVs regenerated.
 */
TEST(Scheduler, ZeroFaultGoldenHashIsPinned)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    };
    const auto mix_d = [&mix](double v) { mix(&v, sizeof v); };
    const auto mix_u = [&mix](std::uint64_t v) { mix(&v, sizeof v); };

    const ClusterSimulator sim;
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        for (const std::uint32_t slaves : {1u, 4u, 8u}) {
            ClusterConfig cluster;
            cluster.slaves = slaves;
            const JobTimings t = sim.run(spec, cluster);
            mix_u(1);  // completed
            mix_d(t.total_s);
            mix_d(t.map_s);
            mix_d(t.shuffle_s);
            mix_d(t.reduce_s);
            mix_d(t.overhead_s);
            mix_d(t.disk_write_requests);
            mix_d(t.disk_writes_per_second);
            // Fault free: every task needs one attempt; no failures,
            // backups, wasted backups, re-executed maps, lost or
            // blacklisted nodes; no wasted or recovery seconds.
            mix_u(1);
            for (int i = 0; i < 6; ++i)
                mix_u(0);
            mix_d(0.0);
            mix_d(0.0);
        }
    }
    EXPECT_EQ(h, 0x2b3a8c7bf3d1530fULL)
        << "fault-free cluster timings changed; if intentional, re-pin "
           "and regenerate the Figure 2 / 5 CSVs";
}

TEST(Scheduler, ExpectedTaskCountsMatchCompletedRuns)
{
    const ClusterConfig cluster = eight_slaves();
    for (const std::string& name : workloads::data_analysis_names()) {
        SCOPED_TRACE(name);
        const JobSpec spec = spec_of(name);
        const TaskCounts want = expected_task_counts(spec, cluster);
        EXPECT_GE(want.maps, 1u);
        EXPECT_GE(want.reduces, 1u);
        const OneJob run = run_one(spec, cluster);
        expect_exact(run, spec, cluster);
        EXPECT_EQ(run.job().task_failures, 0u);
        EXPECT_EQ(run.job().max_task_attempts, 1u);
        EXPECT_EQ(run.job().speculative_launched, 0u);
        EXPECT_EQ(run.job().wasted_task_s, 0.0);
    }
}

// ---------------------------------------------------------------------
// One job under faults
// ---------------------------------------------------------------------

TEST(Scheduler, TaskCrashesAreRetriedToCompletion)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.02;
    const FairShareConfig policy;
    const ClusterConfig cluster = eight_slaves();

    std::uint32_t total_failures = 0;
    for (const std::string& name : workloads::data_analysis_names()) {
        SCOPED_TRACE(name);
        const OneJob run = run_one(spec_of(name), cluster, plan);
        expect_exact(run, spec_of(name), cluster);
        EXPECT_LE(run.job().max_task_attempts, policy.max_attempts);
        total_failures += run.job().task_failures;
        EXPECT_GE(run.total_s(), run_one(spec_of(name), cluster).total_s());
    }
    // 2% of thousands of task attempts: crashes certainly happened.
    EXPECT_GT(total_failures, 0u);
}

/**
 * A single realization need not be monotone (a lucky crash pattern can
 * repack the last wave), but the suite mean across the eleven jobs is.
 */
TEST(Scheduler, MeanJobTimeMonotoneInCrashRate)
{
    const ClusterConfig cluster = eight_slaves();
    double prev = 0.0;
    for (const double rate : {0.0, 0.01, 0.05}) {
        fault::FaultPlan plan;
        plan.task_crash_prob = rate;
        double mean = 0.0;
        for (const std::string& name :
             workloads::data_analysis_names()) {
            const OneJob run = run_one(spec_of(name), cluster, plan);
            ASSERT_TRUE(run.job().completed) << name << ": "
                                             << run.job().error;
            mean += run.total_s();
        }
        mean /= workloads::data_analysis_names().size();
        EXPECT_GE(mean, prev) << "rate " << rate;
        prev = mean;
    }
}

TEST(Scheduler, NodeCrashMidJobIsRecovered)
{
    fault::FaultPlan plan;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = 2;
    const ClusterConfig cluster = eight_slaves();

    for (const std::string& name : workloads::data_analysis_names()) {
        SCOPED_TRACE(name);
        const OneJob run = run_one(spec_of(name), cluster, plan);
        expect_exact(run, spec_of(name), cluster);
        EXPECT_EQ(run.result.cluster.nodes_lost, 1u);
        EXPECT_EQ(run.log.count(fault::FaultKind::kNodeCrash), 1u);
        // Losing 1/8 of the slots can only slow the job down.
        EXPECT_GE(run.total_s(), run_one(spec_of(name), cluster).total_s());
    }
}

/** Backups launch for attempts stuck on slow nodes; the first copy
    home wins and the loser's runtime counts as waste. */
TEST(Scheduler, SlowNodesGetBackupsAndLosersAreWasted)
{
    fault::FaultPlan plan;
    plan.slow_node_fraction = 0.5;
    plan.slow_multiplier = 3.0;  // nodes 3, 5 and 6 under the default seed
    const JobSpec spec = spec_of("WordCount");
    const ClusterConfig cluster = eight_slaves();

    const OneJob run = run_one(spec, cluster, plan);
    expect_exact(run, spec, cluster);
    EXPECT_GT(run.job().speculative_launched, 0u);
    EXPECT_EQ(run.job().task_failures, 0u);
    EXPECT_GT(run.job().wasted_task_s, 0.0);
    EXPECT_EQ(run.result.dump(), run_one(spec, cluster, plan, 8).result.dump());
}

/** A node lost mid-map takes its finished map output with it: those
    maps run again, uncharged, and the population still comes out
    exact. */
TEST(Scheduler, NodeLostMidMapReexecutesItsMaps)
{
    fault::FaultPlan plan;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = 5;
    const JobSpec spec = spec_of("Sort");
    const ClusterConfig cluster = eight_slaves();

    const OneJob run = run_one(spec, cluster, plan);
    expect_exact(run, spec, cluster);
    EXPECT_GT(run.job().maps_reexecuted, 0u);
    EXPECT_EQ(run.job().task_failures, 0u);
    EXPECT_EQ(run.job().max_task_attempts, 1u);
    EXPECT_EQ(run.result.dump(), run_one(spec, cluster, plan, 8).result.dump());
}

/** A heavy crash+hang storm pushes a phase past its failure ratio: it
    degrades, and the job still completes exactly or fails with a
    diagnostic. */
TEST(Scheduler, HeavyCrashPlanDegradesAPhase)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.30;
    plan.task_hang_prob = 0.05;
    const JobSpec spec = spec_of("WordCount");
    const ClusterConfig cluster = eight_slaves();

    const OneJob run = run_one(spec, cluster, plan);
    ASSERT_TRUE(run.result.ok) << run.result.error;
    EXPECT_GT(run.job().degraded_phases, 0u);
    if (run.job().completed)
        expect_exact(run, spec, cluster);
    else
        EXPECT_FALSE(run.job().error.empty());
    EXPECT_EQ(run.result.dump(), run_one(spec, cluster, plan, 8).result.dump());
}

TEST(Scheduler, BlacklistNeverExceedsQuarterOfTheCluster)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.05;
    const ClusterConfig cluster = eight_slaves();
    for (const std::string& name : workloads::data_analysis_names()) {
        SCOPED_TRACE(name);
        const OneJob run = run_one(spec_of(name), cluster, plan);
        expect_exact(run, spec_of(name), cluster);
        EXPECT_LE(run.result.cluster.nodes_blacklisted, cluster.slaves / 4);
    }
}

/** Every attempt crashes: the task consumes exactly its whole budget
    and the job reports the exhaustion, not an abort or a hang. */
TEST(Scheduler, RetryBudgetExhaustsWithADiagnostic)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 1.0;
    const FairShareConfig policy;
    const OneJob run = run_one(spec_of("Grep"), eight_slaves(), plan);
    ASSERT_TRUE(run.result.ok) << run.result.error;
    EXPECT_FALSE(run.job().completed);
    EXPECT_NE(run.job().error.find("out of attempts"), std::string::npos)
        << run.job().error;
    EXPECT_EQ(run.job().max_task_attempts, policy.max_attempts);
    EXPECT_GE(run.job().task_failures, policy.max_attempts);
    EXPECT_FALSE(run.log.events().empty());
}

TEST(Scheduler, BadConfigsAreRecoverableErrors)
{
    const JobSpec spec = spec_of("Sort");

    ClusterConfig no_slaves;
    no_slaves.slaves = 0;
    const OneJob r1 = run_one(spec, no_slaves);
    EXPECT_FALSE(r1.result.ok);
    EXPECT_NE(r1.result.error.find("slaves"), std::string::npos)
        << r1.result.error;

    FairShareConfig no_attempts;
    no_attempts.max_attempts = 0;
    const OneJob r2 = run_one(spec, eight_slaves(), {}, 1, no_attempts);
    EXPECT_FALSE(r2.result.ok);
    EXPECT_NE(r2.result.error.find("max_attempts"), std::string::npos)
        << r2.result.error;

    JobSpec no_input = spec;
    no_input.input_gb = 0.0;
    const OneJob r3 = run_one(no_input, eight_slaves());
    EXPECT_FALSE(r3.result.ok);
    EXPECT_NE(r3.result.error.find("input_gb"), std::string::npos)
        << r3.result.error;
}

/** A fault aimed at a node or rack the cluster lacks is a config error
    naming the field, never wrapped onto some other target. */
TEST(Scheduler, FaultTargetsOutsideTheClusterAreErrors)
{
    const JobSpec spec = spec_of("Grep");
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;

    fault::FaultPlan node;
    node.node_crash_time_s = 30.0;
    node.crash_node = 9;
    fault::FaultPlan rack;
    rack.rack_crash_time_s = 30.0;
    rack.crash_rack = 2;
    fault::FaultPlan partition;
    partition.partition_time_s = 30.0;
    partition.partition_rack = 5;
    for (const auto& [plan, field] :
         {std::pair{node, "crash_node"}, std::pair{rack, "crash_rack"},
          std::pair{partition, "partition_rack"}}) {
        const OneJob run = run_one(spec, cluster, plan);
        EXPECT_FALSE(run.result.ok) << field;
        EXPECT_NE(run.result.error.find(field), std::string::npos)
            << run.result.error;
        EXPECT_TRUE(run.log.events().empty()) << field;
    }

    // The last node and rack are in range.
    node.crash_node = 7;
    EXPECT_TRUE(run_one(spec, cluster, node).result.ok);
    rack.crash_rack = 1;
    EXPECT_TRUE(run_one(spec, cluster, rack).result.ok);
}

// ---------------------------------------------------------------------
// Correlated faults and self-healing
// ---------------------------------------------------------------------

TEST(Scheduler, RackPowerLossKillsTheWholeRackAndRecovers)
{
    fault::FaultPlan plan;
    plan.rack_crash_time_s = 40.0;
    plan.crash_rack = 1;
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;  // racks of 4: losing one leaves 4 slaves
    const JobSpec spec = spec_of("Sort");
    const OneJob run = run_one(spec, cluster, plan);
    expect_exact(run, spec, cluster);
    EXPECT_EQ(run.result.cluster.racks_lost, 1u);
    EXPECT_EQ(run.result.cluster.nodes_lost, 4u);  // the rack's nodes
    EXPECT_EQ(run.log.count(fault::FaultKind::kRackPowerLoss), 1u);
}

TEST(Scheduler, PartitionHealsWithoutLosingNodes)
{
    fault::FaultPlan plan;
    plan.partition_time_s = 30.0;
    plan.partition_duration_s = 50.0;
    plan.partition_rack = 0;
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;
    const JobSpec spec = spec_of("K-means");
    const OneJob run = run_one(spec, cluster, plan);
    expect_exact(run, spec, cluster);
    EXPECT_EQ(run.result.cluster.partitions, 1u);
    EXPECT_EQ(run.result.cluster.partition_heals, 1u);
    EXPECT_EQ(run.log.count(fault::FaultKind::kNetPartition), 1u);
    EXPECT_EQ(run.log.count(fault::FaultKind::kPartitionHeal), 1u);
    // A partition is transient: no node is permanently lost.
    EXPECT_EQ(run.result.cluster.nodes_lost, 0u);
}

TEST(Scheduler, MasterCrashFailsOverFromCheckpointDeterministically)
{
    fault::FaultPlan plan;
    // The second map wave completes between the 60 s checkpoint and the
    // crash: the standby keeps the first wave and redoes the second.
    plan.master_crash_time_s = 80.0;
    const ClusterConfig cluster = eight_slaves();
    const JobSpec spec = spec_of("Naive Bayes");

    const OneJob a = run_one(spec, cluster, plan);
    expect_exact(a, spec, cluster);
    EXPECT_EQ(a.result.cluster.master_failovers, 1u);
    EXPECT_EQ(a.log.count(fault::FaultKind::kMasterCrash), 1u);
    EXPECT_EQ(a.log.count(fault::FaultKind::kMasterFailover), 1u);
    EXPECT_GT(a.result.cluster.checkpoints_taken, 0u);
    EXPECT_GT(a.result.cluster.tasks_lost_to_failover, 0u);

    // The standby resumes deterministically: a fresh injector replays
    // the identical run, on any thread count.
    EXPECT_EQ(a.result.dump(), run_one(spec, cluster, plan).result.dump());
    EXPECT_EQ(a.result.dump(), run_one(spec, cluster, plan, 8).result.dump());
}

TEST(Scheduler, RecoveryWindowsCascadeIntoDependentCrashes)
{
    fault::FaultPlan plan;
    plan.partition_time_s = 20.0;
    plan.partition_duration_s = 40.0;
    plan.partition_rack = 0;
    plan.cascade_prob = 1.0;  // every recovery window claims a victim
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;
    const OneJob run = run_one(spec_of("Grep"), cluster, plan);
    expect_exact(run, spec_of("Grep"), cluster);
    EXPECT_EQ(run.result.cluster.partition_heals, 1u);
    EXPECT_GE(run.result.cluster.cascades_triggered, 1u);
    EXPECT_GE(run.log.count(fault::FaultKind::kCascade), 1u);
    EXPECT_GE(run.result.cluster.nodes_lost, 1u);  // the cascade's victim
}

TEST(Scheduler, BlacklistCapHoldsUnderConcurrentNodeCrashes)
{
    // The Hadoop 1.x blacklist cap is a quarter of the cluster. Push
    // hard against it -- a crash storm driving blacklisting while a
    // node crash and a rack loss shrink the cluster under it -- and the
    // cap (measured against the full cluster size, as Hadoop does) must
    // hold exactly: at 8 slaves that is at most 2 ever blacklisted.
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.30;
    plan.node_crash_time_s = 25.0;
    plan.crash_node = 5;
    plan.rack_crash_time_s = 60.0;
    plan.crash_rack = 0;
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 4;  // racks of 2
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        plan.seed = 0xB1AC0000ULL + seed;
        const OneJob run = run_one(spec_of("WordCount"), cluster, plan);
        ASSERT_TRUE(run.result.ok) << run.result.error;
        const ClusterOutcome& c = run.result.cluster;
        EXPECT_LE(c.nodes_blacklisted,
                  cluster.slaves / 4 + c.nodes_unblacklisted);
        if (run.job().completed)
            expect_exact(run, spec_of("WordCount"), cluster);
        else
            EXPECT_FALSE(run.job().error.empty());
    }
}

TEST(Scheduler, SpeculationRacingTheWatchdogReplaysIdentically)
{
    // Slow nodes make attempts overrun into speculation territory;
    // hangs push some of the same tasks past the watchdog deadline. The
    // two recovery paths race for the same attempts, and the outcome --
    // whoever wins each race -- must replay bit-identically.
    fault::FaultPlan plan;
    plan.slow_node_fraction = 0.5;
    plan.slow_multiplier = 3.0;
    plan.task_hang_prob = 0.08;
    const ClusterConfig cluster = eight_slaves();
    const JobSpec spec = spec_of("SVM");

    const OneJob a = run_one(spec, cluster, plan);
    expect_exact(a, spec, cluster);
    EXPECT_GT(a.job().speculative_launched, 0u);
    EXPECT_GT(a.job().watchdog_kills, 0u);

    const OneJob b = run_one(spec, cluster, plan, 8);
    EXPECT_EQ(a.result.dump(), b.result.dump());
    EXPECT_EQ(a.log.summary(), b.log.summary());
}

}  // namespace
}  // namespace dcb::mapreduce
