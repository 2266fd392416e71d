/**
 * @file
 * Ablation: fault-rate sweep over the Figure 2 cluster runs.
 *
 * The paper's cluster is a real Hadoop 1.0.2 deployment, so its job
 * times already absorb retried attempts and speculative copies. This
 * sweep makes that robustness cost visible: the eleven data-analysis
 * jobs run on eight slaves under increasing task-crash rates, plus one
 * scenario that kills a slave mid-job. Each job is a one-submission run
 * of the fair-share scheduler, and its time is the finish time of its
 * last task. Every job must still complete (that is the point of the
 * Hadoop recovery machinery) and mean job time must rise monotonically
 * with the fault rate.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"

#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "util/assert.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "workloads/registry.h"

namespace {

struct SweepPoint
{
    double mean_total_s = 0.0;
    std::uint32_t task_failures = 0;
    std::uint32_t max_attempts_seen = 1;
    std::uint32_t completed = 0;
    std::uint32_t jobs = 0;
    std::string first_error;
};

SweepPoint
run_point(const dcb::fault::FaultPlan& plan, dcb::util::CsvWriter* csv,
          double rate_label)
{
    using namespace dcb;
    const mapreduce::MultiJobScheduler scheduler;
    mapreduce::ClusterConfig cluster;
    cluster.slaves = 8;

    SweepPoint point;
    const std::vector<std::string> names =
        workloads::names_in_category(workloads::Category::kDataAnalysis);
    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string& name = names[w];
        // Every run is job 0 of its own submission list and task fates
        // hash (seed, job, task, attempt), so each workload draws from
        // its own seed or all eleven would replay the same crashes.
        fault::FaultPlan job_plan = plan;
        job_plan.seed = util::mix64(plan.seed ^ (0xAB1A7EULL + w));
        fault::FaultInjector injector(job_plan);
        mapreduce::JobSubmission sub;
        sub.spec = workloads::make_workload(name)->info().cluster_spec;
        sub.name = name;
        mapreduce::MultiJobOptions options;
        options.injector = &injector;
        const mapreduce::MultiJobResult result =
            scheduler.run({sub}, cluster, options);
        DCB_CONFIG_CHECK(result.ok, result.error.c_str());
        const mapreduce::JobOutcome& job = result.jobs.front();
        const double total_s = job.finish_s - job.submit_s;
        ++point.jobs;
        if (job.completed)
            ++point.completed;
        else if (point.first_error.empty())
            point.first_error = name + ": " + job.error;
        point.mean_total_s += total_s;
        point.task_failures += job.task_failures;
        point.max_attempts_seen =
            std::max(point.max_attempts_seen, job.max_task_attempts);
        if (csv) {
            csv->add_row({name, util::format_double(rate_label, 4),
                          util::format_double(total_s, 2),
                          std::to_string(job.max_task_attempts),
                          std::to_string(job.task_failures),
                          job.completed ? "1" : "0"});
        }
    }
    point.mean_total_s /= point.jobs;
    return point;
}

}  // namespace

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 0);
    using namespace dcb;
    using util::format_double;

    const mapreduce::FairShareConfig policy;  // Hadoop 1.x defaults
    const double rates[] = {0.0, 0.005, 0.01, 0.02, 0.05};

    util::Table table({"task-crash rate", "mean job s", "task failures",
                       "worst attempts", "completed"});
    table.set_title("ablation: task-crash rate sweep (11 DA jobs, "
                    "8 slaves)");
    util::CsvWriter csv({"workload", "rate", "total_s", "max_attempts",
                         "task_failures", "completed"});

    bool all_completed = true;
    bool monotone = true;
    bool attempts_bounded = true;
    double prev_mean = 0.0;
    for (const double rate : rates) {
        fault::FaultPlan plan;
        plan.task_crash_prob = rate;
        const SweepPoint p = run_point(plan, &csv, rate);
        table.add_row({format_double(100 * rate, 1) + "%",
                       format_double(p.mean_total_s, 1),
                       std::to_string(p.task_failures),
                       std::to_string(p.max_attempts_seen),
                       std::to_string(p.completed) + "/" +
                           std::to_string(p.jobs)});
        all_completed = all_completed && p.completed == p.jobs;
        monotone = monotone && p.mean_total_s >= prev_mean;
        attempts_bounded =
            attempts_bounded && p.max_attempts_seen <= policy.max_attempts;
        prev_mean = p.mean_total_s;
    }
    table.print();

    // One slave dies a minute into the task timeline while 2% of task
    // attempts also crash -- the "unplugged a rack machine" experiment.
    fault::FaultPlan crash_plan;
    crash_plan.task_crash_prob = 0.02;
    crash_plan.node_crash_time_s = 60.0;
    crash_plan.crash_node = 3;
    const SweepPoint crash = run_point(crash_plan, &csv, -1.0);
    csv.write_file("ablate_faults.csv");
    std::printf("\nnode 3 dies at t=60s under 2%% task crashes: "
                "%u/%u jobs complete, mean %.1fs (worst attempts %u)\n\n",
                crash.completed, crash.jobs, crash.mean_total_s,
                crash.max_attempts_seen);

    // Past the envelope the bounded retry is supposed to cover, jobs
    // must give up with a diagnostic, not hang or abort: at a 10%
    // per-attempt crash rate some task exhausts its four attempts with
    // near-certainty over thousands of tasks.
    fault::FaultPlan brutal_plan;
    brutal_plan.task_crash_prob = 0.10;
    const SweepPoint brutal = run_point(brutal_plan, nullptr, 0.10);
    std::printf("beyond the envelope, 10%% task crashes: %u/%u jobs "
                "complete; first failure: %s\n\n",
                brutal.completed, brutal.jobs,
                brutal.first_error.c_str());

    core::shape_check("every job completes at every swept rate (<=5%)",
                      all_completed);
    core::shape_check("mean job time rises monotonically with the rate",
                      monotone);
    core::shape_check("no task needs more than max_attempts tries",
                      attempts_bounded &&
                          crash.max_attempts_seen <= policy.max_attempts &&
                          brutal.max_attempts_seen <= policy.max_attempts);
    core::shape_check("all jobs survive a mid-job node crash",
                      crash.completed == crash.jobs);
    core::shape_check("a 10% crash rate exhausts retries with a clear "
                      "error, not a hang",
                      brutal.completed < brutal.jobs &&
                          !brutal.first_error.empty());
    return 0;
}
