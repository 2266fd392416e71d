/**
 * @file
 * The cluster workloads: a 512-node / 32-rack fleet of 16 fair-share jobs
 * through mapreduce::MultiJobScheduler::run on the sharded engine, either
 * fault-free (cluster_fleet) or under a correlated fault plan with a
 * metrics registry and a cluster trace armed (cluster_chaos_obs).
 */

#include <cstdio>

#include "checks.h"
#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace dcb;

constexpr std::uint32_t kNodes = 512;
constexpr std::uint32_t kRacks = 32;
constexpr std::uint32_t kJobs = 16;
/**
 * The timed loop drives the sharded engine on one thread (every shard and
 * the coordinator on the calling thread, same epochs and barriers). At 4
 * threads one descheduled worker stalls every epoch barrier, and on a
 * shared 4-core host the run-to-run spread of the rate roughly doubled
 * (0.19-0.22 against 0.12 over the same seeds); at 2 threads it rose
 * from 0.11 to 0.16 over five interleaved seeds. The N-thread engine runs
 * untimed for the bit-identity check and, traced, as the speedup probe.
 * So work the coordinator no longer does moves sim_rate, but a gain from
 * running it in parallel shows only in mapreduce.sharded_speedup.
 */
constexpr unsigned kTimedThreads = 1;
/** Sharded probe runs and unarmed/armed pairs of a traced run. */
constexpr int kProbeRuns = 5;

/**
 * The fleet: the shape of bench_cluster's (input sizes in five steps,
 * shuffle-heavy every third job, iterative every fourth, staggered
 * arrivals, weights 1-3), with sizes and arrival times drawn from `seed`.
 */
std::vector<mapreduce::JobSubmission>
make_fleet(std::uint64_t seed)
{
    util::Rng rng(seed ^ 0xF1EE7ULL);
    std::vector<mapreduce::JobSubmission> subs(kJobs);
    for (std::uint32_t j = 0; j < kJobs; ++j) {
        mapreduce::JobSubmission& sub = subs[j];
        sub.spec.name = "fleet";
        sub.spec.input_gb =
            (192.0 + 48.0 * (j % 5)) * (0.9 + 0.2 * rng.next_double());
        sub.spec.total_instructions_g = 30.0 * sub.spec.input_gb;
        sub.spec.map_output_ratio = (j % 3 == 0) ? 0.8 : 0.2;
        if (j % 4 == 3)
            sub.spec.iterations = 2;
        sub.submit_time_s = 4.0 * j + 2.0 * rng.next_double();
        sub.weight = 1.0 + (j % 3);
    }
    return subs;
}

/**
 * Fault plan: fault-free for the fleet (its seed still drives the
 * engine's per-shard jitter streams), bench_cluster's correlated plan
 * for chaos.
 */
fault::FaultPlan
make_plan(std::uint64_t seed, bool chaos)
{
    fault::FaultPlan plan;
    plan.seed = util::Rng(seed ^ 0xC1A05C41EULL).next_u64();
    if (!chaos)
        return plan;
    plan.task_crash_prob = 0.01;
    plan.task_hang_prob = 0.004;
    plan.slow_node_fraction = 0.08;
    plan.slow_multiplier = 1.7;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = kNodes / 3;
    plan.rack_crash_time_s = 120.0;
    plan.crash_rack = kRacks / 2;
    plan.partition_time_s = 80.0;
    plan.partition_duration_s = 45.0;
    plan.partition_rack = kRacks / 4;
    plan.master_crash_time_s = 100.0;
    plan.cascade_prob = 0.4;
    return plan;
}

/** One scheduler run with its own injector and (when armed) sinks. */
struct Run
{
    double wall_s = 0.0;
    mapreduce::MultiJobResult result;
    std::size_t fault_log_entries = 0;
    std::size_t trace_events = 0;
    std::size_t metrics_series = 0;
    std::uint64_t snapshots = 0;

    double busy_s() const
    {
        double s = 0.0;
        for (const mapreduce::ShardStats& st : result.shards)
            s += st.busy_seconds;
        return s;
    }
};

class ClusterWorkload final : public Workload
{
  public:
    ClusterWorkload(const Options& options, bool chaos)
        : options_(options), chaos_(chaos), fleet_(make_fleet(options.seed)),
          plan_(make_plan(options.seed, chaos)), scheduler_(fair_config())
    {
        cluster_.slaves = kNodes;
        cluster_.racks = kRacks;
    }

    void measure(Report& out, obs::TraceWriter* trace) override;

    std::string inputs() const override
    {
        return "\"timed_engine_threads\": " + std::to_string(kTimedThreads) +
               ", \"probe_engine_threads\": " +
               std::to_string(worker_threads()) +
               ", \"nodes\": " + std::to_string(kNodes) +
               ", \"racks\": " + std::to_string(kRacks) +
               ", \"jobs\": " + std::to_string(fleet_.size()) +
               ", \"faults\": " + (chaos_ ? "true" : "false");
    }

  private:
    static mapreduce::FairShareConfig fair_config()
    {
        mapreduce::FairShareConfig fair;
        fair.attempt_jitter_sigma = 0.25;
        return fair;
    }

    Run run(unsigned threads, bool armed) const;

    Options options_;
    bool chaos_;
    std::vector<mapreduce::JobSubmission> fleet_;
    fault::FaultPlan plan_;
    mapreduce::ClusterConfig cluster_;
    mapreduce::MultiJobScheduler scheduler_;
};

Run
ClusterWorkload::run(unsigned threads, bool armed) const
{
    Run r;
    fault::FaultInjector injector(plan_);
    obs::MetricsRegistry registry;
    obs::TraceWriter cluster_trace;
    mapreduce::MultiJobOptions options;
    options.threads = threads;
    options.injector = &injector;
    if (armed) {
        options.metrics = &registry;
        options.trace = &cluster_trace;
    }
    const auto start = Clock::now();
    r.result = scheduler_.run(fleet_, cluster_, options);
    r.wall_s = seconds_since(start);
    r.fault_log_entries = injector.log().events().size();
    r.trace_events = cluster_trace.size();
    r.metrics_series = registry.series_count();
    r.snapshots = registry.snapshot_count();
    return r;
}

/** Summed per-shard steals of one run. */
double
steals_of(const Run& r)
{
    double s = 0.0;
    for (const mapreduce::ShardStats& st : r.result.shards)
        s += static_cast<double>(st.steals);
    return s;
}

void
ClusterWorkload::measure(Report& out, obs::TraceWriter* trace)
{
    // --- Timed loop: whole fleet runs until the time is up. The chaos
    // workload runs armed; every dump must match the first.
    Run first;
    std::string first_dump;
    bool repeat_identical = true;
    std::vector<double> wall_s;
    std::vector<double> busy_s;
    std::vector<double> rate_per_thread;
    std::vector<double> rss_mb;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;
    timed_loop(options_.seconds, 5, [&] {
        const bool traced = trace != nullptr && wall_s.size() % 2 == 0;
        const double start_us = traced ? trace->now_us() : 0.0;
        reset_peak_rss();
        Run r = run(kTimedThreads, chaos_);
        rss_mb.push_back(peak_rss_mb());
        if (traced)
            span(trace, "MultiJobScheduler::run", "mapreduce", start_us);
        (traced ? traced_s : untraced_s).push_back(r.wall_s);
        wall_s.push_back(r.wall_s);
        busy_s.push_back(r.busy_s());
        rate_per_thread.push_back(static_cast<double>(r.result.events) /
                                  r.busy_s() / 1e3);
        if (wall_s.size() == 1) {
            first_dump = r.result.dump();
            first = std::move(r);
        } else {
            repeat_identical = repeat_identical &&
                               r.result.dump() == first_dump;
        }
        return wall_s.back();
    });
    const double events = static_cast<double>(first.result.events);
    const double serial_s = median(wall_s);

    // --- Untimed output checks. Every job is an operation.
    const std::vector<std::string> failures =
        job_failures(first.result, fleet_, cluster_);
    out.attempted += wall_s.size() * fleet_.size();
    out.failed += wall_s.size() * failures.size();
    std::string detail;
    for (const std::string& f : failures)
        detail += (detail.empty() ? "" : "; ") + f;
    out.check("jobs complete with expected_task_counts", failures.empty(),
              detail);
    out.check("every run's dump identical to the first", repeat_identical);
    std::vector<double> sharded_s;
    std::vector<double> steals;
    bool sharded_identical = true;
    for (int i = 0; i < (trace != nullptr ? kProbeRuns : 1); ++i) {
        const double start_us = trace != nullptr ? trace->now_us() : 0.0;
        const Run r = run(worker_threads(), chaos_);
        span(trace, "sharded run", "mapreduce", start_us);
        sharded_identical = sharded_identical && r.result.dump() == first_dump;
        sharded_s.push_back(r.wall_s);
        steals.push_back(steals_of(r));
    }
    out.check("sharded dump identical to the 1-thread dump",
              sharded_identical);
    // Adjacent unarmed/armed pairs, so host drift hits both sides alike.
    std::vector<double> unarmed_s;
    std::vector<double> armed_s;
    bool unarmed_identical = true;
    for (int i = 0; chaos_ && i < (trace != nullptr ? kProbeRuns : 1); ++i) {
        const double start_us = trace != nullptr ? trace->now_us() : 0.0;
        const Run unarmed = run(kTimedThreads, false);
        span(trace, "unarmed run", "obs", start_us);
        unarmed_identical =
            unarmed_identical && unarmed.result.dump() == first_dump;
        unarmed_s.push_back(unarmed.wall_s);
        if (trace != nullptr)
            armed_s.push_back(run(kTimedThreads, true).wall_s);
    }
    if (chaos_)
        out.check("unarmed dump identical to armed", unarmed_identical);

    // --- End-to-end metrics.
    out.metric("sim_rate", events / serial_s / 1e3, "k/s");
    out.metric("sim_rate_per_thread", median(rate_per_thread), "k/s");
    out.metric("peak_rss_mb", median(rss_mb), "MB");
    if (trace == nullptr)
        return;

    // --- Per-layer metrics.
    const mapreduce::MultiJobResult& res = first.result;
    double messages = 0.0;
    for (const mapreduce::ShardStats& st : res.shards)
        messages += static_cast<double>(st.messages_sent);
    double wasted = 0.0;
    for (const mapreduce::JobOutcome& job : res.jobs)
        wasted += job.wasted_task_s;
    const double coordinator_s = serial_s - median(busy_s);
    out.metric("mapreduce.events", events, "count");
    out.metric("mapreduce.epochs", static_cast<double>(res.epochs), "count");
    out.metric("mapreduce.messages", messages, "count");
    out.metric("mapreduce.shard_busy_s", median(busy_s), "s");
    out.metric("mapreduce.steals", median(steals), "count");
    out.metric("mapreduce.serial_ref_s", serial_s, "s");
    out.metric("mapreduce.coordinator_s", coordinator_s, "s");
    out.metric("mapreduce.amdahl_bound",
               serial_s / (coordinator_s +
                           (serial_s - coordinator_s) / worker_threads()),
               "ratio");
    out.metric("mapreduce.sharded_speedup", serial_s / median(sharded_s),
               "ratio");
    out.metric("mapreduce.wasted_frac",
               res.cluster.slot_busy_s > 0.0 ? wasted / res.cluster.slot_busy_s
                                             : 0.0,
               "frac");
    out.metric("fault.log_entries",
               static_cast<double>(first.fault_log_entries), "count");
    out.metric("obs.sketch_tuples",
               static_cast<double>(res.attempt_sketch.tuples().size()),
               "count");
    out.metric("bench.trace_overhead_s",
               median(traced_s) - median(untraced_s), "s");
    out.unused(kSuiteLayerMetrics);
    out.unused(kSampleLayerMetrics);
    if (!chaos_) {
        out.unused(kObsLayerMetrics);
        return;
    }
    out.metric("obs.trace_events", static_cast<double>(first.trace_events),
               "count");
    out.metric("obs.metrics_series",
               static_cast<double>(first.metrics_series), "count");
    out.metric("obs.snapshots", static_cast<double>(first.snapshots),
               "count");
    out.metric("obs.armed_overhead_frac",
               median(armed_s) / median(unarmed_s) - 1.0, "frac");
}

}  // namespace

std::unique_ptr<Workload>
make_cluster_workload(const Options& options, bool chaos)
{
    return std::make_unique<ClusterWorkload>(options, chaos);
}

}  // namespace perfbench
