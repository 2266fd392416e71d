#ifndef DCBENCH_MAPREDUCE_FAIRSHARE_H_
#define DCBENCH_MAPREDUCE_FAIRSHARE_H_

/**
 * @file
 * Multi-job fair-share scheduler on the sharded discrete-event core.
 *
 * The one event-driven cluster engine: dozens of concurrent jobs over a
 * 100-1000-node cluster, or a single job as a one-submission run. Every
 * rack maps to one ShardedEngine shard. The split of responsibilities
 * follows the engine's lookahead contract (shard_engine.h):
 *
 *  - Shard-local (parallel, lock-free): task attempt execution with
 *    per-attempt duration jitter from the shard's private RNG stream,
 *    stateless hashed fault draws (crash / hang, keyed by plan seed,
 *    job, task and attempt so they are independent of execution order),
 *    per-attempt progress heartbeats, slot occupancy, the shard
 *    watchdog deadline, node / rack crashes, partition begin/heal with
 *    deferred completion reports, and the rack uplink as a FIFO link
 *    server: every map's cross-rack shuffle output drains through its
 *    source rack's shared uplink, so co-located shuffle-heavy jobs
 *    queue on each other (JobOutcome::uplink_wait_s).
 *
 *  - Coordinator (serial, at every heartbeat barrier): job admission,
 *    weighted fair-share slot granting (argmin of running/weight, so a
 *    job's steady-state slot share is proportional to its weight),
 *    rack-aware placement (preferred rack first, off-rack launches pay
 *    remote_penalty), speculative backups for attempts that overrun
 *    1.5x their task's profile time (first copy home wins, the other is
 *    killed), re-execution of map output lost with its node, retry
 *    backoff with deterministic jitter, graceful degradation of a job
 *    phase under heavy failure pressure (speculation shed, backoff
 *    widened), blacklisting with the 25% cap and partition forgiveness,
 *    JobTracker checkpoint / failover, and recovery-window cascades.
 *
 * Per-task nominal times come from derive_task_profile (scheduler.h),
 * the same truth the fault-free wave model uses. The scheduler inherits
 * the engine's determinism: a 1-thread run, an N-thread run and a
 * replay produce bit-identical MultiJobResult dumps
 * (tests/shard_engine_test.cc), and the chaos harness holds every
 * scenario to that.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/cluster.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/shard_engine.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"

namespace dcb::mapreduce {

/** Fair-share policy knobs (Hadoop fair scheduler analogues). */
struct FairShareConfig
{
    /**
     * Scheduling interval and the engine's conservative lookahead: the
     * minimum cross-shard reaction latency. Grants, retries and fault
     * bookkeeping happen on this grid, exactly like TaskTracker
     * heartbeats in Hadoop 1.x.
     */
    double heartbeat_s = 3.0;
    /** Total tries per task before its job fails. */
    std::uint32_t max_attempts = 4;
    /** Retry backoff: base * factor^(failures-1), scaled by a
        deterministic seeded jitter in [1-jitter, 1+jitter]. */
    double backoff_base_s = 2.0;
    double backoff_factor = 2.0;
    double backoff_jitter = 0.25;
    /** Failed attempts on one node before it is blacklisted; at most
        25% of the cluster is ever blacklisted at once. */
    std::uint32_t blacklist_task_failures = 4;
    /** Watchdog deadline multiple of the speed-adjusted nominal task
        time; must exceed the max attempt jitter (clamped at 2.5x). */
    double task_timeout_factor = 6.0;
    /** JobTracker checkpoint period / standby takeover delay. */
    double checkpoint_interval_s = 30.0;
    double failover_delay_s = 10.0;
    /** Off-rack map launches run this much slower (non-local split). */
    double remote_penalty = 1.15;
    /**
     * Lognormal sigma of per-attempt duration jitter, drawn from the
     * executing shard's RNG stream (clamped to [0.5, 2.5]x). 0 = every
     * attempt runs exactly its nominal time.
     */
    double attempt_jitter_sigma = 0.0;
    /**
     * Rack uplink capacity = rack_size * node_bandwidth / this factor
     * (classic ToR oversubscription). Cross-rack shuffle bytes of
     * co-located jobs queue FIFO on this shared link.
     */
    double uplink_oversubscription = 4.0;
    /** Model per-attempt progress heartbeats (Hadoop task reporting);
        their count per shard is part of the deterministic result. */
    bool progress_heartbeats = true;
};

/** Empty when the config is runnable, else a clear error. */
std::string validate(const FairShareConfig& config);

/** One job entering the cluster. */
struct JobSubmission
{
    JobSpec spec;
    /** Label in outcomes/dumps; defaults to spec.name + "#<index>". */
    std::string name;
    double submit_time_s = 0.0;
    /** Fair-share weight (> 0): steady-state slot share is
        weight / sum(weights of runnable jobs). */
    double weight = 1.0;
};

/** What one submitted job did. */
struct JobOutcome
{
    std::string name;
    bool completed = false;
    std::string error;  ///< empty when completed
    double submit_s = 0.0;
    double first_launch_s = -1.0;  ///< -1 = never launched
    double finish_s = -1.0;        ///< completion or failure time
    /** A completed job produced exactly expected_task_counts. */
    std::uint64_t maps_completed = 0;
    std::uint64_t reduces_completed = 0;
    std::uint32_t task_failures = 0;
    std::uint32_t watchdog_kills = 0;
    std::uint32_t max_task_attempts = 1;
    /** Rack-aware placement tally. */
    std::uint64_t local_map_launches = 0;
    std::uint64_t remote_map_launches = 0;
    /** Task-seconds that produced no output (failed/killed/stale). */
    double wasted_task_s = 0.0;
    /** Queueing delay this job's shuffle output accumulated on shared
        rack uplinks (the cross-job contention signal). */
    double uplink_wait_s = 0.0;
    /** Backup copies launched for stragglers. */
    std::uint32_t speculative_launched = 0;
    /** Completed maps run again because their node died before the
        job's reduce phase (no attempt charged). */
    std::uint32_t maps_reexecuted = 0;
    /** Phases that degraded under failure pressure. */
    std::uint32_t degraded_phases = 0;
    /**
     * Completed-attempt duration distribution: shard-local GK sketches
     * (built at half the reporting epsilon) merged in fixed shard
     * order, so serial, sharded and replayed runs produce byte-identical
     * sketches. Percentiles extracted into `attempt_durations`.
     */
    obs::QuantileSketch attempt_sketch;
    obs::LatencyStats attempt_durations;
};

/** Cluster-wide fault/recovery accounting across all jobs. */
struct ClusterOutcome
{
    std::uint32_t nodes_lost = 0;
    std::uint32_t racks_lost = 0;
    std::uint32_t partitions = 0;
    std::uint32_t partition_heals = 0;
    std::uint32_t nodes_blacklisted = 0;
    std::uint32_t nodes_unblacklisted = 0;
    std::uint32_t master_failovers = 0;
    std::uint32_t checkpoints_taken = 0;
    std::uint32_t cascades_triggered = 0;
    std::uint64_t tasks_lost_to_failover = 0;
    /** Slot-seconds of attempt runtime (useful + wasted). */
    double slot_busy_s = 0.0;
};

/** Deterministic per-shard utilization (simulation-side, unlike the
    host-side ShardStats timings). */
struct ShardUtil
{
    std::uint64_t progress_heartbeats = 0;
    double slot_busy_s = 0.0;
    double uplink_wait_s = 0.0;
};

/** Everything one multi-job run produced. */
struct MultiJobResult
{
    /** False = the configuration never ran; `error` explains. */
    bool ok = false;
    std::string error;
    std::vector<JobOutcome> jobs;  ///< submission order
    ClusterOutcome cluster;
    /** Host-side engine stats (events, busy/barrier-wait seconds). */
    std::vector<ShardStats> shards;
    /** Simulation-side per-shard utilization (part of dump()). */
    std::vector<ShardUtil> shard_util;
    double makespan_s = 0.0;
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;
    /** Cluster-wide attempt durations: per-job merged sketches folded
        in submission order (deterministic, byte-replayable). */
    obs::QuantileSketch attempt_sketch;
    obs::LatencyStats attempt_durations;

    bool all_completed() const;
    /**
     * Canonical text rendering of every deterministic field (%.17g
     * doubles, host timings excluded). Serial, sharded and replayed
     * runs of the same input must produce byte-identical dumps; the
     * bit-identity tests and the CI cluster-guard diff exactly this.
     */
    std::string dump() const;
};

/** Execution knobs that must not change simulation results. */
struct MultiJobOptions
{
    /** Engine worker threads; 1 = serial reference, N = sharded. */
    unsigned threads = 1;
    /**
     * Fault source and log sink. nullptr = fault-free. The injector's
     * plan schedules the faults; per-attempt draws are stateless
     * hashes of (plan seed, job, task, attempt) so they are identical
     * across serial/sharded execution, and occurrences land in the
     * injector's FaultLog in deterministic barrier order.
     */
    fault::FaultInjector* injector = nullptr;
    /** Optional simulated-timeline trace (job phase spans, fault
        instants, per-shard lanes, epoch barriers with per-shard wait
        spans, grant/kill instants, uplink queue-depth counter tracks,
        failover-freeze and blacklist spans). Observation only. */
    obs::TraceWriter* trace = nullptr;
    /**
     * Optional labeled metrics registry. When set, the scheduler
     * registers its series up front ({job} counters/histograms, {shard}
     * gauges, cluster counters), updates them only on the coordinator
     * thread at barriers in fixed shard/job/message order, and records
     * one registry snapshot row per barrier. Observation only: arming
     * metrics must not change MultiJobResult::dump() by a single byte
     * (CI diffs exactly that). Host-side engine stats land in
     * `dcb_host_*` gauges after the run, outside the snapshot columns.
     */
    obs::MetricsRegistry* metrics = nullptr;
};

/** The multi-job fair-share scheduler; stateless across run() calls. */
class MultiJobScheduler
{
  public:
    explicit MultiJobScheduler(const FairShareConfig& config = {});

    /**
     * Run all submissions to completion. Config errors, including a
     * fault plan that targets a node or rack the cluster lacks, are
     * reported in MultiJobResult::error (ok = false), never fatal. Job-level
     * failures (task out of attempts, no schedulable nodes left) fail
     * that JobOutcome and the rest of the cluster keeps running.
     */
    MultiJobResult run(const std::vector<JobSubmission>& submissions,
                       const ClusterConfig& cluster,
                       const MultiJobOptions& options = {}) const;

  private:
    FairShareConfig config_;
};

}  // namespace dcb::mapreduce

#endif  // DCBENCH_MAPREDUCE_FAIRSHARE_H_
