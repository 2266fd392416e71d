#ifndef DCBENCH_FAULT_FAULT_H_
#define DCBENCH_FAULT_FAULT_H_

/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * The paper measures workloads on a real Hadoop 1.0.2 cluster whose
 * defining runtime property is fault tolerance: tasks crash and are
 * retried, slow nodes trigger speculative execution, and node failures
 * lose completed map output that must be re-executed. A FaultPlan
 * describes the non-ideal behaviour of one simulated run (per-resource
 * fault rates plus one optionally scheduled node crash); a FaultInjector
 * turns the plan into a reproducible stream of fault decisions and keeps
 * an event log for post-run inspection. Identical seeds yield identical
 * decision streams, so every faulty experiment is replayable.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dcb::fault {

/** Everything that can go wrong, for logging and accounting. */
enum class FaultKind : std::uint8_t {
    kTaskCrash,       ///< a map/reduce task attempt dies mid-run
    kNodeCrash,       ///< a slave node leaves the cluster for good
    kDiskReadError,   ///< read(2) fails with EIO
    kDiskWriteError,  ///< write(2) fails with EIO
    kNetTimeout,      ///< send(2) times out (TCP retransmit exhausted)
    kNetDrop,         ///< recv(2) loses the payload (connection reset)
    kSlowNode,        ///< a node runs every task slower (degraded disk)
    // Correlated / cluster-scale kinds:
    kTaskHang,        ///< an attempt stops progressing but never exits
    kRackPowerLoss,   ///< every node in one rack crashes at once (PDU)
    kNetPartition,    ///< one rack unreachable behind its uplink
    kPartitionHeal,   ///< the partition ends; the rack is back
    kMasterCrash,     ///< the JobTracker itself dies
    kMasterFailover,  ///< a standby resumed from the last checkpoint
    kWatchdogKill,    ///< scheduler deadline killed a hung/stranded task
    kCascade,         ///< dependent fault fired inside a recovery window
};

const char* fault_kind_name(FaultKind kind);

/**
 * Declarative description of the faults injected into one run.
 * All-default means fault-free: the injector never fires and costs
 * nothing on the hot path.
 */
struct FaultPlan
{
    /** Seed for every fault decision; same seed, same faults. */
    std::uint64_t seed = 0xFA17ED5EEDULL;
    /** Probability that a task attempt crashes before completing. */
    double task_crash_prob = 0.0;
    /** Per-syscall disk error probabilities (EIO on read/write). */
    double disk_read_error_prob = 0.0;
    double disk_write_error_prob = 0.0;
    /** Per-syscall network fault probabilities. */
    double net_timeout_prob = 0.0;
    double net_drop_prob = 0.0;
    /** Fraction of nodes that run tasks `slow_multiplier` slower. */
    double slow_node_fraction = 0.0;
    double slow_multiplier = 1.0;
    /**
     * Scheduled whole-node failure: at `node_crash_time_s` on the task
     * execution timeline, node `crash_node` dies and never returns.
     * Negative disables the crash.
     */
    double node_crash_time_s = -1.0;
    std::uint32_t crash_node = 0;

    // ---- Correlated faults (topology-aware; see fault/topology.h) ----
    /**
     * Probability that a task attempt hangs: it holds its slot and
     * never completes, so only a scheduler watchdog can recover it.
     */
    double task_hang_prob = 0.0;
    /**
     * Rack power loss: at `rack_crash_time_s` on the task timeline
     * every node of `crash_rack` dies at once and never returns.
     * Negative disables.
     */
    double rack_crash_time_s = -1.0;
    std::uint32_t crash_rack = 0;
    /**
     * Network partition: from `partition_time_s` for
     * `partition_duration_s`, every node of `partition_rack` is
     * unreachable (running work is stranded, completions cannot be
     * reported, nothing new is scheduled there), then the partition
     * heals and the rack rejoins. Negative start disables.
     */
    double partition_time_s = -1.0;
    double partition_duration_s = 60.0;
    std::uint32_t partition_rack = 0;
    /**
     * JobTracker failure: at `master_crash_time_s` the master dies;
     * a standby resumes from the last periodic checkpoint after the
     * scheduler's failover delay. Negative disables.
     */
    double master_crash_time_s = -1.0;
    /**
     * Cascades: each recovery window (partition heal, master failover)
     * fires a dependent node crash with this probability -- the
     * thundering-herd of rejoining work taking out a marginal machine.
     */
    double cascade_prob = 0.0;

    /** True when any fault can fire under this plan. */
    bool any_faults() const;
};

/** Empty string when the plan is sane, else a clear error message. */
std::string validate(const FaultPlan& plan);

// ---- Stateless plan-keyed draws (the cluster engine's fault fates) ----
//
// Pure functions of the plan and a caller-chosen key, so any shard can
// evaluate them in any order and serial/sharded runs agree bit for bit.

/** Slow-node multiplier of `node` under `plan` (1.0 or slow_multiplier). */
double planned_speed_multiplier(const FaultPlan& plan, std::uint32_t node);

/**
 * Does the attempt identified by `attempt_key` crash? On true,
 * `*crash_fraction` (when non-null) is the fraction of the attempt's
 * runtime completed before the crash, in [0.05, 0.95].
 */
bool planned_task_crash(const FaultPlan& plan, std::uint64_t attempt_key,
                        double* crash_fraction);

/** Does the attempt identified by `attempt_key` hang? */
bool planned_task_hang(const FaultPlan& plan, std::uint64_t attempt_key);

/** One injected fault, for the post-run log. */
struct FaultEvent
{
    FaultKind kind = FaultKind::kTaskCrash;
    /** Simulated time, when known; negative for OS-layer faults that
        have no cluster clock. */
    double time_s = -1.0;
    std::uint32_t node = 0;
    std::uint32_t task = 0;
    std::uint32_t attempt = 0;
};

/** Append-only record of every fault the injector fired. */
class FaultLog
{
  public:
    void record(const FaultEvent& event) { events_.push_back(event); }
    const std::vector<FaultEvent>& events() const { return events_; }
    std::size_t count(FaultKind kind) const;
    /** Human-readable per-kind tally, e.g. "task-crash:12 net-timeout:3". */
    std::string summary() const;
    void clear() { events_.clear(); }

  private:
    std::vector<FaultEvent> events_;
};

/**
 * Holds a run's FaultPlan and its fault log.
 *
 * The OS-layer draws (disk / network errors) consume one RNG draw per
 * call, so their sequence is a pure function of (seed, call order).
 * Cluster faults never touch that stream: task fates are the stateless
 * planned_* draws above, and cascades are hashed from the seed and a
 * trigger id, so they do not depend on call order at all.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan& plan = FaultPlan{});

    const FaultPlan& plan() const { return plan_; }

    /**
     * Does recovery window `trigger` (a caller-chosen stable id, e.g. a
     * monotonically increasing recovery count) cascade into a dependent
     * node crash? Stateless -- hashed from the seed and `trigger`, so
     * the answer does not depend on call order. On true, `*victim`
     * receives the crashing node in [0, node_count) and a kCascade
     * event is logged.
     */
    bool cascade_fires(std::uint64_t trigger, std::uint32_t node_count,
                       std::uint32_t* victim);

    /** OS-layer per-operation faults (logged with no cluster clock). */
    bool disk_read_fails();
    bool disk_write_fails();
    bool net_send_times_out();
    bool net_recv_drops();

    /** Record a fault decided outside the injector (e.g. node crash). */
    void record(const FaultEvent& event) { log_.record(event); }

    /** Current simulated time stamped onto logged events. */
    void set_now(double now_s) { now_s_ = now_s; }

    FaultLog& log() { return log_; }
    const FaultLog& log() const { return log_; }

    /** Re-seed to the plan's seed and clear the log (fresh replay). */
    void reset();

  private:
    bool draw(double prob, FaultKind kind);

    FaultPlan plan_;
    util::Rng rng_;
    FaultLog log_;
    double now_s_ = -1.0;
};

}  // namespace dcb::fault

#endif  // DCBENCH_FAULT_FAULT_H_
