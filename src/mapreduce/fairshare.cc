#include "mapreduce/fairshare.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <utility>

#include "fault/topology.h"
#include "util/assert.h"

namespace dcb::mapreduce {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
/** Shard sketches run at half the reporting epsilon so a two-level
    merge (shards into a job, jobs into the cluster) stays inside the
    advertised bound. */
constexpr double kShardAttemptEpsilon =
    obs::QuantileSketch::kDefaultEpsilon / 2.0;
/** Speculation (mapred.speculative.execution): an attempt still running
    this multiple of its task's profile time gets one backup copy on
    another node; with no slot free the check repeats this fraction of
    the profile time later. */
constexpr double kSpeculativeSlowdown = 1.5;
constexpr double kSpeculativeRecheck = 0.5;
/** Graceful degradation, under an armed plan: once a job phase's failed
    attempts exceed this share of its tasks, the phase sheds speculation
    and widens every backoff by this factor. */
constexpr double kDegradeFailureRatio = 0.05;
constexpr double kDegradedBackoffFactor = 4.0;

// ---- Shard-local event kinds -----------------------------------------
enum : std::uint32_t {
    kEvLaunch = 1,       ///< a=job b=task c=node d=packed x=nominal_s
    kEvFinish,           ///< a=attempt index
    kEvCrash,            ///< a=attempt index
    kEvWatchdog,         ///< a=attempt index
    kEvProgress,         ///< a=attempt index
    kEvNodeCrash,        ///< a=node (global id)
    kEvRackCrash,        ///< whole shard
    kEvPartitionBegin,   ///< whole shard
    kEvPartitionHeal,    ///< whole shard
    kEvMasterKill,       ///< failover: kill every live attempt
    kEvWake,             ///< no-op: forces a barrier at this time
    kEvKill,             ///< a=job b=task c=node d=packed: losing backup
};

// ---- Shard -> coordinator message kinds ------------------------------
enum : std::uint32_t {
    kMsgFinish = 1,  ///< a=job b=task c=node d=packed x=uplink_wait y=drain
    kMsgFailed,      ///< a=job b=task c=node d=packed x=wasted_s
    kMsgKilled,      ///< a=job b=task c=node d=packed x=wasted_s
    kMsgFault,       ///< a=FaultKind code b=node c=rack
    kMsgHeal,        ///< a=rack
};

// d-field packing: attempt (bits 0-9) | iteration (10-21) | flags.
constexpr std::uint32_t kAttemptBits = 10;
constexpr std::uint32_t kIterBits = 12;
constexpr std::uint32_t kFlagReduce = 1u << 22;
constexpr std::uint32_t kFlagRemote = 1u << 23;
/** On kMsgFailed: watchdog-detected hang (else crash). On kMsgKilled:
    watchdog-reclaimed stranded attempt (else node loss / bounce). */
constexpr std::uint32_t kFlagCause = 1u << 24;

std::uint32_t
pack_attempt(std::uint32_t attempt, std::uint32_t iter,
             std::uint32_t flags)
{
    DCB_EXPECTS(attempt < (1u << kAttemptBits));
    DCB_EXPECTS(iter < (1u << kIterBits));
    return attempt | (iter << kAttemptBits) | flags;
}

std::uint32_t
packed_attempt_no(std::uint32_t packed)
{
    return packed & ((1u << kAttemptBits) - 1);
}

std::uint32_t
packed_iter(std::uint32_t packed)
{
    return (packed >> kAttemptBits) & ((1u << kIterBits) - 1);
}

/** Unique identity of one task attempt across the whole run: the key
    for stale-message detection and the stateless fault draws. */
std::uint64_t
attempt_key(std::uint32_t job, std::uint32_t iter, bool is_reduce,
            std::uint32_t task, std::uint32_t attempt)
{
    return (std::uint64_t{job} << 48) | (std::uint64_t{iter} << 36) |
           (std::uint64_t{is_reduce ? 1u : 0u} << 35) |
           (std::uint64_t{task} << kAttemptBits) | attempt;
}

/** Deterministic backoff jitter in [1-j, 1+j], keyed off the plan. */
double
backoff_jitter_factor(std::uint64_t seed, std::uint64_t key, double j)
{
    const std::uint64_t h =
        util::mix64(seed ^ util::mix64(0xBAC0FFULL ^ key));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return 1.0 - j + 2.0 * j * u;
}

// ---- Shard-local state -----------------------------------------------

struct Attempt
{
    std::uint32_t job = 0;
    std::uint32_t task = 0;
    std::uint32_t node = 0;
    std::uint32_t packed = 0;
    bool live = false;
    double start = 0.0;
    double duration = 0.0;  ///< +inf while hung
};

struct NodeLocal
{
    bool alive = true;
    bool partitioned = false;
    std::uint16_t free_map = 0;
    std::uint16_t free_reduce = 0;
    /** Attempt indices ever launched here; dead entries are skipped,
        never erased, so iteration order stays deterministic. */
    std::vector<std::uint32_t> running;
};

struct DeferredMsg
{
    std::uint32_t kind = 0, a = 0, b = 0, c = 0, d = 0;
    double x = 0.0, y = 0.0;
};

/** Cache-line aligned: neighbouring shards drain on different workers
    and every heartbeat writes its shard's counters. */
struct alignas(64) ShardLocal
{
    double uplink_bw = 1.0;  ///< bytes/s through the shared rack uplink
    double uplink_busy_until = 0.0;
    std::vector<Attempt> attempts;
    std::vector<DeferredMsg> deferred;  ///< reports held by a partition
    // Deterministic utilization (ShardUtil).
    std::uint64_t heartbeats = 0;
    double slot_busy_s = 0.0;
    double uplink_wait_s = 0.0;
    /** Per-job completed-attempt duration sketches. Shard-local, fed in
        the shard's deterministic event order, merged at result assembly
        in shard order -- identical whether the epochs ran on one thread
        or many. */
    std::vector<obs::QuantileSketch> job_attempt_s;
};

// ---- Coordinator-side state ------------------------------------------

enum class TaskStatus : std::uint8_t { kPending, kDelayed, kRunning,
                                       kDone };

/**
 * One task of the current phase, and the record of its latest attempt.
 * While the task runs, `node` and `time` say where and when that attempt
 * was granted, and `live` whether it still runs as far as the master
 * knows. Once the task is done they say where its output is and when it
 * finished. A task is never running and done at once, so one pair of
 * fields serves both.
 */
struct TaskState
{
    TaskStatus status = TaskStatus::kPending;
    bool backed_up = false;           ///< latest attempt is a backup
    bool live = false;                ///< latest attempt still runs
    std::uint16_t attempt_no = 0;     ///< launches (incl. killed requeues)
    std::uint16_t attempts_used = 0;  ///< FAILED charges vs max_attempts
    std::uint32_t node = 0;
    double time = -1.0;
};
static_assert(sizeof(TaskState) == 24);

/** A running attempt that is not its task's latest: the original a
    speculative backup shadows, kept in its job's twin list. */
struct AttemptRec
{
    std::uint32_t task = 0;
    std::uint32_t attempt = 0;
    std::uint32_t node = 0;
    double grant_time = 0.0;
};

/** First copy `attempt` of `task` is due a speculation check at `due`. */
struct SpecCheck
{
    double due = 0.0;
    std::uint32_t task = 0;
    std::uint32_t attempt = 0;
};

struct JobState
{
    JobSubmission sub;
    TaskProfile profile;
    double per_map_cross_bytes = 0.0;
    JobOutcome out;
    bool admitted = false;
    bool finished = false;
    std::uint32_t iter = 0;
    bool in_reduce = false;
    double shuffle_ready = 0.0;
    double phase_start = 0.0;
    std::uint32_t done_in_phase = 0;
    std::vector<TaskState> tasks;  ///< current phase only
    /** Records of the current phase's running originals whose backup
        is the task's latest attempt: a handful at a time, so a linear
        scan finds one. */
    std::vector<AttemptRec> twins;
    std::deque<std::uint32_t> ready;
    /** Min-heap of (ready_time, task) under std::greater. */
    std::vector<std::pair<double, std::uint32_t>> delayed;
    std::uint32_t running = 0;
    double last_completion = 0.0;
    /** Failed attempts in the current phase, and whether they have
        pushed the phase into degraded mode. */
    std::uint32_t pressure = 0;
    bool degraded = false;
    /**
     * The current phase's speculation checks. Every task of a phase has
     * the same profile time and grants happen at nondecreasing barrier
     * times, so first checks (grant + 1.5x) and rechecks (barrier +
     * 0.5x) each come due in FIFO order: a barrier pops only what is
     * due, with no heap.
     */
    std::deque<SpecCheck> spec_first;
    std::deque<SpecCheck> spec_recheck;
};

struct NodeMirror
{
    bool alive = true;
    bool partitioned = false;
    bool blacklisted = false;
    std::uint32_t failures = 0;
    std::uint16_t free_map = 0;
    std::uint16_t free_reduce = 0;
};

/** Per-job metric handles, registered up front in run(). */
struct JobMetrics
{
    obs::Counter* grants = nullptr;
    obs::Counter* completions = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* kills = nullptr;
    /** Grant-to-finish latency of completed attempts (includes the
        shard-side queueing the coordinator cannot see directly). */
    obs::Histogram* attempt_latency = nullptr;
    /** Hot-path tallies: the grant/finish loops do one plain
        increment per event here; the deltas are flushed into the
        locked series once per barrier (before the snapshot), which is
        observationally identical since series are only read at
        barriers and after the run. */
    std::uint64_t grants_tally = 0;
    std::uint64_t grants_flushed = 0;
    std::uint64_t completions_tally = 0;
    std::uint64_t completions_flushed = 0;
    std::uint64_t failures_tally = 0;
    std::uint64_t failures_flushed = 0;
    std::uint64_t kills_tally = 0;
    std::uint64_t kills_flushed = 0;
    std::vector<double> latency_batch;  ///< observed, not yet flushed
};

/** Per-shard metric handles (gauges set at barriers). */
struct ShardMetrics
{
    obs::Gauge* heartbeats = nullptr;
    obs::Gauge* slot_busy = nullptr;
    obs::Gauge* uplink_wait = nullptr;
    obs::Gauge* uplink_depth = nullptr;
    obs::Gauge* epoch_events = nullptr;
};

/** The whole model. Shard handlers touch only their shard's slice of
    `nodes`/`shards`; the coordinator touches everything, but only at
    barriers while the workers are parked. */
struct Sim
{
    FairShareConfig cfg;
    ClusterConfig cluster;
    fault::FaultPlan plan;
    bool armed = false;
    fault::FaultInjector* injector = nullptr;
    obs::TraceWriter* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    fault::Topology topo;

    // --- Observability plane (coordinator-only, observation-only) -----
    std::vector<JobMetrics> job_metrics;      // by submission index
    std::vector<ShardMetrics> shard_metrics;  // by shard index
    obs::Counter* faults_total = nullptr;
    obs::Counter* checkpoints_total = nullptr;
    obs::Counter* failovers_total = nullptr;
    obs::Counter* blacklist_total = nullptr;
    obs::Counter* unblacklist_total = nullptr;
    obs::Gauge* running_gauge = nullptr;
    /** Uplink transfers still draining, per shard: drain-end stamps
        from kMsgFinish, pruned at each barrier. Depth feeds the
        queue-depth gauge and the per-shard trace counter track. */
    std::vector<std::vector<double>> uplink_ends;
    std::vector<std::int64_t> uplink_depth_last;  ///< -1 = never traced
    std::vector<std::string> uplink_tracks;  ///< "uplink r<shard>" names
    /** Blacklist span starts per node (-1 = not blacklisted). */
    std::vector<double> blacklist_since;
    /** Grant instants buffered within a barrier (trace armed): every
        grant lands at the barrier time, so the observation pass
        appends them in one bulk call instead of a locked push each. */
    std::vector<std::uint64_t> grant_tids_local;
    std::vector<std::uint64_t> grant_tids_remote;
    std::uint64_t barriers_seen = 0;

    std::vector<NodeLocal> nodes;    // shard-owned during epochs
    std::vector<ShardLocal> shards;  // shard-owned during epochs
    std::vector<JobState> jobs;      // coordinator-owned
    std::vector<NodeMirror> mirror;  // coordinator-owned
    /** The rack layout, built once from `topo` and the only copy the
        shard handlers and the coordinator read: rack r (= shard r)
        holds nodes [rack_bounds[r], rack_bounds[r + 1]) and node n is
        in rack node_rack[n]. Read-only during epochs. */
    std::vector<std::uint32_t> rack_bounds;
    std::vector<std::uint32_t> node_rack;
    /** grant_pass's (share, job) min-heap, kept to reuse its storage. */
    std::vector<std::pair<double, std::uint32_t>> grant_heap;
    std::uint64_t live_attempts = 0;  ///< attempt records, all jobs
    ClusterOutcome out;
    std::uint32_t blacklisted_now = 0;

    // Master failover machinery.
    bool master_crash_applied = false;
    bool failover_done = false;
    double frozen_until = -1.0;
    std::uint64_t cascade_trigger = 0;
    /** Latest simulated time a pre-scheduled fault can still act. */
    double last_fault_time = -1.0;

    double per_map_cross_bytes(std::uint32_t job) const
    {
        return jobs[job].per_map_cross_bytes;
    }
};

// =====================================================================
// Shard-side handlers (parallel; shard-local state only)
// =====================================================================

void
free_node_slot(NodeLocal& nd, bool is_reduce)
{
    if (is_reduce)
        ++nd.free_reduce;
    else
        ++nd.free_map;
}

/** Terminal bookkeeping common to every way an attempt ends; returns
    the attempt's runtime (its waste when it produced nothing). */
double
retire_attempt(Sim& sim, std::uint32_t s, Attempt& att, double now)
{
    att.live = false;
    NodeLocal& nd = sim.nodes[att.node];
    if (nd.alive)
        free_node_slot(nd, (att.packed & kFlagReduce) != 0);
    const double ran = now - att.start;
    sim.shards[s].slot_busy_s += ran;
    return ran;
}

void
shard_launch(Sim& sim, std::uint32_t s, const ShardEvent& ev,
             ShardApi& api)
{
    ShardLocal& sh = sim.shards[s];
    NodeLocal& nd = sim.nodes[ev.c];
    const bool is_reduce = (ev.d & kFlagReduce) != 0;
    std::uint16_t& free = is_reduce ? nd.free_reduce : nd.free_map;
    if (!nd.alive || free == 0) {
        // Defensive: the coordinator's slot mirror drifted; bounce the
        // grant back for an immediate requeue.
        api.send(api.now(), kMsgKilled, ev.a, ev.b, ev.c, ev.d, 0.0);
        return;
    }
    --free;
    const auto idx = static_cast<std::uint32_t>(sh.attempts.size());
    Attempt att;
    att.job = ev.a;
    att.task = ev.b;
    att.node = ev.c;
    att.packed = ev.d;
    att.live = true;
    att.start = api.now();

    double jitter = 1.0;
    if (sim.cfg.attempt_jitter_sigma > 0.0)
        jitter = std::clamp(std::exp(sim.cfg.attempt_jitter_sigma *
                                     api.rng().next_gaussian()),
                            0.5, 2.5);
    const double nominal = ev.x;  // speed- and locality-adjusted
    att.duration = nominal * jitter;

    const std::uint64_t key =
        attempt_key(ev.a, packed_iter(ev.d), is_reduce, ev.b,
                    packed_attempt_no(ev.d));
    bool hung = false;
    bool crashed = false;
    double crash_fraction = 0.0;
    if (sim.armed) {
        hung = fault::planned_task_hang(sim.plan, key);
        if (!hung)
            crashed = fault::planned_task_crash(sim.plan, key,
                                                &crash_fraction);
    }
    if (hung) {
        att.duration = kInf;  // only the watchdog ends it
    } else if (crashed) {
        api.push(att.start + crash_fraction * att.duration, kEvCrash,
                 idx);
    } else {
        api.push(att.start + att.duration, kEvFinish, idx);
    }
    if (sim.armed)
        api.push(att.start + sim.cfg.task_timeout_factor * nominal,
                 kEvWatchdog, idx);
    api.push(att.start + sim.cfg.heartbeat_s, kEvProgress, idx);
    sh.attempts.push_back(att);
    nd.running.push_back(idx);
}

void
shard_finish(Sim& sim, std::uint32_t s, const ShardEvent& ev,
             ShardApi& api)
{
    ShardLocal& sh = sim.shards[s];
    Attempt& att = sh.attempts[ev.a];
    if (!att.live)
        return;
    const double ran = retire_attempt(sim, s, att, api.now());
    sh.job_attempt_s[att.job].insert(ran);
    // A finished map pushes its cross-rack shuffle output through the
    // rack's shared uplink -- a FIFO link server, so co-located jobs
    // queue on each other -- and the completion report carries the
    // time its data is actually ready for reducers.
    double wait = 0.0;
    double drain = api.now();
    if ((att.packed & kFlagReduce) == 0) {
        const double bytes = sim.per_map_cross_bytes(att.job);
        if (bytes > 0.0) {
            const double begin =
                std::max(api.now(), sh.uplink_busy_until);
            wait = begin - api.now();
            drain = begin + bytes / sh.uplink_bw;
            sh.uplink_busy_until = drain;
            sh.uplink_wait_s += wait;
        }
    }
    if (sim.nodes[att.node].partitioned) {
        // The report cannot reach the master until the heal.
        sh.deferred.push_back({kMsgFinish, att.job, att.task, att.node,
                               att.packed, wait, drain});
    } else {
        api.send(api.now(), kMsgFinish, att.job, att.task, att.node,
                 att.packed, wait, drain);
    }
}

void
shard_crash(Sim& sim, std::uint32_t s, const ShardEvent& ev,
            ShardApi& api)
{
    ShardLocal& sh = sim.shards[s];
    Attempt& att = sh.attempts[ev.a];
    if (!att.live)
        return;
    const double wasted = retire_attempt(sim, s, att, api.now());
    if (sim.nodes[att.node].partitioned)
        sh.deferred.push_back({kMsgFailed, att.job, att.task, att.node,
                               att.packed, wasted, 0.0});
    else
        api.send(api.now(), kMsgFailed, att.job, att.task, att.node,
                 att.packed, wasted);
}

void
shard_watchdog(Sim& sim, std::uint32_t s, const ShardEvent& ev,
               ShardApi& api)
{
    ShardLocal& sh = sim.shards[s];
    Attempt& att = sh.attempts[ev.a];
    if (!att.live)
        return;
    const double wasted = retire_attempt(sim, s, att, api.now());
    // The watchdog is the master's own deadline, so its verdict never
    // defers behind a partition: a hung attempt on a healthy node is
    // FAILED (charged), one stranded behind a partition is KILLED.
    if (sim.nodes[att.node].partitioned)
        api.send(api.now(), kMsgKilled, att.job, att.task, att.node,
                 att.packed | kFlagCause, wasted);
    else
        api.send(api.now(), kMsgFailed, att.job, att.task, att.node,
                 att.packed | kFlagCause, wasted);
}

void
shard_progress(Sim& sim, std::uint32_t s, const ShardEvent& ev,
               ShardApi& api)
{
    ShardLocal& sh = sim.shards[s];
    const Attempt& att = sh.attempts[ev.a];
    if (!att.live)
        return;
    ++sh.heartbeats;
    const double next = api.now() + sim.cfg.heartbeat_s;
    if (next < att.start + att.duration)
        api.push(next, kEvProgress, ev.a);
}

void
shard_kill_node(Sim& sim, std::uint32_t s, std::uint32_t node,
                ShardApi& api)
{
    NodeLocal& nd = sim.nodes[node];
    if (!nd.alive)
        return;
    nd.alive = false;
    nd.free_map = 0;
    nd.free_reduce = 0;
    ShardLocal& sh = sim.shards[s];
    for (const std::uint32_t idx : nd.running) {
        Attempt& att = sh.attempts[idx];
        if (!att.live)
            continue;
        att.live = false;
        const double wasted = api.now() - att.start;
        sh.slot_busy_s += wasted;
        // Tracker loss is master-visible at the barrier: requeue, no
        // attempt charge (KILLED, not FAILED).
        api.send(api.now(), kMsgKilled, att.job, att.task, att.node,
                 att.packed, wasted);
    }
    api.send(api.now(), kMsgFault,
             static_cast<std::uint32_t>(fault::FaultKind::kNodeCrash),
             node, sim.node_rack[node]);
}

/** The coordinator's verdict on the losing copy of a speculated task:
    retire it without a report (the coordinator settled its books). */
void
shard_kill(Sim& sim, std::uint32_t s, const ShardEvent& ev, ShardApi& api)
{
    ShardLocal& sh = sim.shards[s];
    const std::vector<std::uint32_t>& running = sim.nodes[ev.c].running;
    for (auto it = running.rbegin(); it != running.rend(); ++it) {
        Attempt& att = sh.attempts[*it];
        if (att.live && att.job == ev.a && att.task == ev.b &&
            att.packed == ev.d) {
            retire_attempt(sim, s, att, api.now());
            return;
        }
    }
}

void
shard_event(Sim& sim, std::uint32_t s, const ShardEvent& ev,
            ShardApi& api)
{
    switch (ev.kind) {
      case kEvLaunch:
        shard_launch(sim, s, ev, api);
        break;
      case kEvFinish:
        shard_finish(sim, s, ev, api);
        break;
      case kEvCrash:
        shard_crash(sim, s, ev, api);
        break;
      case kEvWatchdog:
        shard_watchdog(sim, s, ev, api);
        break;
      case kEvProgress:
        shard_progress(sim, s, ev, api);
        break;
      case kEvNodeCrash:
        shard_kill_node(sim, s, ev.a, api);
        break;
      case kEvRackCrash: {
        const std::uint32_t begin = sim.rack_bounds[s];
        const std::uint32_t end = sim.rack_bounds[s + 1];
        for (std::uint32_t n = begin; n < end; ++n)
            shard_kill_node(sim, s, n, api);
        api.send(api.now(), kMsgFault,
                 static_cast<std::uint32_t>(
                     fault::FaultKind::kRackPowerLoss),
                 begin, s);
        break;
      }
      case kEvPartitionBegin: {
        for (std::uint32_t n = sim.rack_bounds[s];
             n < sim.rack_bounds[s + 1]; ++n)
            sim.nodes[n].partitioned = true;
        api.send(api.now(), kMsgFault,
                 static_cast<std::uint32_t>(
                     fault::FaultKind::kNetPartition),
                 sim.rack_bounds[s], s);
        break;
      }
      case kEvPartitionHeal: {
        ShardLocal& sh = sim.shards[s];
        for (std::uint32_t n = sim.rack_bounds[s];
             n < sim.rack_bounds[s + 1]; ++n)
            sim.nodes[n].partitioned = false;
        // Reports held behind the partition reach the master now, in
        // their original (deterministic) order, then the heal itself.
        for (const DeferredMsg& m : sh.deferred)
            api.send(api.now(), m.kind, m.a, m.b, m.c, m.d, m.x, m.y);
        sh.deferred.clear();
        api.send(api.now(), kMsgHeal, s);
        break;
      }
      case kEvMasterKill: {
        ShardLocal& sh = sim.shards[s];
        for (Attempt& att : sh.attempts) {
            if (!att.live)
                continue;
            retire_attempt(sim, s, att, api.now());
            // No message: the coordinator initiated the failover and
            // already requeued everything it had in flight.
        }
        break;
      }
      case kEvWake:
        break;
      case kEvKill:
        shard_kill(sim, s, ev, api);
        break;
      default:
        DCB_EXPECTS_MSG(false, "unknown shard event kind");
    }
}

// =====================================================================
// Coordinator (serial, at barriers)
// =====================================================================

void
record_fault(Sim& sim, fault::FaultKind kind, double time_s,
             std::uint32_t node, std::uint32_t task,
             std::uint32_t attempt)
{
    if (sim.injector != nullptr) {
        sim.injector->set_now(time_s);
        sim.injector->record({kind, time_s, node, task, attempt});
    }
    if (sim.trace != nullptr)
        sim.trace->instant(fault::fault_kind_name(kind), "fault",
                           obs::TraceWriter::kClusterPid, 900000,
                           time_s * 1e6);
    if (sim.faults_total != nullptr)
        sim.faults_total->inc();
}

void
start_map_phase(Sim& sim, std::uint32_t j, double now)
{
    JobState& job = sim.jobs[j];
    DCB_EXPECTS(job.running == 0 && job.twins.empty());
    job.in_reduce = false;
    job.shuffle_ready = 0.0;
    job.done_in_phase = 0;
    job.phase_start = now;
    job.pressure = 0;
    job.degraded = false;
    job.spec_first.clear();
    job.spec_recheck.clear();
    job.tasks.assign(job.profile.map_count, TaskState{});
    job.ready.clear();
    for (std::uint32_t t = 0; t < job.profile.map_count; ++t)
        job.ready.push_back(t);
}

void
start_reduce_phase(Sim& sim, std::uint32_t j, double now)
{
    JobState& job = sim.jobs[j];
    if (sim.trace != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "map i%u", job.iter);
        sim.trace->complete(buf, "phase", obs::TraceWriter::kClusterPid,
                            910000 + j, job.phase_start * 1e6,
                            (now - job.phase_start) * 1e6);
    }
    DCB_EXPECTS(job.running == 0 && job.twins.empty());
    job.in_reduce = true;
    job.done_in_phase = 0;
    job.phase_start = now;
    job.pressure = 0;
    job.degraded = false;
    job.spec_first.clear();
    job.spec_recheck.clear();
    job.tasks.assign(job.profile.reduce_count, TaskState{});
    job.ready.clear();
    for (std::uint32_t t = 0; t < job.profile.reduce_count; ++t)
        job.ready.push_back(t);
}

void
finish_job(Sim& sim, std::uint32_t j, double time_s, bool completed,
           const std::string& error)
{
    JobState& job = sim.jobs[j];
    job.finished = true;
    job.out.completed = completed;
    job.out.error = error;
    job.out.finish_s = time_s;
    job.ready.clear();
    job.delayed.clear();
    if (sim.trace != nullptr) {
        if (completed && job.in_reduce) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "reduce i%u", job.iter);
            sim.trace->complete(buf, "phase",
                                obs::TraceWriter::kClusterPid,
                                910000 + j, job.phase_start * 1e6,
                                (time_s - job.phase_start) * 1e6);
        }
        sim.trace->complete(job.out.name,
                            completed ? "job" : "job-failed",
                            obs::TraceWriter::kClusterPid, 910000 + j,
                            job.out.submit_s * 1e6,
                            (time_s - job.out.submit_s) * 1e6);
    }
}

/** Give a slot back to the coordinator's mirror of a live node. */
void
release_slot(Sim& sim, std::uint32_t node, bool is_reduce)
{
    NodeMirror& nm = sim.mirror[node];
    if (!nm.alive)
        return;
    if (is_reduce) {
        if (nm.free_reduce < sim.cluster.reduce_slots)
            ++nm.free_reduce;
    } else {
        if (nm.free_map < sim.cluster.map_slots)
            ++nm.free_map;
    }
}

/** The d-field of the launch of `attempt` of `task` on `node` in the
    job's current phase. */
std::uint32_t
launch_packed(const Sim& sim, const JobState& job, std::uint32_t task,
              std::uint32_t attempt, std::uint32_t node)
{
    const bool remote = !job.in_reduce &&
                        sim.node_rack[node] != task % sim.topo.racks();
    return pack_attempt(attempt, job.iter,
                        (job.in_reduce ? kFlagReduce : 0u) |
                            (remote ? kFlagRemote : 0u));
}

std::vector<AttemptRec>::iterator
find_twin(JobState& job, std::uint32_t task, std::uint32_t attempt)
{
    return std::find_if(job.twins.begin(), job.twins.end(),
                        [task, attempt](const AttemptRec& rec) {
                            return rec.task == task &&
                                   rec.attempt == attempt;
                        });
}

/** Drop the record of attempt `attempt` of `task` into `rec`; false
    when the attempt has none (it no longer runs). */
bool
take_record(JobState& job, std::uint32_t task, std::uint32_t attempt,
            AttemptRec* rec)
{
    TaskState& ts = job.tasks[task];
    if (attempt == ts.attempt_no) {
        if (!ts.live)
            return false;
        ts.live = false;
        *rec = {task, attempt, ts.node, ts.time};
        return true;
    }
    const auto it = find_twin(job, task, attempt);
    if (it == job.twins.end())
        return false;
    *rec = *it;
    *it = job.twins.back();
    job.twins.pop_back();
    return true;
}

/**
 * The other copy of attempt `attempt` of a backed-up task. A task
 * launches nothing while a copy is live except its one backup, so its
 * live copies are always its latest attempt and, when that is a backup,
 * the attempt before it.
 */
std::uint32_t
other_copy(const TaskState& ts, std::uint32_t attempt)
{
    return attempt == ts.attempt_no ? attempt - 1 : ts.attempt_no;
}

/** Whether the other copy of attempt `attempt` of `task` still runs.
    Tasks never backed up skip the lookup. */
bool
twin_running(JobState& job, std::uint32_t task, std::uint32_t attempt)
{
    const TaskState& ts = job.tasks[task];
    if (!ts.backed_up)
        return false;
    if (attempt != ts.attempt_no)
        return ts.live;  // the other copy is the latest
    return find_twin(job, task, attempt - 1) != job.twins.end();
}

/**
 * Shared cleanup for every terminal message: drop the attempt record,
 * release the slot mirror, and decide whether the message should drive
 * job state (false = stale: a superseded attempt, or a finished job).
 * Only a report of the job's current phase, for a task in range, can
 * have a record. When `grant_time` is non-null it receives the consumed
 * attempt's grant time (untouched if the record was already gone).
 */
bool
consume_terminal(Sim& sim, const ShardMessage& msg,
                 double* grant_time = nullptr)
{
    const bool is_reduce = (msg.d & kFlagReduce) != 0;
    JobState& job = sim.jobs[msg.a];
    AttemptRec rec;
    if (packed_iter(msg.d) != job.iter || is_reduce != job.in_reduce ||
        msg.b >= job.tasks.size() ||
        !take_record(job, msg.b, packed_attempt_no(msg.d), &rec))
        return false;
    if (grant_time != nullptr)
        *grant_time = rec.grant_time;
    --sim.live_attempts;
    if (job.running > 0)
        --job.running;
    release_slot(sim, msg.c, is_reduce);
    if (job.finished)
        return false;
    DCB_EXPECTS(job.tasks[msg.b].status == TaskStatus::kRunning);
    return true;
}

void
requeue_task(JobState& job, std::uint32_t task)
{
    job.tasks[task].status = TaskStatus::kPending;
    job.ready.push_back(task);
}

/** First copy home wins: kill the other one, if it still runs, and
    count its runtime so far as waste. */
void
kill_twin(Sim& sim, Coordinator& co, std::uint32_t j, std::uint32_t task,
          std::uint32_t attempt, double barrier_s)
{
    JobState& job = sim.jobs[j];
    const TaskState& ts = job.tasks[task];
    AttemptRec rec;
    if (!ts.backed_up ||
        !take_record(job, task, other_copy(ts, attempt), &rec))
        return;
    --sim.live_attempts;
    --job.running;
    release_slot(sim, rec.node, job.in_reduce);
    job.out.wasted_task_s += barrier_s - rec.grant_time;
    co.push(sim.node_rack[rec.node], barrier_s, kEvKill, j, task,
            rec.node, launch_packed(sim, job, task, rec.attempt, rec.node));
    if (sim.metrics != nullptr)
        ++sim.job_metrics[j].kills_tally;
}

/** A failed attempt adds to its phase's fault pressure; past the ratio
    the phase degrades (armed plans only). */
void
note_pressure(Sim& sim, std::uint32_t j, double time_s)
{
    JobState& job = sim.jobs[j];
    ++job.pressure;
    if (!sim.armed || job.degraded ||
        job.pressure <= kDegradeFailureRatio * job.tasks.size())
        return;
    job.degraded = true;
    job.spec_first.clear();
    job.spec_recheck.clear();
    ++job.out.degraded_phases;
    if (sim.trace != nullptr)
        sim.trace->instant("degraded", "sched",
                           obs::TraceWriter::kClusterPid, 910000 + j,
                           time_s * 1e6);
}

/** A dead node takes the map output it holds with it: jobs still in
    their map phase run those maps again, with no attempt charged. */
void
lose_map_output(Sim& sim, std::uint32_t node)
{
    for (JobState& job : sim.jobs) {
        if (!job.admitted || job.finished || job.in_reduce)
            continue;
        for (std::uint32_t t = 0; t < job.tasks.size(); ++t) {
            TaskState& task = job.tasks[t];
            if (task.status != TaskStatus::kDone || task.node != node)
                continue;
            task.time = -1.0;
            --job.done_in_phase;
            --job.out.maps_completed;
            ++job.out.maps_reexecuted;
            job.out.wasted_task_s += job.profile.map_task_s;
            requeue_task(job, t);
        }
    }
}

void
maybe_blacklist(Sim& sim, std::uint32_t node, double time_s)
{
    NodeMirror& nm = sim.mirror[node];
    if (!nm.alive || nm.blacklisted)
        return;
    if (nm.failures < sim.cfg.blacklist_task_failures)
        return;
    // Never sideline more than a quarter of the cluster at once.
    if (sim.blacklisted_now >= sim.cluster.slaves / 4)
        return;
    nm.blacklisted = true;
    ++sim.blacklisted_now;
    ++sim.out.nodes_blacklisted;
    if (sim.blacklist_total != nullptr)
        sim.blacklist_total->inc();
    if (!sim.blacklist_since.empty())
        sim.blacklist_since[node] = time_s;
}

/** Close one node's open blacklist span on its rack's trace lane. */
void
close_blacklist_span(Sim& sim, std::uint32_t node, double end_s)
{
    if (sim.blacklist_since.empty() ||
        sim.blacklist_since[node] < 0.0)
        return;
    const double begin = sim.blacklist_since[node];
    sim.blacklist_since[node] = -1.0;
    if (sim.trace == nullptr)
        return;
    char buf[32];
    std::snprintf(buf, sizeof buf, "blacklist n%u", node);
    sim.trace->complete(buf, "blacklist",
                        obs::TraceWriter::kClusterPid,
                        920000 + sim.node_rack[node], begin * 1e6,
                        (end_s - begin) * 1e6);
}

void
cascade_check(Sim& sim, Coordinator& co, double barrier_s)
{
    if (sim.injector == nullptr)
        return;
    std::uint32_t victim = 0;
    if (sim.injector->cascade_fires(sim.cascade_trigger++,
                                    sim.cluster.slaves, &victim)) {
        ++sim.out.cascades_triggered;
        co.push(sim.node_rack[victim], barrier_s, kEvNodeCrash,
                victim);
    }
}

void
apply_master_crash(Sim& sim, Coordinator& co, double barrier_s)
{
    const double crash = sim.plan.master_crash_time_s;
    record_fault(sim, fault::FaultKind::kMasterCrash, crash, 0, 0, 0);
    const double interval = sim.cfg.checkpoint_interval_s;
    const double checkpoint = std::floor(crash / interval) * interval;
    sim.out.checkpoints_taken +=
        static_cast<std::uint32_t>(std::floor(crash / interval));
    if (sim.checkpoints_total != nullptr)
        sim.checkpoints_total->add(std::floor(crash / interval));
    if (sim.trace != nullptr) {
        // The checkpoint the standby restores from, and the freeze
        // window during which no grants are made.
        sim.trace->instant("checkpoint restore", "failover",
                           obs::TraceWriter::kClusterPid, 930000,
                           checkpoint * 1e6);
        sim.trace->complete("failover freeze", "failover",
                            obs::TraceWriter::kClusterPid, 930000,
                            crash * 1e6,
                            sim.cfg.failover_delay_s * 1e6);
    }
    // The standby knows no running attempt: every record goes, and a
    // finished job's stragglers turn stale too.
    for (JobState& job : sim.jobs) {
        const bool open = job.admitted && !job.finished;
        for (std::uint32_t t = 0; t < job.tasks.size(); ++t) {
            TaskState& task = job.tasks[t];
            if (open && task.status == TaskStatus::kDone &&
                task.time > checkpoint) {
                // Completed after the last checkpoint: the standby
                // never heard about it, so it runs again.
                task.status = TaskStatus::kPending;
                task.time = -1.0;
                --job.done_in_phase;
                if (job.in_reduce)
                    --job.out.reduces_completed;
                else
                    --job.out.maps_completed;
                ++sim.out.tasks_lost_to_failover;
                job.ready.push_back(t);
            } else if (open && task.status == TaskStatus::kRunning) {
                // The latest attempt, and the one before it when the
                // latest is its backup (see other_copy).
                for (const std::uint32_t no :
                     {std::uint32_t{task.attempt_no},
                      task.attempt_no - 1u}) {
                    AttemptRec rec;
                    if (take_record(job, t, no, &rec))
                        job.out.wasted_task_s +=
                            std::max(0.0, crash - rec.grant_time);
                }
                requeue_task(job, t);
            }
            task.live = false;
        }
        job.twins.clear();
        job.running = 0;
    }
    sim.live_attempts = 0;
    // The mirror's in-flight slots come back once the shards process
    // the kill; until then it under-grants, which is safe.
    for (std::uint32_t s = 0; s < sim.topo.racks(); ++s)
        co.push(s, barrier_s, kEvMasterKill);
    for (std::uint32_t n = 0; n < sim.cluster.slaves; ++n) {
        NodeMirror& nm = sim.mirror[n];
        if (nm.alive) {
            nm.free_map =
                static_cast<std::uint16_t>(sim.cluster.map_slots);
            nm.free_reduce =
                static_cast<std::uint16_t>(sim.cluster.reduce_slots);
        }
    }
    sim.frozen_until = crash + sim.cfg.failover_delay_s;
    co.push(0, std::max(barrier_s, sim.frozen_until), kEvWake);
    sim.master_crash_applied = true;
}

void
process_message(Sim& sim, Coordinator& co, const ShardMessage& msg,
                double barrier_s)
{
    switch (msg.kind) {
      case kMsgFinish: {
        // Uplink drain bookkeeping happens whether or not the report is
        // stale: the transfer physically occupied the shared link. The
        // stamp feeds the per-shard queue-depth gauge/counter track.
        if (!sim.uplink_ends.empty() && (msg.d & kFlagReduce) == 0 &&
            msg.y > msg.time)
            sim.uplink_ends[sim.node_rack[msg.c]].push_back(msg.y);
        // Grant-to-finish latency: consume_terminal surfaces the grant
        // time from the attempt record it erases (single hash lookup).
        double grant_time = -1.0;
        if (!consume_terminal(sim, msg, &grant_time))
            return;
        if (sim.metrics != nullptr) {
            JobMetrics& m = sim.job_metrics[msg.a];
            ++m.completions_tally;
            if (grant_time >= 0.0)
                m.latency_batch.push_back(msg.time - grant_time);
        }
        // Kill the twin first: the latest attempt's record sits in the
        // fields that hold the task's output from here on.
        kill_twin(sim, co, msg.a, msg.b, packed_attempt_no(msg.d),
                  barrier_s);
        JobState& job = sim.jobs[msg.a];
        TaskState& task = job.tasks[msg.b];
        task.status = TaskStatus::kDone;
        task.node = msg.c;
        task.time = msg.time;
        ++job.done_in_phase;
        if (job.in_reduce)
            ++job.out.reduces_completed;
        else
            ++job.out.maps_completed;
        job.last_completion = std::max(job.last_completion, msg.time);
        job.out.uplink_wait_s += msg.x;
        if (!job.in_reduce)
            job.shuffle_ready = std::max(job.shuffle_ready, msg.y);
        break;
      }
      case kMsgFailed: {
        const bool hang = (msg.d & kFlagCause) != 0;
        record_fault(sim,
                     hang ? fault::FaultKind::kTaskHang
                          : fault::FaultKind::kTaskCrash,
                     msg.time, msg.c, msg.b, packed_attempt_no(msg.d));
        if (hang)
            record_fault(sim, fault::FaultKind::kWatchdogKill, msg.time,
                         msg.c, msg.b, packed_attempt_no(msg.d));
        if (!consume_terminal(sim, msg))
            return;
        JobState& job = sim.jobs[msg.a];
        TaskState& task = job.tasks[msg.b];
        ++job.out.task_failures;
        if (hang)
            ++job.out.watchdog_kills;
        job.out.wasted_task_s += msg.x;
        if (sim.metrics != nullptr)
            ++sim.job_metrics[msg.a].failures_tally;
        ++sim.mirror[msg.c].failures;
        maybe_blacklist(sim, msg.c, msg.time);
        note_pressure(sim, msg.a, msg.time);
        // max_task_attempts is tallied at launch (charged attempts
        // actually started), so nothing to update here: when the budget
        // is exhausted no further attempt ever launches.
        ++task.attempts_used;
        if (task.attempts_used >= sim.cfg.max_attempts) {
            char err[96];
            std::snprintf(err, sizeof err,
                          "%s task %u out of attempts (%u)",
                          job.in_reduce ? "reduce" : "map", msg.b,
                          sim.cfg.max_attempts);
            finish_job(sim, msg.a, msg.time, false, err);
            return;
        }
        // A surviving speculative copy makes the retry unnecessary.
        if (twin_running(job, msg.b, packed_attempt_no(msg.d)))
            break;
        const std::uint64_t key =
            attempt_key(msg.a, packed_iter(msg.d),
                        (msg.d & kFlagReduce) != 0, msg.b,
                        packed_attempt_no(msg.d));
        double delay = sim.cfg.backoff_base_s;
        for (std::uint32_t i = 1; i < task.attempts_used; ++i)
            delay *= sim.cfg.backoff_factor;
        if (job.degraded)
            delay *= kDegradedBackoffFactor;
        delay *= backoff_jitter_factor(sim.plan.seed, key,
                                       sim.cfg.backoff_jitter);
        task.status = TaskStatus::kDelayed;
        job.delayed.emplace_back(msg.time + delay, msg.b);
        std::push_heap(job.delayed.begin(), job.delayed.end(),
                       std::greater<>());
        break;
      }
      case kMsgKilled: {
        const bool stranded = (msg.d & kFlagCause) != 0;
        if (stranded)
            record_fault(sim, fault::FaultKind::kWatchdogKill, msg.time,
                         msg.c, msg.b, packed_attempt_no(msg.d));
        if (!consume_terminal(sim, msg))
            return;
        JobState& job = sim.jobs[msg.a];
        if (stranded)
            ++job.out.watchdog_kills;
        job.out.wasted_task_s += msg.x;
        if (!twin_running(job, msg.b, packed_attempt_no(msg.d)))
            requeue_task(job, msg.b);
        if (sim.metrics != nullptr)
            ++sim.job_metrics[msg.a].kills_tally;
        if (sim.trace != nullptr)
            sim.trace->instant(stranded ? "kill stranded" : "kill",
                               "sched", obs::TraceWriter::kClusterPid,
                               910000 + msg.a, msg.time * 1e6);
        break;
      }
      case kMsgFault: {
        const auto kind = static_cast<fault::FaultKind>(msg.a);
        if (kind == fault::FaultKind::kNodeCrash) {
            NodeMirror& nm = sim.mirror[msg.b];
            if (nm.alive) {
                nm.alive = false;
                nm.free_map = 0;
                nm.free_reduce = 0;
                // A dead blacklisted node keeps its cap slot: freeing
                // it would let the cumulative blacklist count outrun
                // the 25% invariant.
                ++sim.out.nodes_lost;
                lose_map_output(sim, msg.b);
            }
            record_fault(sim, kind, msg.time, msg.b, 0, 0);
        } else if (kind == fault::FaultKind::kRackPowerLoss) {
            ++sim.out.racks_lost;
            record_fault(sim, kind, msg.time, msg.b, 0, 0);
        } else if (kind == fault::FaultKind::kNetPartition) {
            ++sim.out.partitions;
            const std::uint32_t rack = msg.c;
            for (std::uint32_t n = sim.rack_bounds[rack];
                 n < sim.rack_bounds[rack + 1]; ++n)
                sim.mirror[n].partitioned = true;
            record_fault(sim, kind, msg.time, msg.b, 0, 0);
        }
        break;
      }
      case kMsgHeal: {
        const std::uint32_t rack = msg.a;
        ++sim.out.partition_heals;
        record_fault(sim, fault::FaultKind::kPartitionHeal, msg.time,
                     sim.rack_bounds[rack], 0, 0);
        for (std::uint32_t n = sim.rack_bounds[rack];
             n < sim.rack_bounds[rack + 1]; ++n) {
            NodeMirror& nm = sim.mirror[n];
            nm.partitioned = false;
            // Partition forgiveness: the node was not at fault.
            nm.failures = 0;
            if (nm.blacklisted) {
                nm.blacklisted = false;
                --sim.blacklisted_now;
                ++sim.out.nodes_unblacklisted;
                if (sim.unblacklist_total != nullptr)
                    sim.unblacklist_total->inc();
                close_blacklist_span(sim, n, msg.time);
            }
        }
        // Rejoin storms can take out a marginal machine.
        cascade_check(sim, co, barrier_s);
        break;
      }
      default:
        DCB_EXPECTS_MSG(false, "unknown shard message kind");
    }
}

/**
 * Rack-aware placement: the first schedulable node with a free slot of
 * the phase's kind, scanning the task's preferred rack (input splits
 * round-robin over racks) first, then the others in order, and never
 * `exclude`. Returns -1 when no node qualifies.
 */
std::int64_t
place(const Sim& sim, std::uint32_t task, bool is_reduce,
      std::int64_t exclude = -1)
{
    const std::uint32_t racks = sim.topo.racks();
    std::uint32_t r = task % racks;
    for (std::uint32_t off = 0; off < racks;
         ++off, r = (r + 1 == racks ? 0 : r + 1)) {
        for (std::uint32_t n = sim.rack_bounds[r];
             n < sim.rack_bounds[r + 1]; ++n) {
            // Free slots first: on a busy cluster most nodes fail there.
            const NodeMirror& nm = sim.mirror[n];
            if ((is_reduce ? nm.free_reduce : nm.free_map) != 0 &&
                nm.alive && !nm.partitioned && !nm.blacklisted &&
                n != exclude)
                return n;
        }
    }
    return -1;
}

/** Grant one attempt of `task` in job `j`'s current phase on node `n`.
    Every first copy gets a speculation check, a backup none. */
void
launch(Sim& sim, Coordinator& co, std::uint32_t j, std::uint32_t task,
       std::uint32_t n, double barrier_s, bool backup)
{
    JobState& job = sim.jobs[j];
    const bool is_reduce = job.in_reduce;
    NodeMirror& nm = sim.mirror[n];
    if (is_reduce)
        --nm.free_reduce;
    else
        --nm.free_map;
    TaskState& ts = job.tasks[task];
    // A backup shadows a live latest attempt, which becomes its twin; a
    // first copy replaces one that no longer runs.
    DCB_EXPECTS(backup == ts.live);
    if (backup)
        job.twins.push_back({task, ts.attempt_no, ts.node, ts.time});
    ++ts.attempt_no;
    ts.backed_up = backup;
    ts.status = TaskStatus::kRunning;
    ts.live = true;
    ts.node = n;
    ts.time = barrier_s;
    ++sim.live_attempts;
    const std::uint32_t packed =
        launch_packed(sim, job, task, ts.attempt_no, n);
    const bool remote = (packed & kFlagRemote) != 0;
    const double speed =
        sim.armed ? fault::planned_speed_multiplier(sim.plan, n) : 1.0;
    const double task_s =
        is_reduce ? job.profile.reduce_task_s : job.profile.map_task_s;
    const double nominal =
        task_s * speed * (remote ? sim.cfg.remote_penalty : 1.0);
    ++job.running;
    if (job.out.first_launch_s < 0.0)
        job.out.first_launch_s = barrier_s;
    if (!is_reduce) {
        if (remote)
            ++job.out.remote_map_launches;
        else
            ++job.out.local_map_launches;
    }
    job.out.max_task_attempts = std::max<std::uint32_t>(
        job.out.max_task_attempts, ts.attempts_used + 1u);
    co.push(sim.node_rack[n], barrier_s, kEvLaunch, j, task, n, packed,
            nominal);
    if (sim.metrics != nullptr)
        ++sim.job_metrics[j].grants_tally;
    if (backup) {
        ++job.out.speculative_launched;
        if (sim.trace != nullptr)
            sim.trace->instant("speculate", "sched",
                               obs::TraceWriter::kClusterPid, 910000 + j,
                               barrier_s * 1e6);
        return;
    }
    if (sim.trace != nullptr)
        (remote ? sim.grant_tids_remote : sim.grant_tids_local)
            .push_back(910000 + static_cast<std::uint64_t>(j));
    if (!job.degraded)
        job.spec_first.push_back(
            {barrier_s + kSpeculativeSlowdown * task_s, task, ts.attempt_no});
}

/**
 * One weighted fair-share grant pass; returns grants made. Deficit
 * pick: the runnable job with the least running work per unit weight,
 * ties to the earliest submission, from a min-heap of (share, job). A
 * grant changes only its own job's share, so only that job is re-pushed;
 * a job whose placement fails stays out for the rest of the pass.
 */
std::uint64_t
grant_pass(Sim& sim, Coordinator& co, double barrier_s)
{
    const auto share = [&sim](std::uint32_t j) {
        const JobState& job = sim.jobs[j];
        return static_cast<double>(job.running) / job.sub.weight;
    };
    using Pick = std::pair<double, std::uint32_t>;
    std::vector<Pick>& heap = sim.grant_heap;
    heap.clear();
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        const JobState& job = sim.jobs[j];
        if (job.admitted && !job.finished && !job.ready.empty())
            heap.emplace_back(share(j), j);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    std::uint64_t grants = 0;
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const std::uint32_t j = heap.back().second;
        heap.pop_back();
        JobState& job = sim.jobs[j];
        const std::uint32_t task = job.ready.front();
        const std::int64_t node = place(sim, task, job.in_reduce);
        if (node < 0)
            continue;
        job.ready.pop_front();
        launch(sim, co, j, task, static_cast<std::uint32_t>(node),
               barrier_s, false);
        ++grants;
        if (!job.ready.empty()) {
            heap.emplace_back(share(j), j);
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
    }
    return grants;
}

/**
 * Speculation pass, after the grants: every first copy that has run
 * kSpeculativeSlowdown x its task's profile time without reporting gets
 * one backup on another node, in a slot the grant pass left free. Only
 * the due checks are touched; a check that finds no slot is retried
 * kSpeculativeRecheck x the profile time later.
 */
void
speculate(Sim& sim, Coordinator& co, double barrier_s)
{
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        JobState& job = sim.jobs[j];
        if (!job.admitted || job.finished)
            continue;
        const double task_s =
            job.in_reduce ? job.profile.reduce_task_s : job.profile.map_task_s;
        for (std::deque<SpecCheck>* queue :
             {&job.spec_recheck, &job.spec_first}) {
            while (!queue->empty() && queue->front().due <= barrier_s) {
                SpecCheck check = queue->front();
                queue->pop_front();
                // Still the task's latest attempt, and still running: no
                // report yet and no backup (a backup is the next attempt).
                const TaskState& ts = job.tasks[check.task];
                if (ts.status != TaskStatus::kRunning ||
                    ts.attempt_no != check.attempt)
                    continue;
                DCB_EXPECTS(ts.live);
                const std::int64_t node =
                    place(sim, check.task, job.in_reduce, ts.node);
                if (node < 0) {
                    check.due = barrier_s + kSpeculativeRecheck * task_s;
                    job.spec_recheck.push_back(check);
                    continue;
                }
                launch(sim, co, j, check.task,
                       static_cast<std::uint32_t>(node), barrier_s, true);
            }
        }
    }
}

/** The barrier callback: the whole serial coordinator. */
bool
on_barrier(Sim& sim, double barrier_s,
           const std::vector<ShardMessage>& inbox, Coordinator& co)
{
    // (a) Admissions.
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        JobState& job = sim.jobs[j];
        if (job.admitted || job.sub.submit_time_s > barrier_s)
            continue;
        job.admitted = true;
        job.out.submit_s = job.sub.submit_time_s;
        start_map_phase(sim, j, job.sub.submit_time_s);
        if (sim.trace != nullptr)
            sim.trace->name_thread(obs::TraceWriter::kClusterPid,
                                   910000 + j, job.out.name);
    }

    // (b) Messages, with the master crash applied at its exact spot in
    // the merged timeline: reports after the crash find their attempt
    // records gone (the standby never heard of them) and are stale.
    const bool crash_pending =
        sim.armed && sim.plan.master_crash_time_s >= 0.0 &&
        !sim.master_crash_applied &&
        barrier_s >= sim.plan.master_crash_time_s;
    for (const ShardMessage& msg : inbox) {
        if (crash_pending && !sim.master_crash_applied &&
            msg.time > sim.plan.master_crash_time_s)
            apply_master_crash(sim, co, barrier_s);
        process_message(sim, co, msg, barrier_s);
    }
    if (crash_pending && !sim.master_crash_applied)
        apply_master_crash(sim, co, barrier_s);

    // (c) Failover completes: the standby takes over.
    if (sim.master_crash_applied && !sim.failover_done &&
        barrier_s >= sim.frozen_until) {
        sim.failover_done = true;
        ++sim.out.master_failovers;
        if (sim.failovers_total != nullptr)
            sim.failovers_total->inc();
        record_fault(sim, fault::FaultKind::kMasterFailover,
                     sim.frozen_until, 0, 0, 0);
        cascade_check(sim, co, barrier_s);
    }

    // (d) Per-job phase machinery.
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        JobState& job = sim.jobs[j];
        if (!job.admitted || job.finished)
            continue;
        while (!job.delayed.empty() &&
               job.delayed.front().first <= barrier_s) {
            std::pop_heap(job.delayed.begin(), job.delayed.end(),
                          std::greater<>());
            const std::uint32_t task = job.delayed.back().second;
            job.delayed.pop_back();
            DCB_EXPECTS(job.tasks[task].status == TaskStatus::kDelayed);
            requeue_task(job, task);
        }
        if (!job.in_reduce &&
            job.done_in_phase == job.profile.map_count &&
            barrier_s >= job.shuffle_ready)
            start_reduce_phase(sim, j, barrier_s);
        if (job.in_reduce &&
            job.done_in_phase == job.profile.reduce_count) {
            if (sim.trace != nullptr) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "reduce i%u", job.iter);
                sim.trace->complete(buf, "phase",
                                    obs::TraceWriter::kClusterPid,
                                    910000 + j, job.phase_start * 1e6,
                                    (barrier_s - job.phase_start) *
                                        1e6);
            }
            ++job.iter;
            if (job.iter < job.sub.spec.iterations) {
                start_map_phase(sim, j, barrier_s);
            } else {
                finish_job(sim, j, job.last_completion, true, "");
            }
        }
    }

    // (e) Weighted fair-share grants, then backups for stragglers
    // (both suspended during failover).
    std::uint64_t grants = 0;
    if (!(sim.master_crash_applied && !sim.failover_done &&
          barrier_s < sim.frozen_until)) {
        grants = grant_pass(sim, co, barrier_s);
        speculate(sim, co, barrier_s);
    }

    // (f) Continue, wake, or stop.
    bool any_active = false;
    bool any_future = false;
    double wake = kInf;
    for (const JobState& job : sim.jobs) {
        if (!job.admitted) {
            any_future = true;
            wake = std::min(wake, job.sub.submit_time_s);
            continue;
        }
        if (job.finished)
            continue;
        any_active = true;
        if (!job.delayed.empty())
            wake = std::min(wake, job.delayed.front().first);
        if (!job.in_reduce &&
            job.done_in_phase == job.profile.map_count)
            wake = std::min(wake, job.shuffle_ready);
    }
    if (sim.master_crash_applied && !sim.failover_done)
        wake = std::min(wake, sim.frozen_until);
    if (!any_active && !any_future)
        return false;
    if (std::isfinite(wake) && wake > barrier_s)
        co.push(0, wake, kEvWake);
    // Nothing running, nothing granted, nothing scheduled to change:
    // the cluster can no longer serve the remaining work.
    if (any_active && sim.live_attempts == 0 && grants == 0 &&
        !std::isfinite(wake) && barrier_s > sim.last_fault_time) {
        for (std::uint32_t j = 0; j < sim.jobs.size(); ++j)
            if (sim.jobs[j].admitted && !sim.jobs[j].finished)
                finish_job(sim, j, barrier_s, false,
                           "no schedulable nodes left with work "
                           "remaining");
        return false;
    }
    return true;
}

/** Flush the per-job hot-path tallies into the locked series. */
void
flush_job_metrics(Sim& sim)
{
    for (JobMetrics& m : sim.job_metrics) {
        if (m.grants_tally != m.grants_flushed) {
            m.grants->add(
                static_cast<double>(m.grants_tally - m.grants_flushed));
            m.grants_flushed = m.grants_tally;
        }
        if (m.completions_tally != m.completions_flushed) {
            m.completions->add(static_cast<double>(
                m.completions_tally - m.completions_flushed));
            m.completions_flushed = m.completions_tally;
        }
        if (m.failures_tally != m.failures_flushed) {
            m.failures->add(static_cast<double>(m.failures_tally -
                                                m.failures_flushed));
            m.failures_flushed = m.failures_tally;
        }
        if (m.kills_tally != m.kills_flushed) {
            m.kills->add(
                static_cast<double>(m.kills_tally - m.kills_flushed));
            m.kills_flushed = m.kills_tally;
        }
        if (!m.latency_batch.empty()) {
            m.attempt_latency->observe_many(m.latency_batch.data(),
                                            m.latency_batch.size());
            m.latency_batch.clear();
        }
    }
}

/**
 * Post-barrier observation pass: runs after on_barrier on the
 * coordinating thread (workers still parked), in fixed shard order, so
 * every update is deterministic regardless of thread count. Never
 * mutates simulation state.
 */
void
observe_barrier(Sim& sim, double barrier_s, std::size_t inbox_size)
{
    const std::uint64_t barrier_index = sim.barriers_seen++;
    if (sim.trace != nullptr) {
        sim.trace->instants("grant", "sched",
                            obs::TraceWriter::kClusterPid,
                            barrier_s * 1e6,
                            sim.grant_tids_local.data(),
                            sim.grant_tids_local.size());
        sim.trace->instants("grant remote", "sched",
                            obs::TraceWriter::kClusterPid,
                            barrier_s * 1e6,
                            sim.grant_tids_remote.data(),
                            sim.grant_tids_remote.size());
        sim.grant_tids_local.clear();
        sim.grant_tids_remote.clear();
    }
    // Uplink transfers that drained by this barrier leave the queue.
    for (std::uint32_t s = 0; s < sim.uplink_ends.size(); ++s) {
        std::vector<double>& ends = sim.uplink_ends[s];
        ends.erase(std::remove_if(ends.begin(), ends.end(),
                                  [barrier_s](double end) {
                                      return end <= barrier_s;
                                  }),
                   ends.end());
        const auto depth = static_cast<std::int64_t>(ends.size());
        if (sim.trace != nullptr &&
            depth != sim.uplink_depth_last[s]) {
            sim.trace->counter(sim.uplink_tracks[s], "uplink",
                               obs::TraceWriter::kClusterPid,
                               920000 + s, barrier_s * 1e6, "depth",
                               static_cast<double>(depth));
        }
        sim.uplink_depth_last[s] = depth;
    }
    if (sim.metrics == nullptr)
        return;
    flush_job_metrics(sim);
    for (std::uint32_t s = 0; s < sim.shard_metrics.size(); ++s) {
        const ShardLocal& sh = sim.shards[s];
        ShardMetrics& m = sim.shard_metrics[s];
        m.heartbeats->set(static_cast<double>(sh.heartbeats));
        m.slot_busy->set(sh.slot_busy_s);
        m.uplink_wait->set(sh.uplink_wait_s);
        m.uplink_depth->set(
            static_cast<double>(sim.uplink_ends[s].size()));
    }
    sim.running_gauge->set(static_cast<double>(sim.live_attempts));
    sim.metrics->snapshot(barrier_index, inbox_size);
}

/** Register every scheduler series up front (before any snapshot). */
void
arm_metrics(Sim& sim, std::uint32_t shard_count)
{
    obs::MetricsRegistry& reg = *sim.metrics;
    sim.job_metrics.resize(sim.jobs.size());
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        obs::MetricLabels l;
        l.job = static_cast<std::int32_t>(j);
        JobMetrics& m = sim.job_metrics[j];
        m.grants = reg.counter("dcb_job_grants_total", l);
        m.completions = reg.counter("dcb_job_tasks_completed_total", l);
        m.failures = reg.counter("dcb_job_task_failures_total", l);
        m.kills = reg.counter("dcb_job_task_kills_total", l);
        m.attempt_latency =
            reg.histogram("dcb_job_attempt_latency_seconds", l);
    }
    sim.shard_metrics.resize(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        obs::MetricLabels l;
        l.shard = static_cast<std::int32_t>(s);
        l.rack = static_cast<std::int32_t>(s);  // shard == rack here
        ShardMetrics& m = sim.shard_metrics[s];
        m.heartbeats = reg.gauge("dcb_shard_progress_heartbeats", l);
        m.slot_busy = reg.gauge("dcb_shard_slot_busy_seconds", l);
        m.uplink_wait = reg.gauge("dcb_shard_uplink_wait_seconds", l);
        m.uplink_depth = reg.gauge("dcb_shard_uplink_queue_depth", l);
        m.epoch_events = reg.gauge("dcb_shard_epoch_events", l);
    }
    sim.faults_total = reg.counter("dcb_cluster_faults_total");
    sim.checkpoints_total = reg.counter("dcb_cluster_checkpoints_total");
    sim.failovers_total = reg.counter("dcb_cluster_failovers_total");
    sim.blacklist_total =
        reg.counter("dcb_cluster_nodes_blacklisted_total");
    sim.unblacklist_total =
        reg.counter("dcb_cluster_nodes_unblacklisted_total");
    sim.running_gauge = reg.gauge("dcb_cluster_running_attempts");
}

}  // namespace

// =====================================================================
// Public API
// =====================================================================

std::string
validate(const FairShareConfig& config)
{
    if (config.heartbeat_s <= 0.0)
        return "FairShareConfig.heartbeat_s must be positive (it is "
               "the engine's conservative lookahead)";
    if (config.max_attempts == 0)
        return "FairShareConfig.max_attempts must be >= 1";
    if (config.max_attempts >= (1u << kAttemptBits))
        return "FairShareConfig.max_attempts too large to encode";
    if (config.backoff_base_s <= 0.0)
        return "FairShareConfig.backoff_base_s must be positive";
    if (config.backoff_factor < 1.0)
        return "FairShareConfig.backoff_factor must be >= 1";
    if (config.backoff_jitter < 0.0 || config.backoff_jitter >= 1.0)
        return "FairShareConfig.backoff_jitter must be in [0, 1)";
    if (config.blacklist_task_failures == 0)
        return "FairShareConfig.blacklist_task_failures must be >= 1";
    if (config.task_timeout_factor <= 2.5)
        return "FairShareConfig.task_timeout_factor must exceed the "
               "2.5x attempt-jitter clamp or healthy tasks trip the "
               "watchdog";
    if (config.checkpoint_interval_s <= 0.0)
        return "FairShareConfig.checkpoint_interval_s must be positive";
    if (config.failover_delay_s < 0.0)
        return "FairShareConfig.failover_delay_s must be >= 0";
    if (config.remote_penalty < 1.0)
        return "FairShareConfig.remote_penalty must be >= 1 (off-rack "
               "is never faster)";
    if (config.attempt_jitter_sigma < 0.0 ||
        config.attempt_jitter_sigma > 1.0)
        return "FairShareConfig.attempt_jitter_sigma must be in [0, 1]";
    if (config.uplink_oversubscription < 1.0)
        return "FairShareConfig.uplink_oversubscription must be >= 1";
    return "";
}

bool
MultiJobResult::all_completed() const
{
    for (const JobOutcome& job : jobs)
        if (!job.completed)
            return false;
    return ok && !jobs.empty();
}

std::string
MultiJobResult::dump() const
{
    // Canonical text of every deterministic field; %.17g doubles so a
    // bit-level divergence anywhere shows up as a text diff. Host-side
    // timings (ShardStats seconds) are intentionally absent.
    std::string out = "multijob-dump v1\n";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "run ok=%d error=%s makespan=%.17g epochs=%" PRIu64
                  " events=%" PRIu64 "\n",
                  ok ? 1 : 0, error.empty() ? "-" : error.c_str(),
                  makespan_s, epochs, events);
    out += buf;
    for (const JobOutcome& j : jobs) {
        std::snprintf(
            buf, sizeof buf,
            "job name=%s completed=%d error=%s submit=%.17g "
            "first_launch=%.17g finish=%.17g maps=%" PRIu64
            " reduces=%" PRIu64
            " failures=%u watchdog=%u max_attempts=%u local=%" PRIu64
            " remote=%" PRIu64 " wasted=%.17g uplink_wait=%.17g"
            " speculative=%u reexecuted=%u degraded=%u\n",
            j.name.c_str(), j.completed ? 1 : 0,
            j.error.empty() ? "-" : j.error.c_str(), j.submit_s,
            j.first_launch_s, j.finish_s, j.maps_completed,
            j.reduces_completed, j.task_failures, j.watchdog_kills,
            j.max_task_attempts, j.local_map_launches,
            j.remote_map_launches, j.wasted_task_s, j.uplink_wait_s,
            j.speculative_launched, j.maps_reexecuted, j.degraded_phases);
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "job_attempts name=%s n=%" PRIu64
                      " p50=%.17g p95=%.17g p99=%.17g p999=%.17g ",
                      j.name.c_str(), j.attempt_durations.count,
                      j.attempt_durations.p50, j.attempt_durations.p95,
                      j.attempt_durations.p99,
                      j.attempt_durations.p999);
        out += buf;
        out += j.attempt_sketch.dump();
        out += '\n';
    }
    std::snprintf(
        buf, sizeof buf,
        "cluster nodes_lost=%u racks_lost=%u partitions=%u heals=%u "
        "blacklisted=%u unblacklisted=%u failovers=%u checkpoints=%u "
        "cascades=%u lost_to_failover=%" PRIu64 " slot_busy=%.17g\n",
        cluster.nodes_lost, cluster.racks_lost, cluster.partitions,
        cluster.partition_heals, cluster.nodes_blacklisted,
        cluster.nodes_unblacklisted, cluster.master_failovers,
        cluster.checkpoints_taken, cluster.cascades_triggered,
        cluster.tasks_lost_to_failover, cluster.slot_busy_s);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "cluster_attempts n=%" PRIu64
                  " p50=%.17g p95=%.17g p99=%.17g p999=%.17g ",
                  attempt_durations.count, attempt_durations.p50,
                  attempt_durations.p95, attempt_durations.p99,
                  attempt_durations.p999);
    out += buf;
    out += attempt_sketch.dump();
    out += '\n';
    for (std::size_t s = 0; s < shard_util.size(); ++s) {
        std::uint64_t events_s =
            s < shards.size() ? shards[s].events_processed : 0;
        std::snprintf(buf, sizeof buf,
                      "shard %zu events=%" PRIu64 " heartbeats=%" PRIu64
                      " slot_busy=%.17g uplink_wait=%.17g\n",
                      s, events_s, shard_util[s].progress_heartbeats,
                      shard_util[s].slot_busy_s,
                      shard_util[s].uplink_wait_s);
        out += buf;
    }
    return out;
}

MultiJobScheduler::MultiJobScheduler(const FairShareConfig& config)
    : config_(config)
{
}

MultiJobResult
MultiJobScheduler::run(const std::vector<JobSubmission>& submissions,
                       const ClusterConfig& cluster,
                       const MultiJobOptions& options) const
{
    MultiJobResult result;
    if (std::string err = validate(config_); !err.empty()) {
        result.error = err;
        return result;
    }
    if (std::string err = validate(cluster); !err.empty()) {
        result.error = err;
        return result;
    }
    if (submissions.empty()) {
        result.error = "no jobs submitted";
        return result;
    }
    for (std::size_t i = 0; i < submissions.size(); ++i) {
        if (std::string err = validate(submissions[i].spec);
            !err.empty()) {
            result.error = "job " + std::to_string(i) + ": " + err;
            return result;
        }
        if (!(submissions[i].weight > 0.0)) {
            result.error = "job " + std::to_string(i) +
                           ": fair-share weight must be positive";
            return result;
        }
        if (submissions[i].submit_time_s < 0.0) {
            result.error = "job " + std::to_string(i) +
                           ": submit_time_s must be >= 0";
            return result;
        }
    }

    // A fault aimed at a node or rack the cluster does not have is a
    // configuration error, never a fault to wrap onto another target.
    if (options.injector != nullptr) {
        const fault::FaultPlan& plan = options.injector->plan();
        const auto outside = [&](const char* field, std::uint32_t target,
                                 std::uint32_t count, const char* unit) {
            result.error = std::string("FaultPlan.") + field + " " +
                           std::to_string(target) + " is outside the " +
                           std::to_string(count) + "-" + unit +
                           " cluster";
        };
        if (plan.node_crash_time_s >= 0.0 &&
            plan.crash_node >= cluster.slaves)
            outside("crash_node", plan.crash_node, cluster.slaves, "node");
        else if (plan.rack_crash_time_s >= 0.0 &&
                 plan.crash_rack >= cluster.racks)
            outside("crash_rack", plan.crash_rack, cluster.racks, "rack");
        else if (plan.partition_time_s >= 0.0 &&
                 plan.partition_rack >= cluster.racks)
            outside("partition_rack", plan.partition_rack, cluster.racks,
                    "rack");
        if (!result.error.empty())
            return result;
    }

    Sim sim;
    sim.cfg = config_;
    sim.cluster = cluster;
    sim.injector = options.injector;
    sim.trace = options.trace;
    sim.metrics = options.metrics;
    if (options.injector != nullptr)
        sim.plan = options.injector->plan();
    sim.armed = options.injector != nullptr && sim.plan.any_faults();
    sim.topo = fault::Topology(cluster.slaves, cluster.racks);
    const std::uint32_t shard_count = sim.topo.racks();

    sim.nodes.resize(cluster.slaves);
    sim.mirror.resize(cluster.slaves);
    for (std::uint32_t n = 0; n < cluster.slaves; ++n) {
        sim.nodes[n].free_map =
            static_cast<std::uint16_t>(cluster.map_slots);
        sim.nodes[n].free_reduce =
            static_cast<std::uint16_t>(cluster.reduce_slots);
        sim.mirror[n].free_map = sim.nodes[n].free_map;
        sim.mirror[n].free_reduce = sim.nodes[n].free_reduce;
    }
    for (std::uint32_t r = 0; r < shard_count; ++r) {
        sim.rack_bounds.push_back(sim.topo.rack_begin(r));
        sim.node_rack.resize(sim.topo.rack_end(r), r);
    }
    sim.rack_bounds.push_back(sim.topo.nodes());
    sim.shards.resize(shard_count);
    const double node_bw = cluster.network.bandwidth_mb_s * kMiB;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        sim.shards[s].uplink_bw =
            std::max(1.0, (sim.rack_bounds[s + 1] - sim.rack_bounds[s]) *
                              node_bw /
                              config_.uplink_oversubscription);
    }

    for (std::uint32_t s = 0; s < shard_count; ++s)
        sim.shards[s].job_attempt_s.assign(
            submissions.size(),
            obs::QuantileSketch(kShardAttemptEpsilon));
    sim.jobs.resize(submissions.size());
    double budget_units = 0.0;
    for (std::uint32_t j = 0; j < submissions.size(); ++j) {
        JobState& job = sim.jobs[j];
        job.sub = submissions[j];
        job.profile = derive_task_profile(job.sub.spec, cluster);
        job.out.name = job.sub.name.empty()
                           ? job.sub.spec.name + "#" + std::to_string(j)
                           : job.sub.name;
        job.out.submit_s = job.sub.submit_time_s;
        const double cross =
            shard_count > 1
                ? (static_cast<double>(shard_count) - 1.0) / shard_count
                : 0.0;
        job.per_map_cross_bytes =
            job.profile.inter_bytes /
            (static_cast<double>(job.sub.spec.iterations) *
             job.profile.map_count) *
            cross;
        // Event-budget estimate: launches, terminals, watchdogs and
        // heartbeats per attempt, across every retry.
        const double hb = config_.heartbeat_s;
        budget_units +=
            static_cast<double>(job.sub.spec.iterations) *
            config_.max_attempts *
            (job.profile.map_count *
                 (6.0 + 3.0 * job.profile.map_task_s / hb) +
             job.profile.reduce_count *
                 (6.0 + 3.0 * job.profile.reduce_task_s / hb));
    }

    // Arm the observability plane before anything can snapshot: every
    // series must exist when the first barrier freezes the column set.
    const bool observed =
        sim.trace != nullptr || sim.metrics != nullptr;
    if (observed) {
        sim.uplink_ends.resize(shard_count);
        sim.uplink_depth_last.assign(shard_count, -1);
        if (sim.trace != nullptr)
            for (std::uint32_t s = 0; s < shard_count; ++s)
                sim.uplink_tracks.push_back("uplink r" +
                                            std::to_string(s));
        sim.blacklist_since.assign(cluster.slaves, -1.0);
    }
    if (sim.metrics != nullptr)
        arm_metrics(sim, shard_count);
    if (sim.trace != nullptr)
        sim.trace->name_thread(obs::TraceWriter::kClusterPid, 930000,
                               "coordinator");

    ShardedEngine engine(shard_count, config_.heartbeat_s,
                         sim.plan.seed);
    engine.set_event_budget(
        static_cast<std::uint64_t>(64.0 * budget_units) + 1'000'000);
    if (observed) {
        engine.set_epoch_observer(
            [&sim](std::uint64_t epoch, double begin_s, double barrier_s,
                   const std::vector<ShardedEngine::EpochShardView>&
                       views) {
                if (sim.trace != nullptr) {
                    std::uint64_t events = 0;
                    for (const auto& v : views)
                        events += v.events;
                    char name[40];
                    std::snprintf(name, sizeof name, "epoch %" PRIu64,
                                  epoch);
                    char args[48];
                    std::snprintf(args, sizeof args,
                                  "{\"events\": %" PRIu64 "}", events);
                    sim.trace->complete(
                        name, "epoch", obs::TraceWriter::kClusterPid,
                        930000, begin_s * 1e6,
                        (barrier_s - begin_s) * 1e6, args);
                    // Per-shard barrier waits: the simulated-time gap
                    // between a shard's last event and the barrier.
                    for (std::uint32_t s = 0; s < views.size(); ++s) {
                        const auto& v = views[s];
                        if (v.events == 0 || v.last_event_s < 0.0 ||
                            barrier_s <= v.last_event_s)
                            continue;
                        sim.trace->complete(
                            "wait", "barrier-wait",
                            obs::TraceWriter::kClusterPid, 920000 + s,
                            v.last_event_s * 1e6,
                            (barrier_s - v.last_event_s) * 1e6);
                    }
                }
                if (sim.metrics != nullptr)
                    for (std::uint32_t s = 0; s < views.size(); ++s)
                        sim.shard_metrics[s].epoch_events->set(
                            static_cast<double>(views[s].events));
            });
    }

    // Seed the pre-scheduled fault timeline as shard events.
    sim.last_fault_time = 0.0;
    if (sim.armed) {
        const fault::FaultPlan& plan = sim.plan;
        if (plan.node_crash_time_s >= 0.0) {
            engine.seed_event(sim.node_rack[plan.crash_node],
                              plan.node_crash_time_s, kEvNodeCrash,
                              plan.crash_node);
            sim.last_fault_time =
                std::max(sim.last_fault_time, plan.node_crash_time_s);
        }
        if (plan.rack_crash_time_s >= 0.0) {
            engine.seed_event(plan.crash_rack, plan.rack_crash_time_s,
                              kEvRackCrash);
            sim.last_fault_time =
                std::max(sim.last_fault_time, plan.rack_crash_time_s);
        }
        if (plan.partition_time_s >= 0.0) {
            const std::uint32_t rack = plan.partition_rack;
            engine.seed_event(rack, plan.partition_time_s,
                              kEvPartitionBegin);
            engine.seed_event(rack,
                              plan.partition_time_s +
                                  plan.partition_duration_s,
                              kEvPartitionHeal);
            sim.last_fault_time = std::max(
                sim.last_fault_time,
                plan.partition_time_s + plan.partition_duration_s);
        }
        if (plan.master_crash_time_s >= 0.0) {
            engine.seed_event(0, plan.master_crash_time_s, kEvWake);
            sim.last_fault_time = std::max(
                sim.last_fault_time, plan.master_crash_time_s +
                                         config_.failover_delay_s);
        }
    }

    const EngineResult er = engine.run(
        [&sim](std::uint32_t s, const ShardEvent& ev, ShardApi& api) {
            shard_event(sim, s, ev, api);
        },
        [&sim, observed](double barrier_s,
                         const std::vector<ShardMessage>& inbox,
                         Coordinator& co) {
            const bool keep = on_barrier(sim, barrier_s, inbox, co);
            if (observed)
                observe_barrier(sim, barrier_s, inbox.size());
            return keep;
        },
        options.threads);

    // Anything still open after the engine drained is a failure the
    // barrier logic could not classify.
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        JobState& job = sim.jobs[j];
        if (job.finished)
            continue;
        finish_job(sim, j, er.end_time_s, false,
                   er.budget_exceeded
                       ? "event budget exceeded (livelock guard)"
                       : (job.admitted ? "simulation stalled"
                                       : "never admitted"));
    }

    result.ok = true;
    result.makespan_s = er.end_time_s;
    result.epochs = er.epochs;
    result.events = er.events;
    result.shards = er.shards;
    result.cluster = sim.out;
    // Fold the shard-local attempt sketches: shard order per job, then
    // submission order for the cluster sketch. Any other order would
    // change the merged byte layout (not its error bound) and break the
    // serial/sharded dump identity.
    for (std::uint32_t j = 0; j < sim.jobs.size(); ++j) {
        obs::QuantileSketch& sk = sim.jobs[j].out.attempt_sketch;
        for (std::uint32_t s = 0; s < shard_count; ++s)
            sk.merge(sim.shards[s].job_attempt_s[j]);
        sim.jobs[j].out.attempt_durations = obs::latency_stats(sk);
        result.attempt_sketch.merge(sk);
    }
    result.attempt_durations = obs::latency_stats(result.attempt_sketch);
    result.jobs.reserve(sim.jobs.size());
    for (JobState& job : sim.jobs)
        result.jobs.push_back(job.out);
    result.shard_util.resize(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        result.shard_util[s].progress_heartbeats =
            sim.shards[s].heartbeats;
        result.shard_util[s].slot_busy_s = sim.shards[s].slot_busy_s;
        result.shard_util[s].uplink_wait_s =
            sim.shards[s].uplink_wait_s;
        result.cluster.slot_busy_s += sim.shards[s].slot_busy_s;
    }
    // Close blacklist spans still open at the end of the run.
    if (!sim.blacklist_since.empty())
        for (std::uint32_t n = 0; n < cluster.slaves; ++n)
            close_blacklist_span(sim, n, result.makespan_s);
    if (sim.trace != nullptr) {
        for (std::uint32_t s = 0; s < shard_count; ++s) {
            char name[32];
            std::snprintf(name, sizeof name, "shard r%u", s);
            sim.trace->name_thread(obs::TraceWriter::kClusterPid,
                                   920000 + s, name);
            char args[160];
            std::snprintf(args, sizeof args,
                          "{\"events\": %" PRIu64
                          ", \"heartbeats\": %" PRIu64
                          ", \"steals\": %" PRIu64 "}",
                          er.shards[s].events_processed,
                          sim.shards[s].heartbeats,
                          er.shards[s].steals);
            sim.trace->complete(name, "shard",
                                obs::TraceWriter::kClusterPid,
                                920000 + s, 0.0,
                                result.makespan_s * 1e6, args);
        }
    }
    // Host-side engine stats: registered after the last snapshot, so
    // they render in the Prometheus text without ever entering the
    // (deterministic) snapshot columns.
    if (sim.metrics != nullptr) {
        // Tail flush: terminal messages processed after the last
        // barrier's observation pass still land in the series.
        flush_job_metrics(sim);
        for (std::uint32_t s = 0; s < shard_count; ++s) {
            obs::MetricLabels l;
            l.shard = static_cast<std::int32_t>(s);
            sim.metrics->gauge("dcb_host_shard_busy_seconds", l)
                ->set(er.shards[s].busy_seconds);
            sim.metrics->gauge("dcb_host_shard_steals", l)
                ->set(static_cast<double>(er.shards[s].steals));
        }
        sim.metrics->gauge("dcb_host_engine_parallel_seconds")
            ->set(er.parallel_seconds);
        sim.metrics->gauge("dcb_host_engine_coordinator_seconds")
            ->set(er.coordinator_seconds);
        sim.metrics->gauge("dcb_host_engine_idle_seconds")
            ->set(er.idle_seconds);
    }
    return result;
}

}  // namespace dcb::mapreduce
