#ifndef DCBENCH_MAPREDUCE_SHARD_ENGINE_H_
#define DCBENCH_MAPREDUCE_SHARD_ENGINE_H_

/**
 * @file
 * Sharded conservative-barrier discrete-event core.
 *
 * One global event queue caps a discrete-event cluster model at a few
 * hundred simulated nodes. This engine partitions the simulation into
 * shards (the multi-job scheduler maps one rack to one shard), each with
 * its own event queue, RNG stream and outbox, and advances all shards in
 * parallel between epoch barriers:
 *
 *   - Lookahead bound. Cross-shard interaction is only possible through
 *     the coordinator, and the minimum cross-shard reaction latency of
 *     the modeled system (a Hadoop heartbeat / cross-rack RPC) is the
 *     engine's `lookahead_s`. Any event a shard processes in epoch
 *     [B, B') can therefore only influence other shards at time >= B',
 *     so shards advance through an epoch with no locks at all.
 *
 *   - Epoch barrier. Epoch ends snap to the lookahead grid: with t_min
 *     the earliest pending event across shards, the epoch processes
 *     every local event with time < (floor(t_min / L) + 1) * L. Empty
 *     grid cells are skipped wholesale, so sparse phases cost nothing.
 *
 *   - Epoch-sorted queues. A shard's queue is an unsorted vector plus
 *     its earliest time, so pushes before an epoch are appends. At
 *     epoch start the shard's due events are partitioned to the front
 *     and sorted by (time, seq) -- a total order, since seq is unique
 *     within a shard -- and the drain merges that run with a heap of
 *     the epoch's own same-epoch pushes. The heap belongs to the worker
 *     lane (it is empty between drains); pushes for later epochs reuse
 *     the run's consumed slots before they append. Events run in the
 *     order one (time, seq) heap per shard would pop them.
 *
 *   - Deterministic merge. Messages emitted during an epoch carry
 *     (emit time, source shard, per-shard sequence). A shard sends in
 *     nondecreasing time within an epoch, so each outbox is already in
 *     (time, seq) order, and the barrier merges the outboxes into one
 *     inbox in (time, source shard, seq) order for the coordinator.
 *     Together with shard-private state and per-shard Rng::stream
 *     draws, this makes the run a pure function of the seeded inputs:
 *     a 1-thread run and an N-thread run produce bit-identical results
 *     (regression-checked in tests/shard_engine_test.cc).
 *
 * Workers rendezvous on a generation barrier: run() parks one task per
 * worker on a util::ThreadPool once, and each epoch is published with a
 * single atomic generation bump. Each worker lane first claims its home
 * shards (shard % lanes, one atomic counter per lane), so a shard stays
 * in one core's cache from epoch to epoch, then steals from the other
 * lanes' counters; per-epoch overhead is a few atomics per worker rather
 * than a queue round-trip per shard.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace dcb::mapreduce {

/** One pending event inside a shard-local queue. */
struct ShardEvent
{
    double time = 0.0;        ///< simulated seconds
    std::uint64_t seq = 0;    ///< shard-local push order (tie-break)
    std::uint32_t kind = 0;   ///< model-defined discriminator
    std::uint32_t a = 0;      ///< model payload
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t d = 0;
    double x = 0.0;
};

/**
 * One cross-shard message, delivered to the coordinator at the next
 * barrier. (time, from_shard, seq) is the engine's total merge order.
 */
struct ShardMessage
{
    double time = 0.0;
    std::uint32_t from_shard = 0;
    std::uint64_t seq = 0;
    std::uint32_t kind = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t d = 0;
    double x = 0.0;
    double y = 0.0;
};

/** Per-shard execution counters surfaced through results/manifests. */
struct ShardStats
{
    /** Deterministic simulation-side tallies. */
    std::uint64_t events_processed = 0;
    std::uint64_t messages_sent = 0;
    /** Host-side (never part of deterministic dumps): wall seconds
        inside this shard's event handlers. */
    double busy_seconds = 0.0;
    /** Host-side: epochs in which this shard was drained by a worker
        other than its home (shard % workers) -- how often a lane that
        ran out of home shards stole it. 0 on serial runs. */
    std::uint64_t steals = 0;
};

/** What one engine run did. */
struct EngineResult
{
    std::vector<ShardStats> shards;
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;
    double end_time_s = 0.0;  ///< last barrier reached
    /**
     * Host-side wall split (never part of deterministic dumps). The
     * run's wall time is `parallel_seconds` inside the epochs' parallel
     * regions, `coordinator_seconds` on the coordinating thread at the
     * barriers (outbox merge, barrier callback, epoch observer), and a
     * small rest (epoch bounds, worker start and stop). Within the
     * parallel regions each of the `lanes` threads is either running a
     * shard's handlers or idle: summed over shards, busy_seconds +
     * idle_seconds = lanes * parallel_seconds.
     */
    double parallel_seconds = 0.0;
    double coordinator_seconds = 0.0;
    double idle_seconds = 0.0;
    unsigned lanes = 1;  ///< min(threads, shards), at least 1
    /** True when the event budget stopped the run (livelock guard);
        the model decides how to fail its pending work. */
    bool budget_exceeded = false;
};

/**
 * Shard-side API handed to the event callback. All operations touch
 * only the shard's own queue/outbox/RNG, so handlers are lock-free.
 */
class ShardApi
{
  public:
    /** Simulated time of the event being handled. */
    double now() const { return now_; }
    /** End of the current epoch (events pushed below it still run in
        this epoch; at or above it they wait for a later one). */
    double epoch_end() const { return epoch_end_; }

    /** Schedule a shard-local event at `time` (>= now()). */
    void push(double time, std::uint32_t kind, std::uint32_t a = 0,
              std::uint32_t b = 0, std::uint32_t c = 0,
              std::uint32_t d = 0, double x = 0.0);

    /** Emit a message the coordinator sees at the next barrier. `time`
        must be within the current epoch's span (now() is typical) and
        at or after the time of the shard's previous send this epoch,
        which keeps the outbox sorted for the barrier's merge. */
    void send(double time, std::uint32_t kind, std::uint32_t a = 0,
              std::uint32_t b = 0, std::uint32_t c = 0,
              std::uint32_t d = 0, double x = 0.0, double y = 0.0);

    /** This shard's private stream (util::Rng::stream(seed, shard)). */
    util::Rng& rng();

  private:
    friend class ShardedEngine;
    ShardApi(void* shard, void* lane) : shard_(shard), lane_(lane) {}
    void* shard_;            ///< engine-internal Shard
    void* lane_;             ///< engine-internal worker lane
    double now_ = 0.0;
    double epoch_end_ = 0.0;
};

/** Coordinator-side API available inside the barrier callback. */
class Coordinator
{
  public:
    /** Inject an event into `shard` at `time` (>= the barrier time). */
    void push(std::uint32_t shard, double time, std::uint32_t kind,
              std::uint32_t a = 0, std::uint32_t b = 0,
              std::uint32_t c = 0, std::uint32_t d = 0, double x = 0.0);

  private:
    friend class ShardedEngine;
    explicit Coordinator(void* engine) : engine_(engine) {}
    void* engine_;
    double barrier_ = 0.0;
};

/** The sharded conservative-barrier engine; one run() per instance. */
class ShardedEngine
{
  public:
    /** Event handler: runs shard-locally, possibly on a pool worker. */
    using EventFn = std::function<void(std::uint32_t shard,
                                       const ShardEvent& event,
                                       ShardApi& api)>;
    /**
     * Barrier handler: runs on the coordinating thread while every
     * worker is parked, with the epoch's merged messages in
     * (time, from_shard, seq) order. It may mutate any model state and
     * inject events; returning false stops the run. Called once at
     * time 0 with no messages before the first epoch (initial
     * scheduling pass), then once per barrier.
     */
    using BarrierFn = std::function<bool(
        double barrier_s, const std::vector<ShardMessage>& inbox,
        Coordinator& coordinator)>;

    /** Per-shard view of one epoch, handed to the epoch observer. */
    struct EpochShardView
    {
        /** Events this shard processed inside the epoch. */
        std::uint64_t events = 0;
        /** Simulated time of its last event (-1 = idle this epoch).
            The gap to the barrier is the shard's simulated wait. */
        double last_event_s = -1.0;
    };
    /**
     * Epoch observer: runs on the coordinating thread right after each
     * epoch's parallel region (workers parked, before the barrier
     * callback) with deterministic per-shard activity. Observation
     * only -- the cluster's trace/metrics instrumentation hangs here
     * without touching the barrier protocol.
     */
    using EpochFn = std::function<void(
        std::uint64_t epoch_index, double epoch_begin_s,
        double barrier_s, const std::vector<EpochShardView>& shards)>;

    /**
     * `shards` >= 1 queues, epoch grid at `lookahead_s` > 0, per-shard
     * RNG streams derived from `rng_seed`.
     */
    ShardedEngine(std::uint32_t shards, double lookahead_s,
                  std::uint64_t rng_seed);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    /** Schedule an event before run() (initial fault timeline etc.). */
    void seed_event(std::uint32_t shard, double time, std::uint32_t kind,
                    std::uint32_t a = 0, std::uint32_t b = 0,
                    std::uint32_t c = 0, std::uint32_t d = 0,
                    double x = 0.0);

    /** Stop a runaway model after this many events (default 1 << 62). */
    void set_event_budget(std::uint64_t events) { event_budget_ = events; }

    /** Arm the per-epoch observer (see EpochFn). Must precede run(). */
    void set_epoch_observer(EpochFn fn) { epoch_observer_ = std::move(fn); }

    std::uint32_t shard_count() const;
    double lookahead_s() const { return lookahead_; }

    /**
     * Drain every queue to completion. `threads` <= 1 runs everything
     * on the calling thread through the same epoch structure, which is
     * the bit-identity reference for parallel runs.
     */
    EngineResult run(const EventFn& on_event, const BarrierFn& on_barrier,
                     unsigned threads);

  private:
    friend class Coordinator;
    struct Impl;
    Impl* impl_;
    double lookahead_ = 1.0;
    std::uint64_t event_budget_ = std::uint64_t{1} << 62;
    EpochFn epoch_observer_;
};

}  // namespace dcb::mapreduce

#endif  // DCBENCH_MAPREDUCE_SHARD_ENGINE_H_
