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
 *   - Deterministic merge. Messages emitted during an epoch carry
 *     (emit time, source shard, per-shard sequence); the barrier sorts
 *     the union by exactly that triple before the coordinator sees it.
 *     Together with shard-private state and per-shard Rng::stream
 *     draws, this makes the run a pure function of the seeded inputs:
 *     a 1-thread run and an N-thread run produce bit-identical results
 *     (regression-checked in tests/shard_engine_test.cc).
 *
 * Workers rendezvous on a generation barrier: run() parks one task per
 * worker on a util::ThreadPool once, and each epoch is published with a
 * single atomic generation bump. Shards are claimed with a work-stealing
 * index, so per-epoch overhead is a few atomics per worker rather than a
 * queue round-trip per shard.
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
    /** Host-side tallies (never part of deterministic dumps): wall
        seconds inside this shard's event handlers, and wall seconds the
        shard's lane sat idle while the parallel region ran (the load
        imbalance the barrier pays for). */
    double busy_seconds = 0.0;
    double barrier_wait_seconds = 0.0;
    /** Host-side: epochs in which this shard was drained by a worker
        other than its round-robin home (shard % workers) -- how often
        the work-stealing claim index rebalanced it. 0 on serial runs. */
    std::uint64_t steals = 0;
};

/** What one engine run did. */
struct EngineResult
{
    std::vector<ShardStats> shards;
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;
    double end_time_s = 0.0;  ///< last barrier reached
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
        must be within the current epoch's span (now() is typical). */
    void send(double time, std::uint32_t kind, std::uint32_t a = 0,
              std::uint32_t b = 0, std::uint32_t c = 0,
              std::uint32_t d = 0, double x = 0.0, double y = 0.0);

    /** This shard's private stream (util::Rng::stream(seed, shard)). */
    util::Rng& rng();

  private:
    friend class ShardedEngine;
    explicit ShardApi(void* shard) : shard_(shard) {}
    void* shard_;            ///< engine-internal Shard
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
