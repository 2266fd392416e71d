/** @file Tests for the sharded engine and the multi-job scheduler:
    deterministic merge order, serial-vs-sharded bit-identity with and
    without correlated faults, per-shard RNG independence. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/shard_engine.h"
#include "util/rng.h"

namespace dcb::mapreduce {
namespace {

// ---- Raw engine ------------------------------------------------------

/**
 * Messages from different shards at identical times must arrive in
 * (time, from_shard, seq) order regardless of which worker ran which
 * shard -- the engine's total merge order.
 */
TEST(ShardEngine, CrossShardTieBreakOrder)
{
    for (const unsigned threads : {1u, 4u}) {
        ShardedEngine engine(4, 1.0, 42);
        // Same event time everywhere; two messages per shard so the
        // per-shard seq tie-break is exercised too.
        for (std::uint32_t s = 0; s < 4; ++s)
            engine.seed_event(s, 0.5, 1);
        std::vector<ShardMessage> got;
        engine.run(
            [](std::uint32_t shard, const ShardEvent& ev, ShardApi& api) {
                api.send(ev.time, 1, shard, 0);
                api.send(ev.time, 1, shard, 1);
            },
            [&got](double, const std::vector<ShardMessage>& inbox,
                   Coordinator&) {
                got.insert(got.end(), inbox.begin(), inbox.end());
                return true;
            },
            threads);
        ASSERT_EQ(got.size(), 8u) << threads << " threads";
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].from_shard, i / 2) << i;
            EXPECT_EQ(got[i].b, i % 2) << i;
        }
    }
}

/** Local events at the same instant run in push order (seq). */
TEST(ShardEngine, SameShardSeqTieBreak)
{
    ShardedEngine engine(1, 1.0, 7);
    for (std::uint32_t i = 0; i < 5; ++i)
        engine.seed_event(0, 2.25, 1, i);
    std::vector<std::uint32_t> order;
    engine.run(
        [&order](std::uint32_t, const ShardEvent& ev, ShardApi&) {
            order.push_back(ev.a);
        },
        [](double, const std::vector<ShardMessage>&, Coordinator&) {
            return true;
        },
        1);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

/**
 * A stochastic multi-epoch model must be bit-identical between a
 * 1-thread run and an oversubscribed 8-thread run: every handler draws
 * from its shard's private stream and pushes follow-up events, so any
 * cross-shard interleaving difference would show up in the messages.
 */
TEST(ShardEngine, SerialVsThreadedBitIdentical)
{
    const auto run_model = [](unsigned threads) {
        ShardedEngine engine(16, 0.5, 99);
        for (std::uint32_t s = 0; s < 16; ++s)
            engine.seed_event(s, 0.1 * (s % 3), 1, 20);
        std::vector<ShardMessage> got;
        engine.run(
            [](std::uint32_t, const ShardEvent& ev, ShardApi& api) {
                const double draw = api.rng().next_double();
                api.send(api.now(), 2, ev.a, 0, 0, 0, draw);
                if (ev.a > 0)
                    api.push(api.now() + 0.3 + draw, 1, ev.a - 1);
            },
            [&got](double, const std::vector<ShardMessage>& inbox,
                   Coordinator&) {
                got.insert(got.end(), inbox.begin(), inbox.end());
                return true;
            },
            threads);
        return got;
    };
    const std::vector<ShardMessage> serial = run_model(1);
    const std::vector<ShardMessage> threaded = run_model(8);
    ASSERT_EQ(serial.size(), threaded.size());
    ASSERT_GT(serial.size(), 100u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].time, threaded[i].time) << i;
        EXPECT_EQ(serial[i].from_shard, threaded[i].from_shard) << i;
        EXPECT_EQ(serial[i].seq, threaded[i].seq) << i;
        EXPECT_EQ(serial[i].x, threaded[i].x) << i;  // exact, not near
    }
}

/** Epochs snap to the lookahead grid and skip empty cells wholesale. */
TEST(ShardEngine, EpochGridSkipsEmptyCells)
{
    ShardedEngine engine(2, 1.0, 1);
    engine.seed_event(0, 0.5, 1);
    engine.seed_event(1, 100.25, 1);
    const EngineResult result = engine.run(
        [](std::uint32_t, const ShardEvent&, ShardApi&) {},
        [](double, const std::vector<ShardMessage>&, Coordinator&) {
            return true;
        },
        1);
    EXPECT_EQ(result.epochs, 2u);
    EXPECT_EQ(result.events, 2u);
    EXPECT_DOUBLE_EQ(result.end_time_s, 101.0);
}

/**
 * The host-side wall split holds together: every part is >= 0, the
 * parallel and coordinator parts fit inside the run's wall time, and
 * the lanes' parallel seconds are either a shard's busy time or idle.
 * Structural facts only; no timing bound.
 */
TEST(ShardEngine, WallSplitAddsUp)
{
    for (const unsigned threads : {1u, 4u}) {
        ShardedEngine engine(8, 0.5, 3);
        for (std::uint32_t s = 0; s < 8; ++s)
            engine.seed_event(s, 0.1 * s, 1, 200);
        const auto start = std::chrono::steady_clock::now();
        const EngineResult result = engine.run(
            [](std::uint32_t, const ShardEvent& ev, ShardApi& api) {
                api.send(api.now(), 1, ev.a);
                if (ev.a > 0)
                    api.push(api.now() + 0.2, 1, ev.a - 1);
            },
            [](double, const std::vector<ShardMessage>&, Coordinator&) {
                return true;
            },
            threads);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        EXPECT_EQ(result.lanes, threads) << threads;
        EXPECT_GE(result.parallel_seconds, 0.0) << threads;
        EXPECT_GE(result.coordinator_seconds, 0.0) << threads;
        EXPECT_GE(result.idle_seconds, 0.0) << threads;
        EXPECT_LE(result.parallel_seconds + result.coordinator_seconds,
                  wall.count())
            << threads;
        double busy = 0.0;
        for (const ShardStats& st : result.shards) {
            EXPECT_GE(st.busy_seconds, 0.0) << threads;
            busy += st.busy_seconds;
        }
        EXPECT_NEAR(busy + result.idle_seconds,
                    threads * result.parallel_seconds,
                    1e-9 * (1.0 + threads * result.parallel_seconds))
            << threads;
    }
}

/** The barrier merges sorted outboxes, so a shard that sends back in
    time within an epoch is a bug the engine refuses to reorder. */
TEST(ShardEngineDeathTest, SendBackInTimeIsRejected)
{
    EXPECT_DEATH(
        {
            ShardedEngine engine(1, 1.0, 5);
            engine.seed_event(0, 0.5, 1);
            engine.run(
                [](std::uint32_t, const ShardEvent&, ShardApi& api) {
                    api.send(api.now(), 1);
                    api.send(api.now() - 0.25, 1);
                },
                [](double, const std::vector<ShardMessage>&,
                   Coordinator&) { return true; },
                1);
        },
        "out of time order");
}

// ---- Queue order against a reference heap ----------------------------

/** One processed event: its time, its seq and the end of its epoch. */
struct Processed
{
    double time;
    std::uint64_t seq;
    double epoch_end;
    bool operator==(const Processed&) const = default;
};

/** A push planned by a handler or by the barrier. */
struct PlannedPush
{
    double time;
    std::uint32_t depth;
};

constexpr std::uint32_t kOrderShards = 4;
/** Times sit on a 1/8 grid of the unit lookahead, so equal times and
    pushes at exactly the epoch end are common, and the sums are exact. */
constexpr double kOrderGrid = 0.125;
constexpr std::uint64_t kOrderBarrierPushes = 40;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * The pushes an event makes, a pure function of (seed, shard, seq, time,
 * depth) so the engine's handler and the reference model agree: up to
 * two same-epoch pushes (at the event's own time or a later grid step
 * below the epoch end), then either none or three pushes at or after
 * the epoch end (the first can reuse a consumed slot, the others
 * append). Depth bounds the tree.
 */
std::vector<PlannedPush>
planned_pushes(std::uint64_t seed, std::uint32_t shard, double time,
               std::uint64_t seq, std::uint32_t depth, double epoch_end)
{
    std::vector<PlannedPush> out;
    if (depth == 0)
        return out;
    std::uint64_t h = mix64(seed ^ mix64((std::uint64_t{shard} << 40) ^ seq));
    const auto steps =
        static_cast<std::uint64_t>((epoch_end - time) / kOrderGrid);
    for (std::uint64_t i = steps > 0 ? h % 3 : 0; i > 0; --i) {
        h = mix64(h);
        out.push_back({time + static_cast<double>(h % steps) * kOrderGrid,
                       depth - 1});
    }
    h = mix64(h);
    if (h % 2 == 0)
        return out;
    for (int i = 0; i < 3; ++i) {
        h = mix64(h);
        out.push_back(
            {epoch_end + static_cast<double>(h % 12) * kOrderGrid,
             depth - 1});
    }
    return out;
}

/** The barrier's pushes at its `call`-th invocation (0 = initial pass). */
std::vector<std::pair<std::uint32_t, PlannedPush>>
barrier_pushes(std::uint64_t seed, std::uint64_t call, double barrier)
{
    std::vector<std::pair<std::uint32_t, PlannedPush>> out;
    if (call >= kOrderBarrierPushes)
        return out;
    std::uint64_t h = mix64(seed ^ (call << 20));
    for (std::uint64_t i = h % 4; i > 0; --i) {
        h = mix64(h);
        out.push_back({static_cast<std::uint32_t>(h % kOrderShards),
                       {barrier + static_cast<double>(h % 16) * kOrderGrid,
                        3}});
    }
    return out;
}

std::vector<std::vector<Processed>>
engine_order(std::uint64_t seed, unsigned threads)
{
    ShardedEngine engine(kOrderShards, 1.0, seed);
    for (std::uint32_t s = 0; s < kOrderShards; ++s)
        for (std::uint32_t i = 0; i < 6; ++i)
            engine.seed_event(s, static_cast<double>(i % 3) * kOrderGrid, 0,
                              5);
    std::vector<std::vector<Processed>> order(kOrderShards);
    std::uint64_t calls = 0;
    engine.run(
        [&](std::uint32_t shard, const ShardEvent& ev, ShardApi& api) {
            order[shard].push_back({ev.time, ev.seq, api.epoch_end()});
            for (const PlannedPush& p :
                 planned_pushes(seed, shard, ev.time, ev.seq, ev.a,
                                api.epoch_end()))
                api.push(p.time, 0, p.depth);
        },
        [&](double barrier, const std::vector<ShardMessage>&,
            Coordinator& co) {
            for (const auto& [shard, p] : barrier_pushes(seed, calls++,
                                                         barrier))
                co.push(shard, p.time, 0, p.depth);
            return true;
        },
        threads);
    return order;
}

/** Coverage of the reference run: the cases the test must exercise. */
struct OrderCoverage
{
    std::uint64_t same_epoch = 0;  ///< pushes below the epoch end
    std::uint64_t at_end = 0;      ///< pushes at exactly the epoch end
    std::uint64_t ties = 0;        ///< events at their predecessor's time
};

/** The old engine's semantics: one (time, seq) min-heap per shard,
    drained below the epoch end on the lookahead grid. */
std::vector<std::vector<Processed>>
reference_order(std::uint64_t seed, OrderCoverage* coverage)
{
    struct Ev
    {
        double time;
        std::uint64_t seq;
        std::uint32_t depth;
        bool operator>(const Ev& o) const
        {
            return time != o.time ? time > o.time : seq > o.seq;
        }
    };
    using Queue = std::priority_queue<Ev, std::vector<Ev>, std::greater<>>;
    std::vector<Queue> queues(kOrderShards);
    std::vector<std::uint64_t> next_seq(kOrderShards, 0);
    const auto push = [&](std::uint32_t s, double time, std::uint32_t depth) {
        queues[s].push({time, next_seq[s]++, depth});
    };
    for (std::uint32_t s = 0; s < kOrderShards; ++s)
        for (std::uint32_t i = 0; i < 6; ++i)
            push(s, static_cast<double>(i % 3) * kOrderGrid, 5);
    std::vector<std::vector<Processed>> order(kOrderShards);
    std::uint64_t calls = 0;
    for (const auto& [shard, p] : barrier_pushes(seed, calls++, 0.0))
        push(shard, p.time, p.depth);
    for (;;) {
        double t_min = std::numeric_limits<double>::infinity();
        for (const Queue& q : queues)
            if (!q.empty())
                t_min = std::min(t_min, q.top().time);
        if (!std::isfinite(t_min))
            break;
        const double end = std::floor(t_min) + 1.0;
        for (std::uint32_t s = 0; s < kOrderShards; ++s) {
            while (!queues[s].empty() && queues[s].top().time < end) {
                const Ev ev = queues[s].top();
                queues[s].pop();
                if (!order[s].empty() && order[s].back().time == ev.time)
                    ++coverage->ties;
                order[s].push_back({ev.time, ev.seq, end});
                for (const PlannedPush& p :
                     planned_pushes(seed, s, ev.time, ev.seq, ev.depth,
                                    end)) {
                    coverage->same_epoch += p.time < end;
                    coverage->at_end += p.time == end;
                    push(s, p.time, p.depth);
                }
            }
        }
        for (const auto& [shard, p] : barrier_pushes(seed, calls++, end))
            push(shard, p.time, p.depth);
    }
    return order;
}

/**
 * The epoch-sorted queue pops in exactly the order a per-shard binary
 * heap would: seeded random handler pushes (same-epoch, equal times,
 * exactly at the epoch end, none or three later ones) and coordinator
 * pushes at the barriers, checked event by event against a reference
 * model on 1 and 4 threads.
 */
TEST(ShardEngine, QueueOrderMatchesReferenceHeap)
{
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        OrderCoverage coverage;
        const auto want = reference_order(seed, &coverage);
        EXPECT_GT(coverage.same_epoch, 100u) << seed;
        EXPECT_GT(coverage.at_end, 100u) << seed;
        EXPECT_GT(coverage.ties, 100u) << seed;
        for (const unsigned threads : {1u, 4u}) {
            const auto got = engine_order(seed, threads);
            for (std::uint32_t s = 0; s < kOrderShards; ++s) {
                ASSERT_GT(want[s].size(), 500u) << seed << " " << s;
                EXPECT_TRUE(got[s] == want[s])
                    << "seed " << seed << " shard " << s << " threads "
                    << threads;
            }
        }
    }
}

/** Per-shard streams: reproducible per stream id, distinct across ids. */
TEST(ShardEngine, PerShardRngStreamsIndependent)
{
    util::Rng a0 = util::Rng::stream(1234, 0);
    util::Rng a1 = util::Rng::stream(1234, 0);
    util::Rng b = util::Rng::stream(1234, 1);
    util::Rng c = util::Rng::stream(1235, 0);
    bool b_differs = false;
    bool c_differs = false;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t ref = a0.next_u64();
        EXPECT_EQ(ref, a1.next_u64());
        b_differs |= ref != b.next_u64();
        c_differs |= ref != c.next_u64();
    }
    EXPECT_TRUE(b_differs);  // distinct stream ids diverge
    EXPECT_TRUE(c_differs);  // distinct seeds diverge
}

// ---- Multi-job fair-share scheduler ---------------------------------

ClusterConfig
cluster_256x16()
{
    ClusterConfig cluster;
    cluster.slaves = 256;
    cluster.racks = 16;
    return cluster;
}

JobSpec
small_job(const std::string& name, double input_gb)
{
    JobSpec spec;
    spec.name = name;
    spec.input_gb = input_gb;
    spec.total_instructions_g = 40.0 * input_gb;
    return spec;
}

std::vector<JobSubmission>
mixed_submissions()
{
    std::vector<JobSubmission> subs;
    for (std::uint32_t j = 0; j < 6; ++j) {
        JobSubmission sub;
        sub.spec = small_job("job", 4.0 + j);
        sub.submit_time_s = 5.0 * j;
        sub.weight = 1.0 + (j % 3);
        subs.push_back(sub);
    }
    subs[2].spec.iterations = 2;  // one iterative (Mahout-style) job
    subs[4].spec.map_output_ratio = 0.8;  // one shuffle-heavy job
    return subs;
}

fault::FaultPlan
chaos_plan()
{
    fault::FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.task_crash_prob = 0.03;
    plan.task_hang_prob = 0.01;
    plan.slow_node_fraction = 0.1;
    plan.slow_multiplier = 1.8;
    plan.node_crash_time_s = 40.0;
    plan.crash_node = 7;
    plan.rack_crash_time_s = 90.0;
    plan.crash_rack = 3;
    plan.partition_time_s = 50.0;
    plan.partition_duration_s = 30.0;
    plan.partition_rack = 5;
    plan.master_crash_time_s = 70.0;
    plan.cascade_prob = 0.5;
    return plan;
}

MultiJobResult
run_multi(unsigned threads, const fault::FaultPlan* plan)
{
    const MultiJobScheduler scheduler;
    MultiJobOptions options;
    options.threads = threads;
    fault::FaultInjector injector(plan != nullptr ? *plan
                                                  : fault::FaultPlan{});
    if (plan != nullptr)
        options.injector = &injector;
    return scheduler.run(mixed_submissions(), cluster_256x16(), options);
}

/**
 * The tentpole guarantee, fault-free: a 256-node multi-job run is
 * bit-identical (full canonical dump) between the serial reference and
 * the sharded parallel engine, and every job produces exactly the
 * analytic-model task population.
 */
TEST(MultiJob, FaultFreeSerialVsShardedBitIdentical)
{
    const MultiJobResult serial = run_multi(1, nullptr);
    const MultiJobResult sharded = run_multi(8, nullptr);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(serial.all_completed());
    EXPECT_EQ(serial.dump(), sharded.dump());
    const ClusterConfig cluster = cluster_256x16();
    const std::vector<JobSubmission> subs = mixed_submissions();
    for (std::size_t j = 0; j < subs.size(); ++j) {
        const TaskCounts want =
            expected_task_counts(subs[j].spec, cluster);
        EXPECT_EQ(serial.jobs[j].maps_completed, want.maps) << j;
        EXPECT_EQ(serial.jobs[j].reduces_completed, want.reduces) << j;
        EXPECT_EQ(serial.jobs[j].task_failures, 0u) << j;
        EXPECT_EQ(serial.jobs[j].wasted_task_s, 0.0) << j;
    }
    // Fault-free runs never pay fault machinery.
    EXPECT_EQ(serial.cluster.nodes_lost, 0u);
    EXPECT_EQ(serial.cluster.master_failovers, 0u);
}

/**
 * Same guarantee under the full correlated-fault gauntlet: node crash,
 * rack power loss, partition + heal, master failover, hangs, crashes,
 * slow nodes and cascades -- serial, sharded and a replay agree byte
 * for byte, and the fault machinery demonstrably fired.
 */
TEST(MultiJob, CorrelatedFaultsSerialVsShardedBitIdentical)
{
    const fault::FaultPlan plan = chaos_plan();
    const MultiJobResult serial = run_multi(1, &plan);
    const MultiJobResult sharded = run_multi(8, &plan);
    const MultiJobResult replay = run_multi(1, &plan);
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_EQ(serial.dump(), sharded.dump());
    EXPECT_EQ(serial.dump(), replay.dump());
    EXPECT_GE(serial.cluster.nodes_lost, 17u);  // rack (>=16) + node
    EXPECT_EQ(serial.cluster.racks_lost, 1u);
    EXPECT_EQ(serial.cluster.partitions, 1u);
    EXPECT_EQ(serial.cluster.partition_heals, 1u);
    EXPECT_EQ(serial.cluster.master_failovers, 1u);
    std::uint32_t failures = 0;
    for (const JobOutcome& job : serial.jobs)
        failures += job.task_failures;
    EXPECT_GT(failures, 0u);
}

/** Hung attempts hold their slot until the watchdog reclaims them;
    the cluster still finishes all its work. */
TEST(MultiJob, WatchdogReclaimsHungAttempts)
{
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.task_hang_prob = 0.05;
    const MultiJobResult result = run_multi(4, &plan);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.all_completed());
    std::uint32_t kills = 0;
    for (const JobOutcome& job : result.jobs)
        kills += job.watchdog_kills;
    EXPECT_GT(kills, 0u);
}

/**
 * Weighted fair share: two identical contending jobs, weights 1 and 4.
 * The heavy job holds ~4x the slots, so it must finish first.
 */
TEST(MultiJob, WeightsBiasSlotShare)
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    cluster.racks = 2;
    std::vector<JobSubmission> subs(2);
    subs[0].spec = small_job("light", 24.0);
    subs[0].weight = 1.0;
    subs[1].spec = small_job("heavy", 24.0);
    subs[1].weight = 4.0;
    const MultiJobScheduler scheduler;
    const MultiJobResult result = scheduler.run(subs, cluster);
    ASSERT_TRUE(result.all_completed()) << result.error;
    EXPECT_LT(result.jobs[1].finish_s, result.jobs[0].finish_s);
}

/** Co-located shuffle-heavy maps queue on the shared rack uplink. */
TEST(MultiJob, SharedUplinksAccumulateContention)
{
    ClusterConfig cluster;
    cluster.slaves = 64;
    cluster.racks = 4;
    std::vector<JobSubmission> subs(2);
    for (JobSubmission& sub : subs) {
        sub.spec = small_job("shuffle-heavy", 16.0);
        sub.spec.map_output_ratio = 1.0;
    }
    FairShareConfig config;
    config.uplink_oversubscription = 16.0;
    const MultiJobScheduler scheduler(config);
    const MultiJobResult result = scheduler.run(subs, cluster);
    ASSERT_TRUE(result.all_completed()) << result.error;
    double wait = 0.0;
    for (const JobOutcome& job : result.jobs)
        wait += job.uplink_wait_s;
    EXPECT_GT(wait, 0.0);
    double shard_wait = 0.0;
    for (const ShardUtil& util : result.shard_util)
        shard_wait += util.uplink_wait_s;
    EXPECT_DOUBLE_EQ(shard_wait, wait);
}

/** Per-shard utilization is populated and consistent with the cluster
    total; heartbeat counts are part of the deterministic dump. */
TEST(MultiJob, ShardUtilizationSurfaced)
{
    const MultiJobResult result = run_multi(2, nullptr);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.shard_util.size(), 16u);
    ASSERT_EQ(result.shards.size(), 16u);
    double busy = 0.0;
    std::uint64_t heartbeats = 0;
    std::uint64_t events = 0;
    for (std::size_t s = 0; s < result.shard_util.size(); ++s) {
        busy += result.shard_util[s].slot_busy_s;
        heartbeats += result.shard_util[s].progress_heartbeats;
        events += result.shards[s].events_processed;
    }
    EXPECT_DOUBLE_EQ(busy, result.cluster.slot_busy_s);
    EXPECT_GT(heartbeats, 0u);
    EXPECT_EQ(events, result.events);
    EXPECT_NE(result.dump().find("heartbeats="), std::string::npos);
}

/** Config and submission errors are reported, never fatal. */
TEST(MultiJob, ValidationErrorsAreReported)
{
    const ClusterConfig cluster = cluster_256x16();
    std::vector<JobSubmission> subs(1);
    subs[0].spec = small_job("ok", 4.0);

    FairShareConfig bad;
    bad.heartbeat_s = 0.0;
    EXPECT_FALSE(MultiJobScheduler(bad).run(subs, cluster).ok);

    FairShareConfig lax;
    lax.task_timeout_factor = 2.0;  // inside the jitter clamp
    EXPECT_FALSE(MultiJobScheduler(lax).run(subs, cluster).ok);

    EXPECT_FALSE(MultiJobScheduler().run({}, cluster).ok);

    subs[0].weight = 0.0;
    const MultiJobResult bad_weight =
        MultiJobScheduler().run(subs, cluster);
    EXPECT_FALSE(bad_weight.ok);
    EXPECT_NE(bad_weight.error.find("weight"), std::string::npos);
}

/**
 * The grant pass's deficit pick, on 7 nodes with 3 map slots and 1
 * reduce slot each. Jobs 0 and 1 (16 maps, 7 reduces) reach their
 * reduce phase at the 12 s barrier, where jobs 2 and 3 (64 maps, from
 * 3 s) start a map wave. All weights are 1 and nothing runs, so the
 * shares tie and grants go round robin from the lowest index. The 7
 * reduce slots run out in the middle of the pass: job 1's placement
 * fails at 3 running, then job 0's at 4, and the pass goes on granting
 * maps to jobs 2 and 3 without picking those two again. Ties to the
 * highest index would give job 1 the fourth reduce and move every
 * count and finish time below.
 */
TEST(MultiJob, GrantPickTiesToLowestIndexAndSkipsStalledJobs)
{
    ClusterConfig cluster;
    cluster.slaves = 7;
    cluster.racks = 2;
    cluster.map_slots = 3;
    cluster.reduce_slots = 1;
    std::vector<JobSubmission> subs(4);
    for (std::uint32_t j = 0; j < subs.size(); ++j) {
        subs[j].spec = small_job("grant", j < 2 ? 1.0 : 4.0);
        subs[j].submit_time_s = j < 2 ? 0.0 : 3.0;
    }
    const MultiJobResult result = MultiJobScheduler().run(subs, cluster);
    ASSERT_TRUE(result.all_completed()) << result.error;
    const std::uint64_t local[] = {15, 15, 61, 58};
    const std::uint64_t remote[] = {1, 1, 3, 6};
    const double first[] = {0.0, 0.0, 6.0, 6.0};
    const double finish[] = {15.185358913921457, 15.185358913921457,
                             51.741435655685827, 51.741435655685827};
    for (std::uint32_t j = 0; j < subs.size(); ++j) {
        const JobOutcome& job = result.jobs[j];
        EXPECT_EQ(job.local_map_launches, local[j]) << j;
        EXPECT_EQ(job.remote_map_launches, remote[j]) << j;
        EXPECT_EQ(job.first_launch_s, first[j]) << j;
        EXPECT_EQ(job.finish_s, finish[j]) << j;
    }
}

// ---- Absolute pins ---------------------------------------------------

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * perfbench's cluster fleet at seed 1: 512 nodes in 32 racks, 16 jobs
 * with input sizes in five steps, shuffle-heavy every third job,
 * iterative every fourth, staggered arrivals and weights 1-3.
 */
std::vector<JobSubmission>
fleet_submissions()
{
    util::Rng rng(1 ^ 0xF1EE7ULL);
    std::vector<JobSubmission> subs(16);
    for (std::uint32_t j = 0; j < subs.size(); ++j) {
        JobSubmission& sub = subs[j];
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

/** The fleet's plan: fault-free (its seed still drives the per-shard
    jitter streams) or perfbench's correlated chaos plan. */
fault::FaultPlan
fleet_plan(bool chaos)
{
    fault::FaultPlan plan;
    plan.seed = util::Rng(1 ^ 0xC1A05C41EULL).next_u64();
    if (!chaos)
        return plan;
    plan.task_crash_prob = 0.01;
    plan.task_hang_prob = 0.004;
    plan.slow_node_fraction = 0.08;
    plan.slow_multiplier = 1.7;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = 512 / 3;
    plan.rack_crash_time_s = 120.0;
    plan.crash_rack = 32 / 2;
    plan.partition_time_s = 80.0;
    plan.partition_duration_s = 45.0;
    plan.partition_rack = 32 / 4;
    plan.master_crash_time_s = 100.0;
    plan.cascade_prob = 0.4;
    return plan;
}

MultiJobResult
run_fleet(bool chaos)
{
    FairShareConfig config;
    config.attempt_jitter_sigma = 0.25;
    ClusterConfig cluster;
    cluster.slaves = 512;
    cluster.racks = 32;
    fault::FaultInjector injector(fleet_plan(chaos));
    MultiJobOptions options;
    options.injector = &injector;
    return MultiJobScheduler(config).run(fleet_submissions(), cluster,
                                         options);
}

/**
 * The fair-share scheduler's output pinned absolutely, at fleet scale:
 * the FNV-1a hash of the whole dump, fault-free and under the
 * correlated chaos plan. The other MultiJob tests only compare runs
 * with each other, so a change that moves every run alike passes them.
 * If a change moves these hashes, it changed what the scheduler
 * decides: fix it, or re-pin deliberately and explain the diff.
 */
TEST(MultiJob, FleetDumpIsPinned)
{
    const MultiJobResult fault_free = run_fleet(false);
    ASSERT_TRUE(fault_free.all_completed()) << fault_free.error;
    EXPECT_EQ(fnv1a(fault_free.dump()), 419301529282432076ULL);
    const MultiJobResult chaos = run_fleet(true);
    ASSERT_TRUE(chaos.ok) << chaos.error;
    EXPECT_EQ(fnv1a(chaos.dump()), 16484296730939967788ULL);
}

// ---- Speculative twins -------------------------------------------------

/**
 * One 16-map, 8-reduce job on 8 nodes in 2 racks with 2 map slots and 1
 * reduce slot each, so every map runs in the first wave (about 24 s).
 * A quarter of the nodes run 3x slow: their maps get a backup on another
 * node at 36 s (1.5x the profile time), which finishes at 60 s, well
 * before the original would at 72 s. `seed` picks the slow nodes and the
 * crash draws; the other arguments add faults on top.
 */
struct TwinRun
{
    MultiJobResult result;
    std::vector<fault::FaultEvent> faults;
};

TwinRun
run_twins(std::uint64_t seed, double crash_prob, double node_crash_s,
          double master_crash_s, unsigned threads)
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    cluster.racks = 2;
    cluster.map_slots = 2;
    cluster.reduce_slots = 1;
    std::vector<JobSubmission> subs(1);
    subs[0].spec = small_job("twin", 1.0);
    subs[0].spec.total_instructions_g = 4000.0;
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.slow_node_fraction = 0.25;
    plan.slow_multiplier = 3.0;
    plan.task_crash_prob = crash_prob;
    plan.node_crash_time_s = node_crash_s;
    plan.crash_node = 0;
    plan.master_crash_time_s = master_crash_s;
    fault::FaultInjector injector(plan);
    MultiJobOptions options;
    options.threads = threads;
    options.injector = &injector;
    TwinRun run;
    run.result = MultiJobScheduler().run(subs, cluster, options);
    run.faults = injector.log().events();
    // The sharded engine must agree with the serial one here too.
    if (threads == 1) {
        EXPECT_EQ(run.result.dump(),
                  run_twins(seed, crash_prob, node_crash_s,
                            master_crash_s, 4)
                      .result.dump());
    }
    return run;
}

/** Map launches: first copies, map-phase backups and retries. */
std::uint64_t
map_launches(const JobOutcome& job)
{
    return job.local_map_launches + job.remote_map_launches;
}

/**
 * A backup crashes while the slow original it shadows keeps running:
 * the original's later finish completes the task, so no retry is
 * queued. Seed 15 slows nodes 0, 1, 4 and 5, backs up maps 0-7 and
 * crashes only the backup (attempt 2) of map 3.
 */
TEST(MultiJob, FailedBackupLeavesOriginalRunningWithoutRetry)
{
    const TwinRun run = run_twins(15, 0.03, -1.0, -1.0, 1);
    ASSERT_TRUE(run.result.all_completed()) << run.result.error;
    ASSERT_EQ(run.faults.size(), 1u);
    EXPECT_EQ(run.faults[0].kind, fault::FaultKind::kTaskCrash);
    EXPECT_EQ(run.faults[0].task, 3u);
    EXPECT_EQ(run.faults[0].attempt, 2u);  // the backup
    const JobOutcome& job = run.result.jobs[0];
    EXPECT_EQ(job.task_failures, 1u);
    EXPECT_EQ(job.maps_completed, 16u);
    EXPECT_EQ(map_launches(job), 24u);  // 16 first copies + 8 backups
    EXPECT_EQ(job.speculative_launched, 12u);
    EXPECT_EQ(job.wasted_task_s, 488.35868806907661);
    EXPECT_EQ(job.finish_s, 86.685825002148675);
}

/**
 * The mirror case: a slow original crashes after its backup launched,
 * and the backup finishes the task with no retry queued. Seed 3 backs
 * up maps 8 and 10 and crashes map 8's original (attempt 1).
 */
TEST(MultiJob, FailedOriginalLeavesBackupRunningWithoutRetry)
{
    const TwinRun run = run_twins(3, 0.03, -1.0, -1.0, 1);
    ASSERT_TRUE(run.result.all_completed()) << run.result.error;
    ASSERT_EQ(run.faults.size(), 1u);
    EXPECT_EQ(run.faults[0].kind, fault::FaultKind::kTaskCrash);
    EXPECT_EQ(run.faults[0].task, 8u);
    EXPECT_EQ(run.faults[0].attempt, 1u);  // the original
    const JobOutcome& job = run.result.jobs[0];
    EXPECT_EQ(job.task_failures, 1u);
    EXPECT_EQ(job.maps_completed, 16u);
    EXPECT_EQ(map_launches(job), 18u);  // 16 first copies + 2 backups
    EXPECT_EQ(job.speculative_launched, 3u);
    EXPECT_EQ(job.wasted_task_s, 127.45083831987429);
    EXPECT_EQ(job.finish_s, 74.685825002148675);
}

/**
 * Seed 1 slows nodes 0 and 4. The backups of maps 0-3 win at the 60 s
 * barrier, which kills the slow originals and also starts the reduce
 * phase. Node 0 crashes at exactly 60 s, before the kill events reach
 * it, so the originals of maps 0 and 2 report KILLED after the job has
 * moved on. Those reports belong to the map phase and are stale: they
 * must not consume reduce 0 or 2, whose attempt 1 is running then.
 */
TEST(MultiJob, LoserReportAfterPhaseChangeIsStale)
{
    const TwinRun run = run_twins(1, 0.0, 60.0, -1.0, 1);
    ASSERT_TRUE(run.result.all_completed()) << run.result.error;
    ASSERT_EQ(run.faults.size(), 1u);
    EXPECT_EQ(run.faults[0].kind, fault::FaultKind::kNodeCrash);
    EXPECT_EQ(run.result.cluster.nodes_lost, 1u);
    const JobOutcome& job = run.result.jobs[0];
    EXPECT_EQ(job.maps_completed, 16u);
    EXPECT_EQ(job.reduces_completed, 8u);
    EXPECT_EQ(job.maps_reexecuted, 0u);
    EXPECT_EQ(map_launches(job), 20u);
    EXPECT_EQ(job.speculative_launched, 5u);
    EXPECT_EQ(job.wasted_task_s, 255.0);
    EXPECT_EQ(job.finish_s, 74.685825002148675);
}

/**
 * The master crashes at 45 s, while maps 0-3 each run a slow original
 * (granted at 0 s) and its backup (granted at 36 s). Failover charges
 * both copies of each task: 4 x (45 + 9) s on top of the rest.
 */
TEST(MultiJob, MasterCrashChargesBothLiveCopies)
{
    const TwinRun run = run_twins(1, 0.0, -1.0, 45.0, 1);
    ASSERT_TRUE(run.result.all_completed()) << run.result.error;
    EXPECT_EQ(run.result.cluster.master_failovers, 1u);
    const JobOutcome& job = run.result.jobs[0];
    EXPECT_EQ(job.maps_completed, 16u);
    EXPECT_EQ(map_launches(job), 28u);
    EXPECT_EQ(job.speculative_launched, 10u);
    EXPECT_EQ(job.wasted_task_s, 486.0);
    EXPECT_EQ(job.finish_s, 131.68582500214868);
}

}  // namespace
}  // namespace dcb::mapreduce
