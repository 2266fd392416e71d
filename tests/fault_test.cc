/** @file Tests for the seeded fault-injection subsystem. */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "fault/topology.h"

namespace dcb::fault {
namespace {

TEST(FaultPlan, DefaultPlanIsFaultFreeAndValid)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.any_faults());
    EXPECT_EQ(validate(plan), "");
}

TEST(FaultPlan, AnyFaultsDetectsEachKnob)
{
    FaultPlan plan;
    plan.task_crash_prob = 0.01;
    EXPECT_TRUE(plan.any_faults());

    plan = FaultPlan{};
    plan.disk_write_error_prob = 0.01;
    EXPECT_TRUE(plan.any_faults());

    plan = FaultPlan{};
    plan.node_crash_time_s = 10.0;
    EXPECT_TRUE(plan.any_faults());

    plan = FaultPlan{};
    plan.slow_node_fraction = 0.5;
    plan.slow_multiplier = 2.0;
    EXPECT_TRUE(plan.any_faults());
}

TEST(FaultPlan, ValidationRejectsBadProbabilities)
{
    FaultPlan plan;
    plan.task_crash_prob = -0.1;
    EXPECT_NE(validate(plan), "");

    plan = FaultPlan{};
    plan.net_drop_prob = 1.5;
    EXPECT_NE(validate(plan), "");

    plan = FaultPlan{};
    plan.slow_multiplier = 0.5;  // faster-than-nominal is not a fault
    EXPECT_NE(validate(plan), "");
}

TEST(FaultInjector, SameSeedSameDecisionStream)
{
    FaultPlan plan;
    plan.task_crash_prob = 0.3;
    plan.disk_write_error_prob = 0.2;

    auto decisions = [&plan] {
        FaultInjector injector(plan);
        std::vector<bool> out;
        double fraction = 0.0;
        for (std::uint32_t i = 0; i < 200; ++i) {
            out.push_back(planned_task_crash(plan, i, &fraction));
            out.push_back(injector.disk_write_fails());
        }
        return out;
    };
    EXPECT_EQ(decisions(), decisions());
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultPlan a;
    a.task_crash_prob = 0.5;
    FaultPlan b = a;
    b.seed = a.seed + 1;

    double fraction = 0.0;
    bool differed = false;
    for (std::uint32_t i = 0; i < 256 && !differed; ++i)
        differed = planned_task_crash(a, i, &fraction) !=
                   planned_task_crash(b, i, &fraction);
    EXPECT_TRUE(differed);
}

TEST(FaultInjector, ResetReplaysTheSameRun)
{
    FaultPlan plan;
    plan.disk_read_error_prob = 0.4;
    FaultInjector injector(plan);

    std::vector<bool> first;
    for (std::uint32_t i = 0; i < 64; ++i)
        first.push_back(injector.disk_read_fails());
    const std::size_t logged = injector.log().events().size();
    EXPECT_GT(logged, 0u);

    injector.reset();
    EXPECT_TRUE(injector.log().events().empty());
    std::vector<bool> second;
    for (std::uint32_t i = 0; i < 64; ++i)
        second.push_back(injector.disk_read_fails());
    EXPECT_EQ(first, second);
    EXPECT_EQ(injector.log().events().size(), logged);
}

TEST(FaultInjector, CrashFractionIsAPartialRun)
{
    FaultPlan plan;
    plan.task_crash_prob = 1.0;
    for (std::uint32_t i = 0; i < 32; ++i) {
        double fraction = -1.0;
        ASSERT_TRUE(planned_task_crash(plan, i, &fraction));
        EXPECT_GT(fraction, 0.0);
        EXPECT_LT(fraction, 1.0);  // dies strictly before finishing
    }
}

TEST(FaultInjector, SlowNodesAreStatelessAndRespectTheFraction)
{
    FaultPlan plan;
    plan.slow_node_fraction = 0.5;
    plan.slow_multiplier = 3.0;

    std::uint32_t slow = 0;
    for (std::uint32_t node = 0; node < 64; ++node) {
        const double speed = planned_speed_multiplier(plan, node);
        EXPECT_TRUE(speed == 1.0 || speed == 3.0);
        if (speed > 1.0)
            ++slow;
        // Stateless: asking again (any call order) gives the same answer.
        EXPECT_EQ(speed, planned_speed_multiplier(plan, node));
    }
    EXPECT_GT(slow, 16u);  // roughly half of 64, generous bounds
    EXPECT_LT(slow, 48u);

    const FaultPlan none;
    for (std::uint32_t node = 0; node < 8; ++node)
        EXPECT_EQ(planned_speed_multiplier(none, node), 1.0);
}

TEST(FaultInjector, ZeroProbabilityNeverFires)
{
    FaultInjector injector{FaultPlan{}};
    double fraction = 0.0;
    for (std::uint32_t i = 0; i < 100; ++i) {
        EXPECT_FALSE(planned_task_crash(FaultPlan{}, i, &fraction));
        EXPECT_FALSE(planned_task_hang(FaultPlan{}, i));
        EXPECT_FALSE(injector.disk_read_fails());
        EXPECT_FALSE(injector.disk_write_fails());
        EXPECT_FALSE(injector.net_send_times_out());
        EXPECT_FALSE(injector.net_recv_drops());
    }
    EXPECT_TRUE(injector.log().events().empty());
}

TEST(FaultLog, CountsAndSummarizesPerKind)
{
    FaultPlan plan;
    plan.disk_read_error_prob = 1.0;
    plan.net_timeout_prob = 1.0;
    FaultInjector injector(plan);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(injector.disk_read_fails());
    ASSERT_TRUE(injector.net_send_times_out());

    const FaultLog& log = injector.log();
    EXPECT_EQ(log.count(FaultKind::kDiskReadError), 3u);
    EXPECT_EQ(log.count(FaultKind::kNetTimeout), 1u);
    EXPECT_EQ(log.count(FaultKind::kTaskCrash), 0u);
    const std::string summary = log.summary();
    EXPECT_NE(summary.find(fault_kind_name(FaultKind::kDiskReadError)),
              std::string::npos);
    EXPECT_NE(summary.find(fault_kind_name(FaultKind::kNetTimeout)),
              std::string::npos);
}

TEST(FaultLog, EventsCarryTimestampsFromSetNow)
{
    FaultPlan plan;
    plan.disk_write_error_prob = 1.0;
    FaultInjector injector(plan);
    injector.set_now(42.5);
    ASSERT_TRUE(injector.disk_write_fails());
    ASSERT_EQ(injector.log().events().size(), 1u);
    const FaultEvent& e = injector.log().events().front();
    EXPECT_EQ(e.kind, FaultKind::kDiskWriteError);
    EXPECT_DOUBLE_EQ(e.time_s, 42.5);
}

// ---------------------------------------------------------------------
// Correlated faults: topology, hangs, cascades
// ---------------------------------------------------------------------

TEST(Topology, ContiguousBlocksCoverEveryNodeExactlyOnce)
{
    for (const std::uint32_t nodes : {1u, 5u, 8u, 16u, 17u}) {
        for (const std::uint32_t racks : {1u, 2u, 3u, 4u}) {
            const Topology topo(nodes, racks);
            ASSERT_GE(topo.racks(), 1u);
            ASSERT_LE(topo.racks(), nodes);
            std::uint32_t covered = 0;
            for (std::uint32_t r = 0; r < topo.racks(); ++r) {
                ASSERT_GE(topo.rack_size(r), 1u);
                ASSERT_EQ(topo.rack_end(r) - topo.rack_begin(r),
                          topo.rack_size(r));
                // rack_of agrees with the block boundaries.
                for (std::uint32_t n = topo.rack_begin(r);
                     n < topo.rack_end(r); ++n)
                    ASSERT_EQ(topo.rack_of(n), r)
                        << nodes << " nodes / " << racks << " racks";
                covered += topo.rack_size(r);
            }
            ASSERT_EQ(covered, topo.nodes());
            // Blocks are contiguous and ascending.
            for (std::uint32_t r = 1; r < topo.racks(); ++r)
                ASSERT_EQ(topo.rack_begin(r), topo.rack_end(r - 1));
        }
    }
}

TEST(Topology, DefaultIsOneRackHoldingEverything)
{
    const Topology topo;
    EXPECT_EQ(topo.racks(), 1u);
    EXPECT_EQ(topo.rack_of(0), 0u);
}

TEST(Topology, NodesInRackListsTheBlock)
{
    const Topology topo(8, 2);
    const std::vector<std::uint32_t> rack1 = topo.nodes_in_rack(1);
    ASSERT_EQ(rack1.size(), 4u);
    EXPECT_EQ(rack1.front(), 4u);
    EXPECT_EQ(rack1.back(), 7u);
}

TEST(FaultPlan, AnyFaultsDetectsEveryCorrelatedKnob)
{
    FaultPlan plan;
    plan.task_hang_prob = 0.01;
    EXPECT_TRUE(plan.any_faults());

    plan = FaultPlan{};
    plan.rack_crash_time_s = 10.0;
    EXPECT_TRUE(plan.any_faults());

    plan = FaultPlan{};
    plan.partition_time_s = 10.0;
    EXPECT_TRUE(plan.any_faults());

    plan = FaultPlan{};
    plan.master_crash_time_s = 10.0;
    EXPECT_TRUE(plan.any_faults());

    // cascade_prob alone cannot fire -- there is no recovery window
    // without another fault -- but a plan carrying it is not fault-free.
    plan = FaultPlan{};
    plan.cascade_prob = 1.0;
    EXPECT_TRUE(plan.any_faults());
}

TEST(FaultPlan, ValidationRejectsBadCorrelatedKnobs)
{
    FaultPlan plan;
    plan.task_hang_prob = 1.5;
    EXPECT_NE(validate(plan), "");

    plan = FaultPlan{};
    plan.cascade_prob = -0.1;
    EXPECT_NE(validate(plan), "");

    plan = FaultPlan{};
    plan.partition_time_s = 10.0;
    plan.partition_duration_s = 0.0;  // never heals: rejected
    EXPECT_NE(validate(plan), "");
}

TEST(FaultPlan, PlannedHangsAreIndependentOfCrashes)
{
    // Task fates are stateless hashes of (plan, attempt key): arming
    // hangs leaves every crash fate as it was, and each fate answers
    // the same whenever it is asked.
    FaultPlan crashes_only;
    crashes_only.task_crash_prob = 0.3;
    FaultPlan with_hangs = crashes_only;
    with_hangs.task_hang_prob = 0.3;

    double fraction = 0.0;
    for (std::uint64_t key = 0; key < 128; ++key) {
        EXPECT_EQ(planned_task_crash(crashes_only, key, &fraction),
                  planned_task_crash(with_hangs, key, &fraction));
        EXPECT_FALSE(planned_task_hang(crashes_only, key));
        EXPECT_EQ(planned_task_hang(with_hangs, key),
                  planned_task_hang(with_hangs, key));
    }

    FaultPlan all_hang;
    all_hang.task_hang_prob = 1.0;
    for (std::uint64_t key = 0; key < 8; ++key)
        EXPECT_TRUE(planned_task_hang(all_hang, key));
}

TEST(FaultInjector, CascadesAreStatelessDeterministicAndInRange)
{
    FaultPlan plan;
    plan.cascade_prob = 0.5;
    FaultInjector injector(plan);

    std::uint32_t fired = 0;
    for (std::uint64_t trigger = 0; trigger < 64; ++trigger) {
        std::uint32_t victim = 0xFFFFFFFFu;
        const bool fire = injector.cascade_fires(trigger, 8, &victim);
        if (fire) {
            ++fired;
            EXPECT_LT(victim, 8u) << "trigger " << trigger;
        }
        // Stateless: the same trigger answers the same way regardless
        // of the interleaved draws above.
        std::uint32_t victim2 = 0xFFFFFFFFu;
        EXPECT_EQ(injector.cascade_fires(trigger, 8, &victim2), fire);
        if (fire) {
            EXPECT_EQ(victim2, victim);
        }
    }
    // ~50% of 64 windows, generous bounds.
    EXPECT_GT(fired, 16u);
    EXPECT_LT(fired, 48u);

    FaultPlan none;
    FaultInjector quiet(none);
    std::uint32_t victim = 0;
    for (std::uint64_t trigger = 0; trigger < 16; ++trigger)
        EXPECT_FALSE(quiet.cascade_fires(trigger, 8, &victim));
}

TEST(FaultKind, EveryKindHasAName)
{
    for (const FaultKind kind :
         {FaultKind::kTaskCrash, FaultKind::kNodeCrash,
          FaultKind::kDiskReadError, FaultKind::kDiskWriteError,
          FaultKind::kNetTimeout, FaultKind::kNetDrop,
          FaultKind::kSlowNode, FaultKind::kTaskHang,
          FaultKind::kRackPowerLoss, FaultKind::kNetPartition,
          FaultKind::kPartitionHeal, FaultKind::kMasterCrash,
          FaultKind::kMasterFailover, FaultKind::kWatchdogKill,
          FaultKind::kCascade}) {
        const char* name = fault_kind_name(kind);
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

}  // namespace
}  // namespace dcb::fault
