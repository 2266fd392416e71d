/** @file Tests for the perf derivation layer (CounterReport). */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "cpu/core.h"
#include "cpu/perf.h"
#include "util/rng.h"

namespace dcb::cpu {
namespace {

using trace::MicroOp;
using trace::Mode;
using trace::OpClass;

/** Drive a mixed op stream into a core. */
void
drive(Core& core, int n, std::uint64_t seed)
{
    util::Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        MicroOp op;
        const auto kind = rng.next_below(10);
        if (kind < 3) {
            op.cls = OpClass::kLoad;
            op.addr = rng.next_below(8 << 20);
        } else if (kind < 4) {
            op.cls = OpClass::kStore;
            op.addr = rng.next_below(8 << 20);
        } else if (kind < 6) {
            op.cls = OpClass::kBranch;
            op.branch_key = rng.next_below(32);
            op.taken = rng.next_bool(0.7);
        } else {
            op.cls = OpClass::kAlu;
        }
        op.mode = rng.next_bool(0.2) ? Mode::kKernel : Mode::kUser;
        op.fetch_addr = 0x1000 + rng.next_below(1 << 20);
        core.consume(op);
    }
}

TEST(Perf, NormalizeStallsSumsToOne)
{
    const StallBreakdown b = normalize_stalls(1, 2, 3, 4, 5, 6);
    EXPECT_NEAR(b.sum(), 1.0, 1e-12);
    EXPECT_NEAR(b.fetch, 1.0 / 21.0, 1e-12);
    EXPECT_NEAR(b.rob, 6.0 / 21.0, 1e-12);
    EXPECT_NEAR(b.in_order_part() + b.out_of_order_part() + b.load +
                    b.store,
                1.0, 1e-12);
}

TEST(Perf, NormalizeZeroStallsIsAllZero)
{
    const StallBreakdown b = normalize_stalls(0, 0, 0, 0, 0, 0);
    EXPECT_EQ(b.sum(), 0.0);
}

TEST(Perf, ReportDerivations)
{
    Core core(westmere_core_config(), mem::westmere_memory_config());
    drive(core, 100'000, 3);
    const CounterReport r = make_report("mix", core);
    EXPECT_EQ(r.workload, "mix");
    EXPECT_NEAR(r.instructions, 100'000.0, 0.1);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_NEAR(r.ipc, r.instructions / r.cycles, 1e-9);
    EXPECT_NEAR(r.ipc, core.ipc(), 1e-6);
    EXPECT_GT(r.kernel_instr_fraction, 0.15);
    EXPECT_LT(r.kernel_instr_fraction, 0.25);
    EXPECT_GE(r.l1i_mpki, 0.0);
    EXPECT_GE(r.l2_mpki, 0.0);
    EXPECT_GE(r.l3_service_ratio, 0.0);
    EXPECT_LE(r.l3_service_ratio, 1.0);
    EXPECT_GT(r.branch_misprediction_ratio, 0.0);
    EXPECT_LT(r.branch_misprediction_ratio, 1.0);
    EXPECT_NEAR(r.stalls.sum(), 1.0, 1e-9);
}

TEST(Perf, L3ServiceRatioMatchesEquationOne)
{
    Core core(westmere_core_config(), mem::westmere_memory_config());
    drive(core, 80'000, 4);
    const CounterReport r = make_report("mix", core);
    const double l2_miss = core.stats().get(Event::kL2Miss);
    const double l3_miss = core.stats().get(Event::kL3Miss);
    ASSERT_GT(l2_miss, 0.0);
    EXPECT_NEAR(r.l3_service_ratio, (l2_miss - l3_miss) / l2_miss, 1e-9);
}

// Batched delivery (OpSink::consume_batch) is only a call-overhead
// optimisation: the same op sequence split into arbitrary chunks must
// leave the core in exactly the state per-op delivery produces.
TEST(Perf, BatchedDeliveryMatchesPerOpDelivery)
{
    constexpr int kOps = 200'000;
    util::Rng rng(6);
    // The same mixed stream drive() produces, materialized so both
    // cores below see exactly the same ops.
    std::vector<MicroOp> ops;
    ops.reserve(kOps);
    for (int i = 0; i < kOps; ++i) {
        MicroOp op;
        const auto kind = rng.next_below(10);
        if (kind < 3) {
            op.cls = OpClass::kLoad;
            op.addr = rng.next_below(8 << 20);
        } else if (kind < 4) {
            op.cls = OpClass::kStore;
            op.addr = rng.next_below(8 << 20);
        } else if (kind < 6) {
            op.cls = OpClass::kBranch;
            op.branch_key = rng.next_below(32);
            op.taken = rng.next_bool(0.7);
        } else {
            op.cls = OpClass::kAlu;
        }
        op.mode = rng.next_bool(0.2) ? Mode::kKernel : Mode::kUser;
        op.fetch_addr = 0x1000 + rng.next_below(1 << 20);
        ops.push_back(op);
    }

    Core single(westmere_core_config(), mem::westmere_memory_config());
    for (const MicroOp& op : ops)
        single.consume(op);

    Core batched(westmere_core_config(), mem::westmere_memory_config());
    // Deliver in irregular chunk sizes, including chunks larger and
    // smaller than the ExecCtx batch capacity.
    std::size_t i = 0;
    const std::size_t chunks[] = {1, 7, 64, 128, 3, 33};
    std::size_t c = 0;
    while (i < ops.size()) {
        const std::size_t n =
            std::min(chunks[c++ % std::size(chunks)], ops.size() - i);
        batched.consume_batch(ops.data() + i, n);
        i += n;
    }

    const CounterReport a = make_report("w", single);
    const CounterReport b = make_report("w", batched);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1i_mpki, b.l1i_mpki);
    EXPECT_EQ(a.l2_mpki, b.l2_mpki);
    EXPECT_EQ(a.l3_service_ratio, b.l3_service_ratio);
    EXPECT_EQ(a.dtlb_walk_pki, b.dtlb_walk_pki);
    EXPECT_EQ(a.itlb_walk_pki, b.itlb_walk_pki);
    EXPECT_EQ(a.branch_misprediction_ratio, b.branch_misprediction_ratio);
}

TEST(Perf, EventNamesAreUnique)
{
    for (std::size_t i = 0; i < kEventCount; ++i) {
        for (std::size_t j = i + 1; j < kEventCount; ++j) {
            EXPECT_STRNE(event_name(static_cast<Event>(i)),
                         event_name(static_cast<Event>(j)));
        }
    }
}

}  // namespace
}  // namespace dcb::cpu
