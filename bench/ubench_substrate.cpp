/**
 * @file
 * google-benchmark microbenches for the simulation substrate itself:
 * how fast the cache/TLB/branch/core models consume events. These bound
 * the wall-clock cost of the figure benches and catch performance
 * regressions in the simulator.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "cpu/branch.h"
#include "cpu/core.h"
#include "mapreduce/shard_engine.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "trace/code_layout.h"
#include "trace/exec_ctx.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace dcb;

void
BM_CacheAccessHit(benchmark::State& state)
{
    mem::SetAssocCache cache({32 * 1024, 8, 64}, mem::Replacement::kLru);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr & 0x3FFF));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessMissy(benchmark::State& state)
{
    mem::SetAssocCache cache({256 * 1024, 8, 64}, mem::Replacement::kLru);
    util::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next_below(64 << 20)));
}
BENCHMARK(BM_CacheAccessMissy);

void
BM_HierarchyDataAccess(benchmark::State& state)
{
    mem::CacheHierarchy hierarchy(mem::westmere_memory_config());
    util::Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hierarchy.data_access(rng.next_below(8 << 20), false));
    }
}
BENCHMARK(BM_HierarchyDataAccess);

void
BM_L3SetWalk(benchmark::State& state)
{
    // The Table III L3 (12 MB, 16-way, 12288 sets) at random lines over
    // 4x its capacity: nearly every access walks a full set and evicts.
    mem::SetAssocCache cache(mem::westmere_memory_config().l3,
                             mem::Replacement::kLru);
    util::Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next_below(48 << 20)));
}
BENCHMARK(BM_L3SetWalk);

void
BM_HierarchyStridePrefetch(benchmark::State& state)
{
    // One stride stream per 4 KB page, pages scattered over 256 MB: the
    // prefetcher locks on each stream and every access then emits up
    // to four prefetch targets, each an L1D/L2/L3 fill decision. The
    // stride cycles through 8, 24, 64 and 136 bytes from page to page.
    mem::CacheHierarchy hierarchy(mem::westmere_memory_config());
    static constexpr std::uint64_t kStrides[] = {8, 24, 64, 136};
    const auto page_base = [](std::uint64_t page) {
        return (page * 0x9E3779B97F4A7C15ull) & ((256ull << 20) - 1) &
               ~std::uint64_t{4095};
    };
    std::uint64_t page = 0;
    std::uint64_t addr = page_base(page);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hierarchy.data_access(addr, false));
        addr += kStrides[page & 3];
        if (addr - page_base(page) >= 4096)
            addr = page_base(++page);
    }
}
BENCHMARK(BM_HierarchyStridePrefetch);

void
BM_ZipfSample(benchmark::State& state)
{
    util::Rng rng(3);
    util::ZipfSampler zipf(1'000'000, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void
BM_CodeLayoutFetch(benchmark::State& state)
{
    trace::CodeLayout layout({{"hot", 64, 320, 0.6, 0.6, 30.0},
                              {"warm", 3000, 448, 0.4, 0.75, 20.0}},
                             0x400000, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(layout.next_fetch());
}
BENCHMARK(BM_CodeLayoutFetch);

void
BM_CoreConsumeAlu(benchmark::State& state)
{
    cpu::Core core(cpu::westmere_core_config(),
                   mem::westmere_memory_config());
    trace::MicroOp op;
    op.cls = trace::OpClass::kAlu;
    op.fetch_addr = 0x1000;
    for (auto _ : state) {
        core.consume(op);
        op.fetch_addr = 0x1000 + ((op.fetch_addr + 4) & 0xFFF);
    }
}
BENCHMARK(BM_CoreConsumeAlu);

void
BM_CoreConsumeLoadMix(benchmark::State& state)
{
    cpu::Core core(cpu::westmere_core_config(),
                   mem::westmere_memory_config());
    util::Rng rng(5);
    trace::MicroOp op;
    for (auto _ : state) {
        op.cls = rng.next_bool(0.3) ? trace::OpClass::kLoad
                                    : trace::OpClass::kAlu;
        op.addr = rng.next_below(16 << 20);
        op.fetch_addr = 0x1000 + rng.next_below(1 << 20);
        core.consume(op);
    }
}
BENCHMARK(BM_CoreConsumeLoadMix);

// --- Op-delivery path (single vs batched consume) -----------------------

void
BM_CoreConsumeAluBatched(benchmark::State& state)
{
    cpu::Core core(cpu::westmere_core_config(),
                   mem::westmere_memory_config());
    constexpr std::size_t kBatch = 64;
    trace::MicroOp batch[kBatch];
    std::uint64_t fetch = 0x1000;
    for (std::size_t i = 0; i < kBatch; ++i) {
        batch[i].cls = trace::OpClass::kAlu;
        batch[i].fetch_addr = 0x1000 + (fetch & 0xFFF);
        fetch += 4;
    }
    for (auto _ : state)
        core.consume_batch(batch, kBatch);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kBatch);
}
BENCHMARK(BM_CoreConsumeAluBatched);

void
BM_ExecCtxEmitAlu(benchmark::State& state)
{
    // The full per-op producer path: emit -> fetch-address stream ->
    // batch buffer -> batched virtual delivery into the core.
    cpu::Core core(cpu::westmere_core_config(),
                   mem::westmere_memory_config());
    trace::CodeLayout user({{"hot", 64, 320, 0.6, 0.6, 30.0}}, 0x400000, 4);
    trace::CodeLayout kernel = trace::tight_kernel_layout(
        0xffffffff81000000ull, 9);
    trace::ExecCtx ctx(core, std::move(user), std::move(kernel),
                       trace::ExecProfile{}, 1234);
    for (auto _ : state)
        ctx.alu(1);
}
BENCHMARK(BM_ExecCtxEmitAlu);

void
BM_BranchResolveConditional(benchmark::State& state)
{
    const cpu::CoreConfig cfg = cpu::westmere_core_config();
    cpu::BranchUnit unit(
        std::make_unique<cpu::GsharePredictor>(cfg.gshare_history_bits),
        cfg.btb_entries, cfg.btb_ways);
    util::Rng rng(7);
    for (auto _ : state) {
        const std::uint64_t key = rng.next_below(4096);
        benchmark::DoNotOptimize(
            unit.resolve_conditional(key, (key & 3) != 0));
    }
}
BENCHMARK(BM_BranchResolveConditional);

/**
 * The sharded engine's queue under the cluster's load shape: 32 shards
 * on one thread, each with 350 running attempts that re-push a progress
 * heartbeat every lookahead and hold one pending finish, so about 700
 * events are pending per shard. A finish relaunches its attempt until
 * the horizon. Reports host ns per processed event inside run(), so
 * the seeding is not counted.
 *
 * With watchdog_factor > 0 every launch also queues a watchdog at
 * start + factor x its duration, as the fault-armed scheduler does
 * (factor 6 is FairShareConfig's default). The attempt finishes long
 * before, so the watchdog is stale when it fires, but until then it is
 * a far-future event that each epoch's partition of the shard's
 * pending vector walks past.
 */
void
BM_ShardEngineHeartbeats(benchmark::State& state)
{
    constexpr std::uint32_t kShards = 32;
    constexpr std::uint32_t kAttempts = 350;
    constexpr double kLookahead = 1.0;
    constexpr double kHorizon = 40.0;
    constexpr std::uint32_t kProgress = 0;
    constexpr std::uint32_t kFinish = 1;
    constexpr std::uint32_t kWatchdog = 2;
    const auto watchdog_factor = static_cast<double>(state.range(0));
    std::uint64_t events = 0;
    double run_s = 0.0;
    for (auto _ : state) {
        mapreduce::ShardedEngine engine(kShards, kLookahead, 11);
        util::Rng rng(5);
        for (std::uint32_t s = 0; s < kShards; ++s) {
            for (std::uint32_t a = 0; a < kAttempts; ++a) {
                const double start = rng.next_double() * kLookahead;
                const double end = start + 4.0 + 12.0 * rng.next_double();
                engine.seed_event(s, start, kProgress, a, 0, 0, 0, end);
                engine.seed_event(s, end, kFinish, a);
                if (watchdog_factor > 0.0)
                    engine.seed_event(
                        s, start + watchdog_factor * (end - start),
                        kWatchdog, a);
            }
        }
        const auto t0 = std::chrono::steady_clock::now();
        const mapreduce::EngineResult result = engine.run(
            [watchdog_factor](std::uint32_t,
                              const mapreduce::ShardEvent& ev,
                              mapreduce::ShardApi& api) {
                if (ev.kind == kWatchdog)
                    return;  // stale: its attempt finished long ago
                if (ev.kind == kProgress) {
                    // x is the attempt's finish time.
                    if (api.now() + kLookahead < ev.x)
                        api.push(api.now() + kLookahead, kProgress, ev.a, 0,
                                 0, 0, ev.x);
                    return;
                }
                if (api.now() >= kHorizon)
                    return;
                const double duration = 4.0 + 12.0 * api.rng().next_double();
                const double end = api.now() + duration;
                api.push(api.now(), kProgress, ev.a, 0, 0, 0, end);
                api.push(end, kFinish, ev.a);
                if (watchdog_factor > 0.0)
                    api.push(api.now() + watchdog_factor * duration,
                             kWatchdog, ev.a);
            },
            [](double, const std::vector<mapreduce::ShardMessage>&,
               mapreduce::Coordinator&) { return true; },
            1);
        run_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        benchmark::DoNotOptimize(result.events);
        events += result.events;
    }
    state.counters["ns_per_event"] =
        run_s * 1e9 / static_cast<double>(events);
}
BENCHMARK(BM_ShardEngineHeartbeats)
    ->ArgName("watchdog_factor")
    ->Arg(0)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
