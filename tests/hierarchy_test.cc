/** @file Tests for the cache hierarchy and prefetchers. */

#include <gtest/gtest.h>

#include <iterator>

#include "mem/hierarchy.h"
#include "mem/prefetcher.h"
#include "util/rng.h"

namespace dcb::mem {
namespace {

MemoryConfig
no_prefetch_config()
{
    MemoryConfig cfg = westmere_memory_config();
    cfg.enable_data_prefetch = false;
    cfg.enable_insn_prefetch = false;
    return cfg;
}

TEST(Hierarchy, LatenciesMatchLevels)
{
    CacheHierarchy h(no_prefetch_config());
    const AccessResult miss = h.data_access(0x10000, false);
    EXPECT_EQ(miss.level, HitLevel::kMemory);
    EXPECT_EQ(miss.latency, h.config().memory_latency);

    const AccessResult hit = h.data_access(0x10000, false);
    EXPECT_EQ(hit.level, HitLevel::kL1);
    EXPECT_EQ(hit.latency, h.config().l1_latency);
}

TEST(Hierarchy, L2CatchesL1Eviction)
{
    CacheHierarchy h(no_prefetch_config());
    // Touch 64KB (2x the 32KB L1D); the L2 (256KB) holds everything.
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
        h.data_access(a, false);
    const AccessResult r = h.data_access(0, false);
    EXPECT_EQ(r.level, HitLevel::kL2);
    EXPECT_EQ(r.latency, h.config().l2_latency);
}

TEST(Hierarchy, L3CatchesL2Eviction)
{
    CacheHierarchy h(no_prefetch_config());
    // 1 MB working set: beyond L2 (256KB), within L3 (12MB).
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < (1 << 20); a += 64)
            h.data_access(a, false);
    const AccessResult r = h.data_access(0, false);
    EXPECT_EQ(r.level, HitLevel::kL3);
}

TEST(Hierarchy, InstructionAndDataPathsAreSeparateAtL1)
{
    CacheHierarchy h(no_prefetch_config());
    h.fetch(0x4000);
    EXPECT_EQ(h.l1i_misses(), 1u);
    EXPECT_EQ(h.l1d_misses(), 0u);
    // The same line via the data path misses L1D but hits unified L2.
    const AccessResult r = h.data_access(0x4000, false);
    EXPECT_EQ(r.level, HitLevel::kL2);
}

TEST(Hierarchy, L3ServiceRatioEquationOne)
{
    CacheHierarchy h(no_prefetch_config());
    // Build an L3-resident set beyond the L2, then re-traverse it.
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t a = 0; a < (2 << 20); a += 64)
            h.data_access(a, false);
    h.reset_counters();
    for (std::uint64_t a = 0; a < (2 << 20); a += 64)
        h.data_access(a, false);
    // Every L2 miss now hits in L3.
    EXPECT_GT(h.l2_misses(), 0u);
    EXPECT_NEAR(h.l3_service_ratio(), 1.0, 0.01);
}

TEST(Hierarchy, WalkerEntersAtL2)
{
    CacheHierarchy h(no_prefetch_config());
    const AccessResult first = h.walker_access(0xF000'0000'0000ULL);
    EXPECT_EQ(first.level, HitLevel::kMemory);
    const AccessResult second = h.walker_access(0xF000'0000'0000ULL);
    EXPECT_EQ(second.level, HitLevel::kL2);
    EXPECT_EQ(h.l1d_accesses(), 0u);  // never touches the L1D
}

TEST(Hierarchy, DataPrefetchCoversStreams)
{
    MemoryConfig with = westmere_memory_config();
    CacheHierarchy pf(with);
    CacheHierarchy nopf(no_prefetch_config());
    // Stream 1 MB at 8-byte stride.
    for (std::uint64_t a = 0; a < (1 << 20); a += 8) {
        pf.data_access(a, false);
        nopf.data_access(a, false);
    }
    EXPECT_LT(pf.l1d_misses() * 3, nopf.l1d_misses());
    EXPECT_GT(pf.prefetch_fills(), 1000u);
}

TEST(Hierarchy, PrefetchDoesNotHelpRandomAccess)
{
    CacheHierarchy h(westmere_memory_config());
    std::uint64_t x = 12345;
    for (int i = 0; i < 20'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        h.data_access((x >> 16) % (64 << 20), false);
    }
    // Essentially no useful prefetches for a random stream.
    EXPECT_LT(h.prefetch_fills(), 600u);
}

TEST(Prefetcher, DetectsConstantStride)
{
    StridePrefetcher pf(64, 2, 4096);
    std::uint64_t out[StridePrefetcher::kMaxPrefetches];
    EXPECT_EQ(pf.observe(1000, out), 0u);  // first touch
    EXPECT_EQ(pf.observe(1064, out), 0u);  // stride learned
    const std::uint32_t n = pf.observe(1128, out);  // confident
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(out[0], 1192u);
    EXPECT_EQ(out[1], 1256u);
}

TEST(Prefetcher, NeverCrossesPageBoundary)
{
    StridePrefetcher pf(64, 8, 4096);
    std::uint64_t out[StridePrefetcher::kMaxPrefetches];
    pf.observe(4096 - 192, out);
    pf.observe(4096 - 128, out);
    const std::uint32_t n = pf.observe(4096 - 64, out);
    // Only in-page prefetches may be emitted (none: next is page end).
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_LT(out[i], 4096u);
}

TEST(Prefetcher, ResetsOnStrideChange)
{
    StridePrefetcher pf(64, 2, 4096);
    std::uint64_t out[StridePrefetcher::kMaxPrefetches];
    pf.observe(0, out);
    pf.observe(64, out);
    pf.observe(128, out);
    // Break the stride: confidence resets, no prefetches.
    EXPECT_EQ(pf.observe(1000, out), 0u);
    EXPECT_EQ(pf.observe(3000, out), 0u);
}

TEST(Hierarchy, InstructionPrefetchNextLine)
{
    CacheHierarchy h(westmere_memory_config());
    h.fetch(0x8000);  // miss; next line prefetched
    EXPECT_EQ(h.l1i_misses(), 1u);
    h.fetch(0x8040);  // covered by the next-line prefetch
    EXPECT_EQ(h.l1i_misses(), 1u);
}

/**
 * Pins the prefetch fill path on its own, apart from the suite golden
 * hashes: a fixed seeded mix of stride runs (strides below, at and
 * above the line size, both signs), random accesses and sequential
 * instruction-fetch runs must leave every counter where a hierarchy
 * that probes the L1 and the L3 before each prefetch fill leaves it.
 * Half of each kind stays in a region about the L1's size, so prefetch
 * targets are often already resident and L1 recency decides later
 * hits; the other half roams far beyond the L3.
 */
TEST(Hierarchy, PrefetchPathCountsArePinned)
{
    static constexpr std::int64_t kStrides[] = {8,   16, 24,  48, 64,
                                                72,  128, 512, -8, -64};
    CacheHierarchy h(westmere_memory_config());
    util::Rng rng(20);
    std::uint64_t latency_sum = 0;
    for (int run = 0; run < 10000; ++run) {
        const std::uint64_t kind = rng.next_below(3);
        const std::uint64_t n = 16 + rng.next_below(112);
        const std::uint64_t region = rng.next_bool(0.5) ? 48 << 10
                                                         : 256 << 20;
        if (kind == 0) {
            const std::int64_t stride =
                kStrides[rng.next_below(std::size(kStrides))];
            std::uint64_t a = (1 << 20) + rng.next_below(region);
            for (std::uint64_t i = 0; i < n; ++i) {
                latency_sum += h.data_access(a, rng.next_bool(0.3)).latency;
                a += static_cast<std::uint64_t>(stride);
            }
        } else if (kind == 1) {
            for (std::uint64_t i = 0; i < n; ++i)
                latency_sum += h.data_access(rng.next_below(region),
                                             false).latency;
        } else {
            std::uint64_t pc = 0x400000 + (rng.next_below(region) & ~3ull);
            for (std::uint64_t i = 0; i < n; ++i, pc += 4)
                latency_sum += h.fetch(pc).latency;
        }
    }
    EXPECT_EQ(h.prefetch_fills(), 145290u);
    EXPECT_EQ(h.prefetch_memory_fills(), 70323u);
    EXPECT_EQ(h.l1i_accesses(), 231556u);
    EXPECT_EQ(h.l1i_misses(), 8285u);
    EXPECT_EQ(h.l1d_accesses(), 481240u);
    EXPECT_EQ(h.l1d_misses(), 235353u);
    EXPECT_EQ(h.l2_accesses(), 243638u);
    EXPECT_EQ(h.l2_misses(), 164708u);
    EXPECT_EQ(h.l3_accesses(), 164708u);
    EXPECT_EQ(h.l3_misses(), 135865u);
    EXPECT_EQ(latency_sum, 28390724u);
}

}  // namespace
}  // namespace dcb::mem
