/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "mem/cache.h"
#include "util/rng.h"

namespace dcb::mem {
namespace {

CacheGeometry
geometry(std::uint64_t size, std::uint32_t ways, std::uint32_t line = 64)
{
    return CacheGeometry{size, ways, line};
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(geometry(1024, 2), Replacement::kLru);
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13F));  // same 64-byte line
    EXPECT_FALSE(cache.access(0x140));  // next line
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64B lines, 2 sets -> set stride is 128 bytes.
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    const std::uint64_t a = 0x0000;
    const std::uint64_t b = 0x0100;  // same set as a
    const std::uint64_t c = 0x0200;  // same set again
    cache.access(a);
    cache.access(b);
    cache.access(a);        // a is now MRU
    cache.access(c);        // evicts b
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.access(0x40));
    EXPECT_TRUE(cache.probe(0x40));
}

TEST(Cache, FillDoesNotCount)
{
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    cache.fill(0x40);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_TRUE(cache.access(0x40));  // prefetched line hits
}

TEST(Cache, InvalidateAndFlush)
{
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    cache.access(0x40);
    cache.invalidate(0x40);
    EXPECT_FALSE(cache.probe(0x40));
    cache.access(0x40);
    cache.access(0x80);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_FALSE(cache.probe(0x80));
    // Counters survive a flush.
    EXPECT_GT(cache.accesses(), 0u);
}

TEST(Cache, MissRatioAndReset)
{
    SetAssocCache cache(geometry(1024, 4), Replacement::kLru);
    cache.access(0x0);
    cache.access(0x0);
    EXPECT_NEAR(cache.miss_ratio(), 0.5, 1e-12);
    cache.reset_counters();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_TRUE(cache.access(0x0));  // contents kept
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 12288 sets like the E5645 L3: 12 MB, 16-way.
    SetAssocCache cache(geometry(12 * 1024 * 1024, 16), Replacement::kLru);
    for (std::uint64_t i = 0; i < 1000; ++i)
        cache.access(i * 64);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_TRUE(cache.probe(i * 64)) << i;
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    SetAssocCache cache(geometry(4096, 4), Replacement::kLru);
    // Two full passes over 4x the capacity: second pass still misses.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 4 * 4096; a += 64)
            cache.access(a);
    EXPECT_GT(cache.miss_ratio(), 0.95);
}

TEST(Cache, WorkingSetSmallerThanCacheHits)
{
    SetAssocCache cache(geometry(8192, 4), Replacement::kLru);
    for (int pass = 0; pass < 10; ++pass)
        for (std::uint64_t a = 0; a < 4096; a += 64)
            cache.access(a);
    // Only the first pass misses.
    EXPECT_LT(cache.miss_ratio(), 0.11);
}

TEST(Cache, RandomReplacementStillCaches)
{
    SetAssocCache cache(geometry(4096, 4), Replacement::kRandom);
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t a = 0; a < 2048; a += 64)
            cache.access(a);
    EXPECT_LT(cache.miss_ratio(), 0.3);
}

/**
 * Random replacement fills the lowest invalid way first and then evicts
 * the way its seeded RNG names, so the placement of every line decides
 * later evictions. Pinned to the counts of a per-line struct layout
 * that walks each set from way 0 and stops at the first invalid way.
 */
TEST(Cache, RandomReplacementPlacementIsPinned)
{
    SetAssocCache cache(geometry(8192, 8), Replacement::kRandom, 7);
    util::Rng rng(99);
    for (int i = 0; i < 50'000; ++i) {
        if (i % 5'000 == 0)
            cache.invalidate(rng.next_below(16384));
        cache.access(rng.next_below(16384));
    }
    EXPECT_EQ(cache.hits(), 24841u);
    EXPECT_EQ(cache.misses(), 25159u);
}

/**
 * Reference LRU model: per-set deque of tags, front = MRU. Used to
 * verify the cache against an independently written implementation over
 * random traces and geometries.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sets, std::uint32_t ways,
                 std::uint32_t line_shift)
        : sets_(sets), ways_(ways), line_shift_(line_shift),
          state_(sets)
    {
    }

    /** Move the line to MRU, inserting it (evicting the LRU) if absent;
        true when it was present. */
    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t tag = tag_of(addr);
        auto& q = state_[set_of(addr)];
        const auto it = std::find(q.begin(), q.end(), tag);
        const bool present = it != q.end();
        if (present)
            q.erase(it);
        q.push_front(tag);
        if (q.size() > ways_)
            q.pop_back();
        return present;
    }

    /** Prefetch fill: insert or refresh; true when the line was absent. */
    bool
    fill(std::uint64_t addr)
    {
        return !access(addr);
    }

    /** Insert an absent line; leave a present one where it is. */
    bool
    fill_if_absent(std::uint64_t addr)
    {
        return !probe(addr) && fill(addr);
    }

    bool
    probe(std::uint64_t addr) const
    {
        const auto& q = state_[set_of(addr)];
        return std::find(q.begin(), q.end(), tag_of(addr)) != q.end();
    }

    void
    invalidate(std::uint64_t addr)
    {
        auto& q = state_[set_of(addr)];
        const auto it = std::find(q.begin(), q.end(), tag_of(addr));
        if (it != q.end())
            q.erase(it);
    }

    void
    flush()
    {
        for (auto& q : state_)
            q.clear();
    }

  private:
    std::uint64_t set_of(std::uint64_t addr) const
    {
        return (addr >> line_shift_) % sets_;
    }
    std::uint64_t tag_of(std::uint64_t addr) const
    {
        return (addr >> line_shift_) / sets_;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::uint32_t line_shift_;
    std::vector<std::deque<std::uint64_t>> state_;
};

/** (size, ways) sweep for the property test. */
class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheVsReference, AgreesOnRandomTrace)
{
    const auto [size, ways] = GetParam();
    const CacheGeometry g = geometry(size, ways);
    SetAssocCache cache(g, Replacement::kLru);
    ReferenceLru ref(g.num_sets(), ways, 6);
    util::Rng rng(size * 31 + ways);
    for (int i = 0; i < 20'000; ++i) {
        // Mix of random and sequential addresses in a 4x working set.
        std::uint64_t addr;
        if (rng.next_bool(0.5))
            addr = rng.next_below(size * 4);
        else
            addr = (static_cast<std::uint64_t>(i) * 64) % (size * 2);
        EXPECT_EQ(cache.access(addr), ref.access(addr)) << "op " << i;
    }
}

/**
 * Every tag-store operation against the reference on a seeded random
 * mix: runs of same-line accesses (the memo path), fills and
 * fill_if_absent (prefetch paths), probes, invalidations and rare
 * flushes. Half the access runs return to the previous run's line, so
 * memo hits also follow the other operations. Lines are drawn from 64
 * sets spread over the index range, three ways' worth of tags each, so
 * even the 12288-set L3 sees conflict misses. Each return value must agree, and so must
 * residency of a random line after every operation.
 */
TEST_P(CacheVsReference, AgreesOnEveryOperation)
{
    const auto [size, ways] = GetParam();
    const CacheGeometry g = geometry(size, ways);
    SetAssocCache cache(g, Replacement::kLru);
    ReferenceLru ref(g.num_sets(), ways, 6);
    util::Rng rng(size * 17 + ways);
    const std::uint64_t sets_used = std::min<std::uint64_t>(g.num_sets(), 64);
    const auto random_line = [&] {
        const std::uint64_t set =
            rng.next_below(sets_used) * (g.num_sets() / sets_used);
        const std::uint64_t tag = rng.next_below(3 * ways);
        return (tag * g.num_sets() + set) * 64;
    };
    std::uint64_t last_access = random_line();
    for (int i = 0; i < 40'000; ++i) {
        const std::uint64_t line = random_line();
        const std::uint64_t addr = line + rng.next_below(64);
        const std::uint64_t op = rng.next_below(1000);
        if (op < 450) {
            // A run of accesses to one line: all after the first are
            // memo hits, and so is the first when it revisits the line
            // of the last access run across other operations.
            if (rng.next_bool(0.5))
                last_access = line;
            const std::uint64_t run = 1 + rng.next_below(4);
            for (std::uint64_t k = 0; k < run; ++k) {
                const std::uint64_t a = last_access + 8 * k;
                ASSERT_EQ(cache.access(a), ref.access(a)) << "op " << i;
            }
        } else if (op < 650) {
            ASSERT_EQ(cache.fill(addr), ref.fill(addr)) << "op " << i;
        } else if (op < 850) {
            ASSERT_EQ(cache.fill_if_absent(addr), ref.fill_if_absent(addr))
                << "op " << i;
        } else if (op < 950) {
            ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << "op " << i;
        } else if (op < 999) {
            cache.invalidate(addr);
            ref.invalidate(addr);
        } else {
            cache.flush();
            ref.flush();
        }
        const std::uint64_t check = random_line();
        ASSERT_EQ(cache.probe(check), ref.probe(check)) << "op " << i;
    }
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(std::make_tuple(1024ULL, 1u),
                      std::make_tuple(4096ULL, 2u),
                      std::make_tuple(8192ULL, 4u),
                      std::make_tuple(32768ULL, 8u),
                      std::make_tuple(12288ULL * 64, 16u),  // non-pow2 sets
                      // The Table III L3: 12 MB, 16-way, 12288 sets.
                      std::make_tuple(12ULL * 1024 * 1024, 16u)));

/**
 * Memo hits skip the stamp: after a run of them the memoized line must
 * still rank most recent, so the next conflict misses evict the other
 * ways oldest first and the memoized line last.
 */
TEST(Cache, MemoHitsKeepTheVictimOrder)
{
    // 4-way, 64B lines, 2 sets -> same-set stride is 128 bytes.
    SetAssocCache cache(geometry(512, 4), Replacement::kLru);
    const auto line = [](std::uint64_t k) { return k * 128; };
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_FALSE(cache.access(line(k)));
    // Touch line 0 again (slow path), then hit it through the memo.
    EXPECT_TRUE(cache.access(line(0)));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(cache.access(line(0) + 8));
    // Recency is now 1 < 2 < 3 < 0: four conflict misses evict 1, 2, 3
    // and then 0.
    EXPECT_FALSE(cache.access(line(4)));
    EXPECT_FALSE(cache.probe(line(1)));
    EXPECT_TRUE(cache.probe(line(0)));
    EXPECT_FALSE(cache.access(line(5)));
    EXPECT_FALSE(cache.probe(line(2)));
    EXPECT_FALSE(cache.access(line(6)));
    EXPECT_FALSE(cache.probe(line(3)));
    EXPECT_TRUE(cache.probe(line(0)));
    EXPECT_FALSE(cache.access(line(7)));
    EXPECT_FALSE(cache.probe(line(0)));
    EXPECT_EQ(cache.hits(), 11u);
    EXPECT_EQ(cache.misses(), 8u);
}

TEST(Cache, FillReportsAbsenceAndFillIfAbsentKeepsRecency)
{
    // 2-way, 2 sets: a, b and c share a set.
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    const std::uint64_t a = 0x000, b = 0x100, c = 0x200;
    EXPECT_TRUE(cache.fill(a));
    EXPECT_FALSE(cache.fill(a));
    EXPECT_TRUE(cache.fill_if_absent(b));
    // a is LRU; fill_if_absent(a) must not refresh it, so c evicts a.
    EXPECT_FALSE(cache.fill_if_absent(a));
    EXPECT_TRUE(cache.fill(c));
    EXPECT_FALSE(cache.probe(a));
    EXPECT_TRUE(cache.probe(b));
    // fill(b) refreshes b, so the next insert evicts c.
    EXPECT_FALSE(cache.fill(b));
    EXPECT_TRUE(cache.fill(a));
    EXPECT_FALSE(cache.probe(c));
    EXPECT_EQ(cache.accesses(), 0u);
}

/**
 * The Table III L3 indexes 12288 sets through FastDiv instead of `%`;
 * this pins the indexing to modulo semantics behaviorally. In a
 * direct-mapped 12288-set cache, two addresses conflict (second access
 * evicts the first) exactly when their line addresses are congruent
 * mod 12288 -- including line addresses far above 2^32, where a broken
 * reciprocal would first diverge.
 */
TEST(Cache, NonPow2SetIndexMatchesModuloSemantics)
{
    constexpr std::uint64_t kSets = 12288;
    constexpr std::uint64_t kLine = 64;
    SetAssocCache cache(geometry(kSets * kLine, 1), Replacement::kLru);

    util::Rng rng(2026);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t line_a = rng.next_u64() >> 8;
        const std::uint64_t addr_a = line_a * kLine;
        // Same set, different tag: must evict.
        const std::uint64_t addr_conflict = (line_a + kSets) * kLine;
        // Different set: must coexist.
        const std::uint64_t addr_neighbor = (line_a + 1) * kLine;

        cache.flush();
        EXPECT_FALSE(cache.access(addr_a));
        EXPECT_FALSE(cache.access(addr_conflict));
        EXPECT_FALSE(cache.access(addr_a)) << "line " << line_a;

        cache.flush();
        EXPECT_FALSE(cache.access(addr_a));
        EXPECT_FALSE(cache.access(addr_neighbor));
        EXPECT_TRUE(cache.access(addr_a)) << "line " << line_a;
    }
}

}  // namespace
}  // namespace dcb::mem
