/**
 * @file
 * Greenwald-Khanna quantile sketch tests: the rank-error guarantee as a
 * property test over several distributions, bounded tuple counts,
 * deterministic byte-identical merges (the sharded-vs-serial replay
 * invariant), merged-error accounting, degenerate inputs, and the
 * LatencyStats extraction used by reports and BENCH artifacts.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/quantile.h"
#include "util/rng.h"

namespace dcb {
namespace {

/** Rank error of `value` against the sorted sample, in rank fraction:
    distance from the target rank to the nearest rank holding `value`,
    normalized by n. */
double
rank_error(const std::vector<double>& sorted, double phi, double value)
{
    const double n = static_cast<double>(sorted.size());
    const double target = std::ceil(phi * n);
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), value);
    // Ranks are 1-based; `value` occupies [lo_rank, hi_rank].
    const double lo_rank =
        static_cast<double>(lo - sorted.begin()) + 1.0;
    const double hi_rank = static_cast<double>(hi - sorted.begin());
    if (target < lo_rank)
        return (lo_rank - target) / n;
    if (target > hi_rank)
        return (target - hi_rank) / n;
    return 0.0;
}

std::vector<double>
make_samples(int kind, std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (kind) {
        case 0: v[i] = rng.next_double(); break;                // uniform
        case 1: v[i] = rng.next_exponential(1.0); break;        // exp tail
        case 2: v[i] = std::exp(2.0 * rng.next_gaussian()); break;  // lognormal
        case 3: v[i] = static_cast<double>(i); break;           // sorted
        case 4: v[i] = static_cast<double>(n - i); break;       // reversed
        case 5: v[i] = 42.0; break;                             // constant
        default: v[i] = rng.next_gaussian(); break;
        }
    }
    return v;
}

/** Every query of an `eps` sketch over `samples` lands within
    eps + 1/n of its target rank, and phi 0 / 1 return the extremes. */
void
expect_rank_error_within(std::vector<double> samples, double eps,
                         const std::string& label)
{
    const double kPhis[] = {0.01, 0.1, 0.25, 0.5, 0.75,
                            0.9,  0.95, 0.99, 0.999};
    obs::QuantileSketch sketch(eps);
    for (const double v : samples)
        sketch.insert(v);
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    for (const double phi : kPhis)
        EXPECT_LE(rank_error(samples, phi, sketch.query(phi)),
                  eps + 1.0 / n)
            << label << " phi=" << phi;
    EXPECT_EQ(sketch.query(0.0), samples.front()) << label;
    EXPECT_EQ(sketch.query(1.0), samples.back()) << label;
}

TEST(Quantile, RankErrorStaysWithinEpsilon)
{
    for (int kind = 0; kind < 6; ++kind)
        for (const std::size_t n : {100ul, 5000ul, 100000ul})
            expect_rank_error_within(
                make_samples(kind, n, 17 + kind), 0.01,
                "kind=" + std::to_string(kind) +
                    " n=" + std::to_string(n));
    // A long latency-like tail at the default epsilon: 1.5M lognormal
    // samples.
    util::Rng rng(7);
    std::vector<double> tail(1'500'000);
    for (double& v : tail)
        v = std::exp(0.8 * rng.next_gaussian());
    expect_rank_error_within(std::move(tail),
                             obs::QuantileSketch::kDefaultEpsilon,
                             "lognormal n=1500000");
}

TEST(Quantile, SpaceStaysSublinear)
{
    obs::QuantileSketch sketch(0.01);
    util::Rng rng(3);
    for (int i = 0; i < 200000; ++i)
        sketch.insert(rng.next_double());
    // GK keeps O((1/eps) log(eps n)) tuples; with eps=1% and n=200k
    // that is a few hundred -- three orders below the sample count.
    EXPECT_LT(sketch.tuples().size(), 2000u);
    EXPECT_EQ(sketch.count(), 200000u);
}

TEST(Quantile, MergeIsDeterministicAndByteIdentical)
{
    constexpr std::size_t kShards = 8;
    constexpr std::size_t kPerShard = 20000;
    const auto build_shards = [] {
        std::vector<obs::QuantileSketch> shards(
            kShards, obs::QuantileSketch(0.005));
        for (std::size_t s = 0; s < kShards; ++s) {
            util::Rng rng(1000 + s);
            for (std::size_t i = 0; i < kPerShard; ++i)
                shards[s].insert(rng.next_exponential(2.0));
        }
        return shards;
    };
    // Two independent constructions of the same sharded computation
    // must merge to the same bytes -- the property that lets the
    // fair-share scheduler's dump() identity extend to sketches.
    const std::vector<obs::QuantileSketch> a = build_shards();
    const std::vector<obs::QuantileSketch> b = build_shards();
    obs::QuantileSketch merged_a(0.005);
    obs::QuantileSketch merged_b(0.005);
    for (std::size_t s = 0; s < kShards; ++s) {
        ASSERT_EQ(a[s].dump(), b[s].dump()) << "shard " << s;
        merged_a.merge(a[s]);
        merged_b.merge(b[s]);
    }
    EXPECT_EQ(merged_a.dump(), merged_b.dump());
    EXPECT_EQ(merged_a.count(), kShards * kPerShard);

    // Merge order changes the bytes -- which is exactly why production
    // merges pin shard order; assert the sensitivity so a future
    // "optimization" that reorders merges fails loudly.
    obs::QuantileSketch reordered(0.005);
    for (std::size_t s = kShards; s-- > 0;)
        reordered.merge(a[s]);
    EXPECT_EQ(reordered.count(), merged_a.count());
    // (Not asserting inequality of bytes -- equal layouts are possible
    // in principle -- but the percentiles must agree within bounds.)
    EXPECT_NEAR(reordered.query(0.5), merged_a.query(0.5),
                0.1 * merged_a.query(0.5) + 1e-12);
}

TEST(Quantile, MergedSketchKeepsRankGuarantee)
{
    constexpr std::size_t kShards = 4;
    constexpr std::size_t kPerShard = 25000;
    std::vector<double> all;
    obs::QuantileSketch merged(0.005);
    for (std::size_t s = 0; s < kShards; ++s) {
        obs::QuantileSketch shard(0.005);
        util::Rng rng(7000 + s);
        for (std::size_t i = 0; i < kPerShard; ++i) {
            const double v = std::exp(rng.next_gaussian());
            shard.insert(v);
            all.push_back(v);
        }
        merged.merge(shard);
    }
    std::sort(all.begin(), all.end());
    // Pairwise epsilon accounting: eps grows with each merge.
    EXPECT_GE(merged.epsilon(), 0.005);
    for (const double phi : {0.5, 0.95, 0.99, 0.999}) {
        const double err = rank_error(all, phi, merged.query(phi));
        EXPECT_LE(err, merged.epsilon())
            << "phi=" << phi << " eps=" << merged.epsilon();
    }
}

TEST(Quantile, DegenerateInputs)
{
    obs::QuantileSketch empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.query(0.5), 0.0);

    obs::QuantileSketch one;
    one.insert(3.25);
    EXPECT_EQ(one.count(), 1u);
    for (const double phi : {0.0, 0.5, 0.999, 1.0})
        EXPECT_EQ(one.query(phi), 3.25);

    obs::QuantileSketch merged;
    merged.merge(empty);
    EXPECT_TRUE(merged.empty());
    merged.merge(one);
    EXPECT_EQ(merged.count(), 1u);
    EXPECT_EQ(merged.query(0.5), 3.25);
}

TEST(Quantile, LatencyStatsExtraction)
{
    obs::QuantileSketch sketch(0.001);
    for (int i = 1; i <= 1000; ++i)
        sketch.insert(static_cast<double>(i));
    const obs::LatencyStats s = obs::latency_stats(sketch);
    EXPECT_EQ(s.count, 1000u);
    EXPECT_NEAR(s.p50, 500.0, 2.0);
    EXPECT_NEAR(s.p95, 950.0, 2.0);
    EXPECT_NEAR(s.p99, 990.0, 2.0);
    EXPECT_NEAR(s.p999, 999.0, 2.0);
    const std::string json = obs::latency_stats_json(s);
    EXPECT_NE(json.find("\"count\": 1000"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

}  // namespace
}  // namespace dcb
