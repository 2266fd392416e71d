/** @file Unit tests for the util module. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "util/atomic_file.h"
#include "util/csv.h"
#include "util/fastdiv.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/zipf.h"

namespace dcb::util {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(11);
    std::array<int, 8> counts{};
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.next_below(8)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 * 0.9);
        EXPECT_LT(c, n / 8 * 1.1);
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.next_range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    constexpr int kDraws = 50'000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < kDraws; ++i) {
        const double x = rng.next_gaussian();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kDraws;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(std::sqrt(sum_sq / kDraws - mean * mean), 1.0, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    constexpr int kDraws = 50'000;
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i)
        sum += rng.next_exponential(2.0);
    EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, ForkIsIndependent)
{
    Rng a(9);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 3);
}

TEST(Zipf, RanksWithinBounds)
{
    Rng rng(1);
    ZipfSampler zipf(100, 1.0);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(zipf.sample(rng), 100u);
}

TEST(Zipf, LowRanksMoreFrequent)
{
    Rng rng(2);
    ZipfSampler zipf(1000, 1.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100'000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[9] * 2);
    EXPECT_GT(counts[0], 5000);
}

TEST(Zipf, SkewZeroIsNearUniform)
{
    Rng rng(3);
    ZipfSampler zipf(10, 0.0);
    std::array<int, 10> counts{};
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts) {
        EXPECT_GT(c, n / 10 * 0.85);
        EXPECT_LT(c, n / 10 * 1.15);
    }
}

TEST(Zipf, SingleRankDegenerate)
{
    Rng rng(4);
    ZipfSampler zipf(1, 1.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

/** Property sweep: empirical rank-frequency ratios follow the skew. */
class ZipfSkewTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkewTest, FrequencyRatioMatchesSkew)
{
    const double s = GetParam();
    Rng rng(21);
    ZipfSampler zipf(10'000, s);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 400'000; ++i)
        ++counts[zipf.sample(rng)];
    // P(0)/P(1) should be about 2^s.
    const double ratio = static_cast<double>(counts[0]) / counts[1];
    EXPECT_NEAR(ratio, std::pow(2.0, s), std::pow(2.0, s) * 0.25);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2));

TEST(StringUtil, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, SplitWhitespace)
{
    const auto parts = split_whitespace("  foo \t bar\nbaz  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "foo");
    EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtil, JoinTrimLowerStartsWith)
{
    EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(to_lower("AbC"), "abc");
    EXPECT_TRUE(starts_with("foobar", "foo"));
    EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(StringUtil, HumanBytesAndCommas)
{
    EXPECT_EQ(human_bytes(512), "512 B");
    EXPECT_EQ(human_bytes(1536), "1.5 KB");
    EXPECT_EQ(with_commas(1234567), "1,234,567");
    EXPECT_EQ(with_commas(12), "12");
}

TEST(StringUtil, ParseCountAcceptsOnlyWholeNumbers)
{
    EXPECT_EQ(parse_count("0"), 0u);
    EXPECT_EQ(parse_count("2000000"), 2000000u);
    EXPECT_EQ(parse_count("18446744073709551615"), ~std::uint64_t{0});
    for (const char* bad : {"", "abc", "10k", "2M", "-1", "+1", " 1", "1 ",
                            "1.5", "--ops", "18446744073709551616"})
        EXPECT_FALSE(parse_count(bad).has_value()) << '"' << bad << '"';
}

TEST(Table, RendersAllRows)
{
    Table t({"a", "bb"});
    t.add_row({"1", "2"});
    t.add_row({"333", "4"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Csv, EscapesSpecialCharacters)
{
    CsvWriter csv({"x", "y"});
    csv.add_row({"has,comma", "has\"quote"});
    const std::string s = csv.to_string();
    EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Crash-safe artifact writes
// ---------------------------------------------------------------------

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(AtomicFile, WritesAndReplacesWithoutLeavingTempFiles)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "dcb_atomic_test")
            .string();
    std::filesystem::remove_all(dir);
    const std::string path = dir + "/nested/out.txt";

    ASSERT_TRUE(write_file_atomic(path, "first"));  // creates parents
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(write_file_atomic(path, "second"));
    EXPECT_EQ(slurp(path), "second");

    // The temp file was renamed away, not left beside the artifact.
    std::size_t entries = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(dir + "/nested")) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, StreamingVariantCommitsOrCleansUp)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "dcb_atomic_stream")
            .string();
    std::filesystem::remove_all(dir);
    const std::string path = dir + "/report.json";

    std::string temp_path;
    std::FILE* f = open_file_atomic(path, &temp_path);
    ASSERT_NE(f, nullptr);
    EXPECT_NE(temp_path, path);
    // Mid-write the destination does not exist yet: a crash here would
    // leave the previous artifact (none) untouched.
    std::fprintf(f, "{\"ok\": %d}\n", 1);
    EXPECT_FALSE(std::filesystem::exists(path));
    ASSERT_TRUE(commit_file_atomic(f, temp_path, path));
    EXPECT_EQ(slurp(path), "{\"ok\": 1}\n");
    EXPECT_FALSE(std::filesystem::exists(temp_path));
    std::filesystem::remove_all(dir);
}

/**
 * FastDiv must agree with the hardware `/` and `%` for every divisor it
 * will ever see -- the claim its magic-number derivation makes is
 * exactness for all 64-bit n, so the sweep leans on adversarial edges
 * (around the divisor, around 2^32, the top of the range) plus a random
 * spray, for divisors including the L3's 12288 sets.
 */
TEST(FastDiv, MatchesHardwareDivideExactly)
{
    const std::uint64_t divisors[] = {
        1,    2,     3,     5,          7,
        64,   641,   12288, 12289,      (1ULL << 32) - 1,
        (1ULL << 32) + 1,   0x123456789ABCDEFULL,
        ~0ULL - 1,          ~0ULL,
    };
    Rng rng(0xD1A1DEULL);
    for (const std::uint64_t d : divisors) {
        const FastDiv div(d);
        EXPECT_EQ(div.divisor(), d);
        std::vector<std::uint64_t> inputs = {
            0,  1,  d - 1, d,  d + 1, 2 * d, 2 * d + 1,
            (1ULL << 32) - 1, 1ULL << 32, (1ULL << 32) + 1,
            ~0ULL - d, ~0ULL - 1, ~0ULL,
        };
        for (int i = 0; i < 2000; ++i)
            inputs.push_back(rng.next_u64());
        for (const std::uint64_t n : inputs) {
            ASSERT_EQ(div.quot(n), n / d) << "n=" << n << " d=" << d;
            ASSERT_EQ(div.rem(n), n % d) << "n=" << n << " d=" << d;
        }
    }
}

/** The default-constructed identity divisor is exact too. */
TEST(FastDiv, DefaultIsIdentity)
{
    const FastDiv div;
    EXPECT_EQ(div.divisor(), 1u);
    EXPECT_EQ(div.quot(~0ULL), ~0ULL);
    EXPECT_EQ(div.rem(12345u), 0u);
}

}  // namespace
}  // namespace dcb::util
