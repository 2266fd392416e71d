/**
 * @file
 * Streaming columnar extent store tests: varint/zigzag/RLE edge values,
 * lossless extent round-trips (integer counters and raw doubles,
 * including -0.0 and fractional gauges), compression of a counter-like
 * series, the sum-induction invariant
 * across extent boundaries, empty/one-row files, checksum corruption
 * detection, and the recorder's spilled-vs-in-memory byte identity for
 * both CSV and JSON exports with O(extent) buffering.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/extent.h"
#include "obs/time_series.h"
#include "util/rng.h"

namespace dcb {
namespace {

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Encoded payload bytes of each value column of a spill file, summed
 * over its extents (block tags and lengths left out). Walks the layout
 * ExtentWriter writes: the header, then per extent a magic, a row
 * count, the first_op and op_count blocks, one block per column, the
 * additive running sums and a checksum, until the first non-extent
 * magic.
 */
std::vector<std::uint64_t>
value_column_bytes(const std::string& file, std::size_t additive_count)
{
    const auto* p = reinterpret_cast<const unsigned char*>(file.data());
    const auto* end = p + file.size();
    auto u32 = [&p]() {
        const std::uint32_t v = p[0] | (p[1] << 8) | (p[2] << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24);
        p += 4;
        return v;
    };
    p += 12;  // file magic + version
    const std::uint32_t ncols = u32();
    for (std::uint32_t c = 0; c < ncols; ++c)
        p += 2 + (p[0] | (p[1] << 8)) + 1;  // name length, name, additive
    std::vector<std::uint64_t> bytes(ncols, 0);
    while (end - p >= 8 && u32() == obs::kExtentMagic) {
        p += 4;  // row count
        for (std::uint32_t c = 0; c < ncols + 2; ++c) {
            std::uint64_t len = 0;
            p = obs::get_varint(p + 1, end, &len);
            if (p == nullptr || len > static_cast<std::uint64_t>(end - p)) {
                ADD_FAILURE() << "malformed block in extent";
                return bytes;
            }
            p += len;
            if (c >= 2)
                bytes[c - 2] += len;
        }
        p += additive_count * 8 + 8;  // running sums + checksum
    }
    return bytes;
}

// --- Codec primitives ----------------------------------------------------

TEST(ExtentCodec, VarintRoundTripEdgeValues)
{
    const std::uint64_t cases[] = {
        0,     1,
        127,   128,
        16383, 16384,
        (1ull << 35) - 1,
        1ull << 35,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max(),
    };
    for (const std::uint64_t v : cases) {
        std::string buf;
        obs::put_varint(&buf, v);
        ASSERT_LE(buf.size(), 10u);
        std::uint64_t back = 0;
        const auto* p =
            reinterpret_cast<const unsigned char*>(buf.data());
        const auto* end = obs::get_varint(p, p + buf.size(), &back);
        ASSERT_NE(end, nullptr);
        EXPECT_EQ(end, p + buf.size());
        EXPECT_EQ(back, v);
    }
}

TEST(ExtentCodec, VarintRejectsTruncation)
{
    std::string buf;
    obs::put_varint(&buf, 1ull << 40);
    std::uint64_t v = 0;
    const auto* p = reinterpret_cast<const unsigned char*>(buf.data());
    EXPECT_EQ(obs::get_varint(p, p + buf.size() - 1, &v), nullptr);
}

TEST(ExtentCodec, ZigzagEdgeValues)
{
    const std::int64_t cases[] = {
        0,  1,  -1, 2,  -2,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
        (1ll << 62), -(1ll << 62),
    };
    for (const std::int64_t v : cases)
        EXPECT_EQ(obs::zigzag_decode(obs::zigzag_encode(v)), v);
    // Small magnitudes must map to small codes (the varint payoff).
    EXPECT_EQ(obs::zigzag_encode(0), 0u);
    EXPECT_EQ(obs::zigzag_encode(-1), 1u);
    EXPECT_EQ(obs::zigzag_encode(1), 2u);
}

TEST(ExtentCodec, RleRoundTrip)
{
    util::Rng rng(0xdeadbeef);
    std::vector<std::string> cases = {
        "", "a", "ab", "aa", "aaa",
        std::string(500, 'x'),
        std::string(130, 'y') + "z" + std::string(3, 'w'),
        std::string(128, 'q'),  // exactly one max literal block
    };
    std::string mixed;
    for (int i = 0; i < 4096; ++i)
        mixed.push_back(static_cast<char>(
            rng.next_bool(0.7) ? 0 : rng.next_below(256)));
    cases.push_back(mixed);
    for (const std::string& in : cases) {
        const std::string enc = obs::rle_encode(in);
        std::string dec;
        ASSERT_TRUE(obs::rle_decode(enc, &dec));
        EXPECT_EQ(dec, in);
    }
    // Long runs must actually compress.
    EXPECT_LT(obs::rle_encode(std::string(500, 'x')).size(), 12u);
}

// --- Extent round trips --------------------------------------------------

obs::IntervalRow
make_row(std::uint64_t index, std::uint64_t first_op,
         std::uint64_t op_count, std::vector<double> values)
{
    obs::IntervalRow row;
    row.index = index;
    row.first_op = first_op;
    row.op_count = op_count;
    row.values = std::move(values);
    return row;
}

TEST(Extent, RoundTripIsBitExact)
{
    const std::string path = "extent_test_roundtrip.dcx";
    const std::vector<std::string> cols = {"counter", "gauge", "weird"};
    const std::vector<bool> additive = {true, false, false};

    util::Rng rng(42);
    std::vector<obs::IntervalRow> rows;
    double sum0 = 0.0;
    for (std::uint64_t r = 0; r < 300; ++r) {
        const double counter = static_cast<double>(rng.next_below(1u << 20));
        const double gauge = rng.next_double() * 1e-3;
        // Values that must survive only via the raw encoding.
        const double weird =
            r % 7 == 0 ? -0.0
                       : (r % 7 == 1 ? 5e-324  // smallest denormal
                                     : rng.next_gaussian() * 1e18);
        sum0 += counter;
        rows.push_back(make_row(r, r * 1000, 1000,
                                {counter, gauge, weird}));
    }

    obs::ExtentWriter writer(cols, additive);
    ASSERT_TRUE(writer.open(path));
    // Split into uneven extents, including a one-row one.
    const std::size_t splits[] = {100, 1, 199};
    std::size_t at = 0;
    double running = 0.0;
    for (const std::size_t n : splits) {
        for (std::size_t i = at; i < at + n; ++i)
            running += rows[i].values[0];
        ASSERT_TRUE(writer.append_extent(&rows[at], n, &running));
        at += n;
    }
    ASSERT_TRUE(writer.finalize());
    // The integer counter column (values under 2^20) delta-encodes to
    // at most 3 bytes a row, against 8 stored raw.
    EXPECT_LT(value_column_bytes(slurp(path), 1).at(0), rows.size() * 4);

    obs::ExtentReader reader;
    ASSERT_TRUE(reader.open(path)) << reader.error();
    EXPECT_EQ(reader.columns(), cols);
    std::vector<obs::IntervalRow> batch;
    std::size_t seen = 0;
    while (reader.next_extent(&batch)) {
        for (const obs::IntervalRow& row : batch) {
            ASSERT_LT(seen, rows.size());
            EXPECT_EQ(row.index, rows[seen].index);
            EXPECT_EQ(row.first_op, rows[seen].first_op);
            EXPECT_EQ(row.op_count, rows[seen].op_count);
            for (std::size_t c = 0; c < cols.size(); ++c)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(row.values[c]),
                          std::bit_cast<std::uint64_t>(
                              rows[seen].values[c]))
                    << "row " << seen << " col " << c;
            ++seen;
        }
    }
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_TRUE(reader.at_end());
    EXPECT_EQ(seen, rows.size());
    EXPECT_EQ(reader.running_sums().size(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.running_sums()[0]),
              std::bit_cast<std::uint64_t>(sum0));
    std::remove(path.c_str());
}

TEST(Extent, EmptyFileHasVerifiedTrailer)
{
    const std::string path = "extent_test_empty.dcx";
    obs::ExtentWriter writer({"c"}, {true});
    ASSERT_TRUE(writer.open(path));
    ASSERT_TRUE(writer.finalize());

    obs::ExtentReader reader;
    ASSERT_TRUE(reader.open(path)) << reader.error();
    std::vector<obs::IntervalRow> batch;
    EXPECT_FALSE(reader.next_extent(&batch));
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_TRUE(reader.at_end());
    EXPECT_EQ(reader.rows_read(), 0u);
    std::remove(path.c_str());
}

TEST(Extent, CorruptionIsDetected)
{
    const std::string path = "extent_test_corrupt.dcx";
    obs::ExtentWriter writer({"c"}, {true});
    ASSERT_TRUE(writer.open(path));
    std::vector<obs::IntervalRow> rows;
    double sum = 0.0;
    for (std::uint64_t r = 0; r < 64; ++r) {
        rows.push_back(make_row(r, r * 10, 10,
                                {static_cast<double>(r * 3)}));
        sum += rows.back().values[0];
    }
    ASSERT_TRUE(writer.append_extent(rows.data(), rows.size(), &sum));
    ASSERT_TRUE(writer.finalize());

    std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    obs::ExtentReader reader;
    ASSERT_TRUE(reader.open(path));
    std::vector<obs::IntervalRow> batch;
    EXPECT_FALSE(reader.next_extent(&batch));
    EXPECT_FALSE(reader.error().empty());
    std::remove(path.c_str());
}

// --- Recorder spill mode -------------------------------------------------

/** Fill a recorder with fit_delta-exact rows targeting `totals`. */
void
fill_recorder(obs::TimeSeriesRecorder* rec, std::uint64_t rows,
              std::uint64_t seed, std::vector<double>* totals_out)
{
    util::Rng rng(seed);
    const std::size_t ncols = rec->columns().size();
    std::vector<double> cumulative(ncols, 0.0);
    std::vector<double> accounted(ncols, 0.0);
    std::vector<double> deltas(ncols, 0.0);
    for (std::uint64_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < ncols; ++c) {
            if (rec->additive()[c]) {
                // Fractional cumulative counters: the awkward case the
                // fit_delta nudging exists for.
                cumulative[c] += rng.next_double() * 100.0 / 3.0;
                deltas[c] = obs::TimeSeriesRecorder::fit_delta(
                    accounted[c], cumulative[c]);
                accounted[c] += deltas[c];
            } else {
                deltas[c] = rng.next_gaussian();
            }
        }
        rec->add_row(r * 100, 100, deltas.data());
    }
    *totals_out = cumulative;
}

TEST(RecorderSpill, BoundaryCrossingSumsStayExact)
{
    const std::string path = "extent_test_spill.dcx";
    const std::vector<std::string> cols = {"a", "b", "gauge"};
    const std::vector<bool> additive = {true, true, false};
    obs::TimeSeriesRecorder rec(cols, additive);
    rec.enable_spill(path, 16);  // many boundary crossings in 250 rows
    std::vector<double> totals;
    fill_recorder(&rec, 250, 7, &totals);
    EXPECT_TRUE(rec.spilled());
    EXPECT_LE(rec.peak_buffered_rows(), 16u);
    EXPECT_EQ(rec.total_rows(), 250u);
    // The recorder-side running sums land exactly on the cumulative
    // targets (the fit_delta contract), spill or no spill.
    EXPECT_EQ(rec.sum(0), totals[0]);
    EXPECT_EQ(rec.sum(1), totals[1]);
    ASSERT_TRUE(rec.finalize_spill());

    // Decode from disk: the reader re-accumulates left-to-right and
    // verifies every footer; its final sums must hit the same bits.
    obs::ExtentReader reader;
    ASSERT_TRUE(reader.open(path)) << reader.error();
    std::vector<obs::IntervalRow> batch;
    while (reader.next_extent(&batch)) {
    }
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_TRUE(reader.at_end());
    EXPECT_EQ(reader.rows_read(), 250u);
    ASSERT_EQ(reader.running_sums().size(), 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.running_sums()[0]),
              std::bit_cast<std::uint64_t>(totals[0]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.running_sums()[1]),
              std::bit_cast<std::uint64_t>(totals[1]));
    std::remove(path.c_str());
}

TEST(RecorderSpill, CounterSeriesCompresses)
{
    // Counter-like interval rows: constant instruction deltas,
    // fractional cycle counts, bursty miss counts, IPC and an occupancy
    // gauge. Each value column is bounded on its own: first_op and
    // op_count compress so well that a whole-file bound holds even when
    // every value column is stored raw.
    const std::string path = "extent_test_compress.dcx";
    const std::vector<std::string> cols = {
        "instructions", "cycles", "l2_misses", "ipc", "rob_occupancy"};
    obs::TimeSeriesRecorder rec(cols, {true, true, true, false, false});
    rec.enable_spill(path, 4096);
    constexpr std::uint64_t kRows = 20'000;
    util::Rng rng(42);
    double cum_cycles = 0.0;
    for (std::uint64_t i = 0; i < kRows; ++i) {
        const double cycles = obs::TimeSeriesRecorder::fit_delta(
            cum_cycles, cum_cycles + 6000.0 + 250.0 * rng.next_gaussian() +
                            0.125 * static_cast<double>(i % 8));
        cum_cycles += cycles;
        const double v[] = {10000.0, cycles,
                            std::floor(rng.next_exponential(1.0 / 40.0)),
                            10000.0 / cycles,
                            80.0 + 20.0 * rng.next_double()};
        rec.add_row(i * 10000, 10000, v);
    }
    ASSERT_TRUE(rec.finalize_spill());
    // The integer-valued counters delta-encode to under 2 bytes a row
    // (8 stored raw); the fractional columns stay raw, 8 bytes a row.
    const std::vector<std::uint64_t> bytes =
        value_column_bytes(slurp(path), 3);
    ASSERT_EQ(bytes.size(), cols.size());
    EXPECT_LT(bytes[0], kRows * 2) << cols[0];
    EXPECT_LT(bytes[2], kRows * 2) << cols[2];
    for (const std::size_t c : {1, 3, 4})
        EXPECT_LE(bytes[c], kRows * 8) << cols[c];
    std::remove(path.c_str());
}

TEST(RecorderSpill, CsvAndJsonByteIdenticalToInMemory)
{
    const std::vector<std::string> cols = {"a", "b", "gauge"};
    const std::vector<bool> additive = {true, true, false};

    obs::TimeSeriesRecorder in_mem(cols, additive);
    obs::TimeSeriesRecorder spilled(cols, additive);
    spilled.enable_spill("extent_test_ident.dcx", 32);
    std::vector<double> totals;
    fill_recorder(&in_mem, 333, 99, &totals);
    fill_recorder(&spilled, 333, 99, &totals);
    in_mem.set_totals(totals);
    spilled.set_totals(totals);
    in_mem.set_source("wl", 100);
    spilled.set_source("wl", 100);
    ASSERT_TRUE(spilled.spilled());
    ASSERT_TRUE(spilled.finalize_spill());

    ASSERT_TRUE(in_mem.write_csv("extent_test_mem.csv"));
    ASSERT_TRUE(spilled.write_csv("extent_test_spill.csv"));
    ASSERT_TRUE(in_mem.write_json("extent_test_mem.json"));
    ASSERT_TRUE(spilled.write_json("extent_test_spill.json"));

    EXPECT_EQ(slurp("extent_test_mem.csv"),
              slurp("extent_test_spill.csv"));
    EXPECT_EQ(slurp("extent_test_mem.json"),
              slurp("extent_test_spill.json"));
    for (const char* f :
         {"extent_test_mem.csv", "extent_test_spill.csv",
          "extent_test_mem.json", "extent_test_spill.json",
          "extent_test_ident.dcx"})
        std::remove(f);
}

TEST(RecorderSpill, ShortRunNeverTouchesDisk)
{
    const std::string path = "extent_test_fastpath.dcx";
    obs::TimeSeriesRecorder rec({"a"}, {true});
    rec.enable_spill(path, 64);
    const double v = 3.0;
    for (int r = 0; r < 10; ++r)
        rec.add_row(r, 1, &v);
    EXPECT_FALSE(rec.spilled());
    ASSERT_TRUE(rec.finalize_spill());
    EXPECT_EQ(rec.rows().size(), 10u);  // all rows stayed in memory
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << "fast path must not create a spill file";
    if (f != nullptr)
        std::fclose(f);
}

TEST(RecorderSpill, ResetDiscardsSealedExtents)
{
    const std::string path = "extent_test_reset.dcx";
    obs::TimeSeriesRecorder rec({"a"}, {true});
    rec.enable_spill(path, 8);
    std::vector<double> totals;
    fill_recorder(&rec, 40, 1, &totals);  // warmup rows: sealed
    ASSERT_TRUE(rec.spilled());
    rec.reset();  // producer counter reset (end of warmup)
    fill_recorder(&rec, 20, 2, &totals);
    ASSERT_TRUE(rec.finalize_spill());
    EXPECT_EQ(rec.total_rows(), 20u);

    obs::ExtentReader reader;
    ASSERT_TRUE(reader.open(path)) << reader.error();
    std::vector<obs::IntervalRow> batch;
    std::uint64_t rows = 0;
    while (reader.next_extent(&batch))
        rows += batch.size();
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_EQ(rows, 20u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.running_sums()[0]),
              std::bit_cast<std::uint64_t>(rec.sum(0)));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace dcb
