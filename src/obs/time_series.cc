#include "obs/time_series.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/extent.h"
#include "obs/json.h"
#include "util/assert.h"
#include "util/atomic_file.h"
#include "util/log.h"

namespace dcb::obs {

TimeSeriesRecorder::TimeSeriesRecorder(std::vector<std::string> columns,
                                       std::vector<bool> additive)
    : columns_(std::move(columns)), additive_(std::move(additive))
{
    DCB_EXPECTS(!columns_.empty());
    if (additive_.empty())
        additive_.assign(columns_.size(), true);
    DCB_EXPECTS(additive_.size() == columns_.size());
    running_sums_.assign(columns_.size(), 0.0);
}

TimeSeriesRecorder::~TimeSeriesRecorder() = default;

double
TimeSeriesRecorder::fit_delta(double accounted, double target)
{
    double d = target - accounted;
    // Integer-valued counters (the common case) are exact immediately;
    // fractional accumulators converge in a few one-ulp nudges. The
    // bounded loop guards the pathological case where the sum's ulp
    // exceeds the delta's (then no nudge can move the sum and we accept
    // the closest representable decomposition).
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 64 && accounted + d < target; ++i)
        d = std::nextafter(d, inf);
    for (int i = 0; i < 64 && accounted + d > target; ++i)
        d = std::nextafter(d, -inf);
    return d;
}

int
TimeSeriesRecorder::column_index(const std::string& name) const
{
    for (std::size_t i = 0; i < columns_.size(); ++i)
        if (columns_[i] == name)
            return static_cast<int>(i);
    return -1;
}

void
TimeSeriesRecorder::add_row(std::uint64_t first_op, std::uint64_t op_count,
                            const double* values)
{
    DCB_EXPECTS(!finalized_);
    IntervalRow row;
    row.index = sealed_rows_ + rows_.size();
    row.first_op = first_op;
    row.op_count = op_count;
    row.values.assign(values, values + columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        running_sums_[c] += values[c];
    rows_.push_back(std::move(row));
    if (rows_.size() > peak_rows_)
        peak_rows_ = rows_.size();
    if (rows_per_extent_ > 0 && !spill_path_.empty() &&
        rows_.size() >= rows_per_extent_)
        seal_extent();
}

void
TimeSeriesRecorder::enable_spill(const std::string& path,
                                 std::uint32_t rows_per_extent)
{
    DCB_EXPECTS(rows_.empty() && sealed_rows_ == 0);
    spill_path_ = path;
    rows_per_extent_ = rows_per_extent;
}

bool
TimeSeriesRecorder::seal_extent()
{
    if (rows_.empty())
        return spill_ok_;
    if (writer_ == nullptr) {
        writer_ = std::make_unique<ExtentWriter>(columns_, additive_);
        if (!writer_->open(spill_path_)) {
            util::warn("obs", "cannot open telemetry spill " +
                                  spill_path_ +
                                  "; keeping rows in memory");
            writer_.reset();
            rows_per_extent_ = 0;  // fall back to the in-memory path
            return spill_ok_ = false;
        }
    }
    // Footer sums: the running accumulation restricted to additive
    // columns, i.e. exactly where a single left-to-right pass over all
    // rows so far has landed.
    std::vector<double> sums;
    sums.reserve(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        if (additive_[c])
            sums.push_back(running_sums_[c]);
    if (!writer_->append_extent(rows_.data(), rows_.size(),
                                sums.data()))
        spill_ok_ = false;
    sealed_rows_ += rows_.size();
    rows_.clear();
    return spill_ok_;
}

void
TimeSeriesRecorder::attach_sketch(const std::string& name,
                                  const QuantileSketch* sketch)
{
    DCB_EXPECTS(sketch != nullptr);
    DCB_EXPECTS(!finalized_);
    sketches_.emplace_back(name, sketch);
}

bool
TimeSeriesRecorder::finalize_spill(bool flush_partial)
{
    if (finalized_)
        return spill_ok_;
    if (spill_path_.empty() || rows_per_extent_ == 0)
        return spill_ok_;  // no spill configured, or open already failed
    if (writer_ == nullptr &&
        (!flush_partial || (rows_.empty() && sealed_rows_ == 0)))
        return true;  // spill-free fast path (or nothing ever recorded)
    // flush_partial: a run shorter than one extent never crossed the
    // seal threshold, but the trailing rows still belong in the
    // artifact (the registry-snapshot case: one row per barrier, a few
    // hundred rows total).
    if (writer_ == nullptr) {
        writer_ = std::make_unique<ExtentWriter>(columns_, additive_);
        if (!writer_->open(spill_path_)) {
            util::warn("obs", "cannot open telemetry spill " +
                                  spill_path_ +
                                  "; keeping rows in memory");
            writer_.reset();
            rows_per_extent_ = 0;
            return spill_ok_ = false;
        }
    }
    seal_extent();
    for (const auto& [name, sketch] : sketches_)
        writer_->add_sketch(name, *sketch);
    if (!writer_->finalize())
        spill_ok_ = false;
    finalized_ = true;
    return spill_ok_;
}

std::uint64_t
TimeSeriesRecorder::total_rows() const
{
    return sealed_rows_ + rows_.size();
}

void
TimeSeriesRecorder::reset()
{
    rows_.clear();
    totals_.clear();
    running_sums_.assign(columns_.size(), 0.0);
    sealed_rows_ = 0;
    if (writer_ != nullptr && !writer_->reset()) {
        util::warn("obs", "telemetry spill reset failed for " +
                              spill_path_);
        spill_ok_ = false;
    }
}

void
TimeSeriesRecorder::set_totals(const std::vector<double>& totals)
{
    DCB_EXPECTS(totals.size() == columns_.size());
    totals_ = totals;
}

double
TimeSeriesRecorder::sum(std::size_t col) const
{
    DCB_EXPECTS(col < columns_.size());
    return running_sums_[col];
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

void
TimeSeriesRecorder::append_csv_row(std::string* out,
                                   const IntervalRow& row) const
{
    *out += std::to_string(row.index) + "," +
            std::to_string(row.first_op) + "," +
            std::to_string(row.op_count);
    for (const double v : row.values)
        *out += "," + json_double(v);
    *out += "\n";
}

std::string
TimeSeriesRecorder::to_csv() const
{
    std::string out = "interval,first_op,op_count";
    for (const std::string& col : columns_)
        out += "," + col;
    out += "\n";
    for (const IntervalRow& row : rows_)
        append_csv_row(&out, row);
    return out;
}

bool
TimeSeriesRecorder::write_csv(const std::string& path)
{
    if (!spilled())
        return util::write_file_atomic(path, to_csv());
    if (!finalize_spill())
        return false;
    std::string temp;
    std::FILE* f = util::open_file_atomic(path, &temp);
    if (f == nullptr)
        return false;
    std::string chunk = "interval,first_op,op_count";
    for (const std::string& col : columns_)
        chunk += "," + col;
    chunk += "\n";
    ExtentReader reader;
    bool ok = reader.open(spill_path_);
    std::vector<IntervalRow> batch;
    while (ok) {
        if (std::fwrite(chunk.data(), 1, chunk.size(), f) !=
            chunk.size()) {
            ok = false;
            break;
        }
        if (!reader.next_extent(&batch))
            break;
        chunk.clear();
        for (const IntervalRow& row : batch)
            append_csv_row(&chunk, row);
    }
    if (ok && !reader.error().empty()) {
        util::warn("obs", "telemetry spill decode failed: " +
                              reader.error());
        ok = false;
    }
    if (!ok) {
        std::fclose(f);
        std::remove(temp.c_str());
        return false;
    }
    return util::commit_file_atomic(f, temp, path);
}

std::string
TimeSeriesRecorder::json_prefix() const
{
    std::string out = "{\n";
    out += "  \"workload\": " + json_quote(workload_) + ",\n";
    out += "  \"interval_ops\": " + json_double(
        static_cast<double>(interval_ops_)) + ",\n";
    out += "  \"columns\": [";
    for (std::size_t i = 0; i < columns_.size(); ++i)
        out += (i ? ", " : "") + json_quote(columns_[i]);
    out += "],\n  \"additive\": [";
    for (std::size_t i = 0; i < additive_.size(); ++i)
        out += std::string(i ? ", " : "") + (additive_[i] ? "true" : "false");
    out += "],\n  \"totals\": [";
    for (std::size_t i = 0; i < totals_.size(); ++i)
        out += (i ? ", " : "") + json_double(totals_[i]);
    out += "],\n  \"rows\": [\n";
    return out;
}

void
TimeSeriesRecorder::append_json_row(std::string* out,
                                    const IntervalRow& row,
                                    bool last) const
{
    *out += "    {\"interval\": " +
            json_double(static_cast<double>(row.index)) +
            ", \"first_op\": " +
            json_double(static_cast<double>(row.first_op)) +
            ", \"op_count\": " +
            json_double(static_cast<double>(row.op_count)) +
            ", \"values\": [";
    for (std::size_t i = 0; i < row.values.size(); ++i)
        *out += (i ? ", " : "") + json_double(row.values[i]);
    *out += "]}";
    *out += last ? "\n" : ",\n";
}

std::string
TimeSeriesRecorder::to_json() const
{
    std::string out = json_prefix();
    for (std::size_t r = 0; r < rows_.size(); ++r)
        append_json_row(&out, rows_[r], r + 1 == rows_.size());
    out += "  ]\n}\n";
    return out;
}

bool
TimeSeriesRecorder::write_json(const std::string& path)
{
    if (!spilled())
        return util::write_file_atomic(path, to_json());
    if (!finalize_spill())
        return false;
    std::string temp;
    std::FILE* f = util::open_file_atomic(path, &temp);
    if (f == nullptr)
        return false;
    const std::uint64_t total = total_rows();
    std::uint64_t emitted = 0;
    std::string chunk = json_prefix();
    ExtentReader reader;
    bool ok = reader.open(spill_path_);
    std::vector<IntervalRow> batch;
    while (ok) {
        if (std::fwrite(chunk.data(), 1, chunk.size(), f) !=
            chunk.size()) {
            ok = false;
            break;
        }
        if (!reader.next_extent(&batch))
            break;
        chunk.clear();
        for (const IntervalRow& row : batch) {
            ++emitted;
            append_json_row(&chunk, row, emitted == total);
        }
    }
    if (ok && !reader.error().empty()) {
        util::warn("obs", "telemetry spill decode failed: " +
                              reader.error());
        ok = false;
    }
    if (ok) {
        chunk = "  ]\n}\n";
        ok = std::fwrite(chunk.data(), 1, chunk.size(), f) ==
             chunk.size();
    }
    if (!ok) {
        std::fclose(f);
        std::remove(temp.c_str());
        return false;
    }
    return util::commit_file_atomic(f, temp, path);
}

}  // namespace dcb::obs
