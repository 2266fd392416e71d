#ifndef DCBENCH_OBS_TIME_SERIES_H_
#define DCBENCH_OBS_TIME_SERIES_H_

/**
 * @file
 * Interval counter telemetry, a la `perf stat -I`.
 *
 * A TimeSeriesRecorder holds one delta-encoded time series: every
 * `interval_ops` retired micro-ops the producer (cpu::Core) appends a
 * row of per-interval counter deltas plus derived per-interval gauges
 * (occupancy means, interval IPC). The defining invariant is
 * **exact summation**: for every additive column, summing the rows in
 * order reproduces the whole-run counter total bit-for-bit, so the
 * interval series is a lossless decomposition of the final
 * CounterReport rather than an approximation of it. Producers get that
 * guarantee from fit_delta(), which nudges each emitted delta until the
 * running floating-point sum lands exactly on the cumulative counter.
 *
 * The recorder is deliberately generic (named columns, no dependency on
 * the cpu layer) so any subsystem can record interval series through it.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dcb::obs {

class ExtentWriter;
class QuantileSketch;

/** User-facing telemetry knobs (core::HarnessConfig::telemetry). */
struct TelemetryConfig
{
    /** Retired ops per interval row; 0 disables telemetry entirely. */
    std::uint64_t interval_ops = 0;
    /**
     * Output path prefix: each workload writes
     * `<out_path><sanitized-name>.telemetry.{csv,json}`. A trailing '/'
     * makes it a directory (created on demand); empty keeps the series
     * in memory only (tests, programmatic consumers). With a path set,
     * a series longer than one extent also spills to
     * `<out_path><name>.telemetry.dcx` (see enable_spill).
     */
    std::string out_path;

    bool enabled() const { return interval_ops > 0; }
};

/** One interval row: deltas (additive columns) and gauges (the rest). */
struct IntervalRow
{
    std::uint64_t index = 0;     ///< interval ordinal, 0-based
    std::uint64_t first_op = 0;  ///< first retired-op index covered
    std::uint64_t op_count = 0;  ///< retired ops covered (last row may be short)
    std::vector<double> values;  ///< one per column
};

/** Delta-encoded, named-column interval time series. */
class TimeSeriesRecorder
{
  public:
    /**
     * @param columns  Column names, fixed for the recorder's lifetime.
     * @param additive Per-column: true for delta columns that must sum
     *                 exactly to the run total, false for gauges
     *                 (occupancy means, rates). Empty = all additive.
     */
    explicit TimeSeriesRecorder(std::vector<std::string> columns,
                                std::vector<bool> additive = {});
    /** Out of line: ExtentWriter is incomplete here. */
    ~TimeSeriesRecorder();

    /**
     * Nudge `target - accounted` so that `accounted + result` computes
     * to exactly `target` in double arithmetic. For integer-valued
     * counters the plain difference is already exact; for fractional
     * accumulators (cycle counts) at most a few one-ulp steps are
     * needed. This is what makes "rows sum exactly to the report" hold
     * bit-for-bit instead of approximately.
     */
    static double fit_delta(double accounted, double target);

    const std::vector<std::string>& columns() const { return columns_; }
    const std::vector<bool>& additive() const { return additive_; }
    /** Index of `name`, or -1 when absent. */
    int column_index(const std::string& name) const;

    /** Append one row; `values` must hold columns().size() doubles. */
    void add_row(std::uint64_t first_op, std::uint64_t op_count,
                 const double* values);

    // --- Bounded-memory spill (streaming columnar extents) ----------------

    /**
     * Stream rows to `path` in columnar extents of `rows_per_extent`
     * rows each: once the in-memory buffer fills, it is sealed to disk
     * and cleared, so peak recorder memory is O(extent) instead of
     * O(run). Runs that never fill one extent stay fully in memory and
     * produce no spill file. Must be called before the first add_row;
     * `rows_per_extent` 0 disables spilling.
     */
    void enable_spill(const std::string& path,
                      std::uint32_t rows_per_extent);

    /** True once at least one extent was sealed to disk. */
    bool spilled() const { return writer_ != nullptr; }
    const std::string& spill_path() const { return spill_path_; }

    /**
     * Persist `sketch`'s state into the spill file's sketch section
     * when finalize_spill() runs (no effect when nothing spills --
     * the sketches travel with the on-disk artifact, not the memory
     * image). The pointer must stay valid through finalize_spill();
     * the state is serialized there.
     */
    void attach_sketch(const std::string& name,
                       const QuantileSketch* sketch);

    /**
     * Seal any buffered tail rows, persist attached sketches, and
     * atomically commit the spill file (trailer + rename). Idempotent;
     * a no-op when nothing spilled. Must precede write_csv/write_json
     * on a spilled recorder; add_row is invalid afterwards.
     *
     * By default a run that never crossed the seal threshold keeps the
     * spill-free fast path (no file is created). `flush_partial` forces
     * the trailing partial extent to disk instead -- for artifacts that
     * must exist even when short, like registry snapshot series.
     */
    bool finalize_spill(bool flush_partial = false);

    /** Rows recorded in total: sealed to disk plus buffered. */
    std::uint64_t total_rows() const;
    /** High-water mark of rows buffered in memory at once. */
    std::uint64_t peak_buffered_rows() const { return peak_rows_; }

    /** Drop all rows and totals (producer-side warmup counter reset). */
    void reset();

    /** Whole-run totals, recorded at flush for self-contained export. */
    void set_totals(const std::vector<double>& totals);
    const std::vector<double>& totals() const { return totals_; }

    /** Buffered (not yet sealed) rows; the whole series when nothing
        spilled, only the tail otherwise. */
    const std::vector<IntervalRow>& rows() const { return rows_; }
    bool empty() const { return total_rows() == 0; }

    /** Left-to-right sum of one column over all rows (sealed included:
        the running accumulation is order-identical to a single pass). */
    double sum(std::size_t col) const;

    // --- Export -----------------------------------------------------------

    /** Descriptive fields stamped into the export headers. */
    void set_source(const std::string& workload, std::uint64_t interval_ops)
    {
        workload_ = workload;
        interval_ops_ = interval_ops;
    }
    const std::string& workload() const { return workload_; }
    std::uint64_t interval_ops() const { return interval_ops_; }

    /**
     * CSV: header `interval,first_op,op_count,<columns...>`, one row per
     * interval, doubles formatted round-trip exact. On a spilled
     * recorder the rows are streamed back from the extent file one
     * extent at a time -- byte-identical output to the in-memory path,
     * O(extent) memory. Returns false when the file cannot be opened
     * (or, spilled, when decode verification fails).
     */
    bool write_csv(const std::string& path);
    std::string to_csv() const;

    /**
     * JSON: {workload, interval_ops, columns, additive, totals, rows}.
     * Self-contained for the external interval-sum checker. Streams
     * like write_csv on a spilled recorder. Returns false when the
     * file cannot be opened.
     */
    bool write_json(const std::string& path);
    std::string to_json() const;

  private:
    /** Seal the buffered rows as one extent (lazy-opens the writer). */
    bool seal_extent();
    void append_csv_row(std::string* out, const IntervalRow& row) const;
    void append_json_row(std::string* out, const IntervalRow& row,
                         bool last) const;
    std::string json_prefix() const;

    std::vector<std::string> columns_;
    std::vector<bool> additive_;
    std::vector<IntervalRow> rows_;
    std::vector<double> totals_;
    std::string workload_;
    std::uint64_t interval_ops_ = 0;

    // Spill state.
    std::string spill_path_;
    std::uint32_t rows_per_extent_ = 0;
    std::unique_ptr<ExtentWriter> writer_;
    /** Sketches to persist in the spill file's sketch section. */
    std::vector<std::pair<std::string, const QuantileSketch*>> sketches_;
    std::uint64_t sealed_rows_ = 0;
    std::uint64_t peak_rows_ = 0;
    bool finalized_ = false;
    bool spill_ok_ = true;
    /** Left-to-right running sums, bit-identical to a single pass over
        the whole series (this is what extent footers carry). */
    std::vector<double> running_sums_;
};

}  // namespace dcb::obs

#endif  // DCBENCH_OBS_TIME_SERIES_H_
