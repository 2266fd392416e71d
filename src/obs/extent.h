#ifndef DCBENCH_OBS_EXTENT_H_
#define DCBENCH_OBS_EXTENT_H_

/**
 * @file
 * Streaming columnar telemetry storage (DataSeries-style extents).
 *
 * A telemetry run is persisted as a sequence of fixed-size **extents**:
 * each extent holds `rows_per_extent` interval rows transposed into
 * per-column byte streams, encoded independently per column and sealed
 * with a checksummed footer. Counter-like columns (every value
 * integer-representable) are delta + zigzag + varint encoded; gauge
 * columns (fractional occupancies, rates) are stored as raw IEEE-754
 * bit patterns; either stream is additionally wrapped in a byte-level
 * RLE pass when that shrinks it. All encodings are lossless at the bit
 * level, so decoding an extent reproduces the exact doubles that were
 * recorded.
 *
 * The defining invariant of the interval telemetry -- additive columns
 * sum bit-for-bit to the run totals -- must survive the trip through
 * disk. Each extent footer therefore carries the left-to-right running
 * sum of every additive column *after* that extent, computed in the
 * same order a single in-memory pass would use. A reader (ExtentReader
 * here, `check_obs.py extents` externally) re-accumulates the decoded
 * rows and compares against the footer sums bitwise, which proves the
 * invariant by induction across extent boundaries: if the sums match at
 * every footer, the concatenation of all extents sums exactly like the
 * unsplit series.
 *
 * Files are written through the crash-safe `atomic_file` path
 * (write-temp + rename), so a partially written spill never shadows a
 * previous artifact.
 *
 * File layout (little-endian; `varint` = LEB128):
 *
 *   file   := header extent* sketches? trailer
 *   header := "DCXTELE1" u32 version u32 column_count
 *             column_count x (u16 name_len, name bytes, u8 additive)
 *   extent := u32 kExtentMagic u32 row_count
 *             block[first_op] block[op_count] block[column]*
 *             additive_count x u64 (running-sum bit patterns)
 *             u64 fnv1a (over row_count..sums)
 *   block  := u8 tag  varint len  len bytes
 *   sketches := u32 kSketchMagic u32 sketch_count sketch*
 *             u64 fnv1a (over sketch_count..last tuple)
 *   sketch := u16 name_len name bytes
 *             u64 epsilon_bits u64 count u64 min_bits u64 max_bits
 *             varint tuple_count
 *             tuple_count x (u64 value_bits, varint g, varint delta)
 *   trailer:= u32 kTrailerMagic u64 total_rows u64 extent_count
 *             u64 fnv1a (over total_rows, extent_count)
 *
 * The optional sketch section persists Greenwald-Khanna quantile-sketch
 * state (obs::QuantileSketch) next to the series it summarizes, so the
 * spill file is a self-contained artifact: `check_obs.py sketch` can
 * re-verify the GK rank-error invariant (g + delta <= floor(2*eps*n)+1,
 * sum of g == n) from the on-disk bytes alone.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantile.h"
#include "obs/time_series.h"

namespace dcb::obs {

// ---------------------------------------------------------------------
// Codec primitives (exposed for tests and the decoding checker)
// ---------------------------------------------------------------------

/** FNV-1a 64-bit over `bytes`, continuing from `seed`. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = 14695981039346656037ULL);

/** Map a signed delta onto an unsigned varint-friendly value. */
constexpr std::uint64_t
zigzag_encode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzag_decode(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** Append `v` as LEB128 (1..10 bytes). */
void put_varint(std::string* out, std::uint64_t v);

/**
 * Decode one LEB128 varint from [p, end); returns the position after
 * it, or nullptr on truncation/overlong input.
 */
const unsigned char* get_varint(const unsigned char* p,
                                const unsigned char* end,
                                std::uint64_t* v);

/**
 * PackBits-style byte RLE. Control byte c < 128: copy the next c+1
 * literal bytes; c >= 128: repeat the next byte c-125 times (runs of
 * 3..130). Chosen over a real LZ codec because telemetry columns are
 * dominated by long runs of identical bytes (zero deltas, repeated
 * exponents) and the decoder must be trivially re-implementable in the
 * external Python checker.
 */
std::string rle_encode(std::string_view in);

/** Inverse of rle_encode; false on malformed input. */
bool rle_decode(std::string_view in, std::string* out);

// ---------------------------------------------------------------------
// Extent writer / reader
// ---------------------------------------------------------------------

/** Per-column block encodings (low 7 bits of the tag byte). */
enum class ColumnEncoding : std::uint8_t {
    kRaw64 = 0,        ///< 8-byte IEEE-754/u64 bit patterns per row
    kDeltaVarint = 1,  ///< delta + zigzag + varint (integer-valued)
};
/** Tag bit: the block payload is additionally byte-RLE wrapped. */
constexpr std::uint8_t kRleFlag = 0x80;

constexpr std::uint32_t kExtentMagic = 0x31545845;   // "EXT1"
constexpr std::uint32_t kTrailerMagic = 0x31444E45;  // "END1"
constexpr std::uint32_t kSketchMagic = 0x31484B53;   // "SKH1"
constexpr std::uint32_t kExtentVersion = 1;

/** One quantile sketch decoded from a file's sketch section. */
struct PersistedSketch
{
    std::string name;
    double epsilon = 0.0;
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::vector<QuantileTuple> tuples;
};

/**
 * Appends sealed extents to one spill file. The writer owns the
 * temp-file handle from `util::open_file_atomic`; nothing appears under
 * the target path until finalize(). Destroying an unfinalized writer
 * discards the temp file.
 */
class ExtentWriter
{
  public:
    ExtentWriter(std::vector<std::string> columns,
                 std::vector<bool> additive);
    ~ExtentWriter();

    ExtentWriter(const ExtentWriter&) = delete;
    ExtentWriter& operator=(const ExtentWriter&) = delete;

    /** Open the temp file and write the header. False on I/O error. */
    bool open(const std::string& path);
    bool is_open() const { return file_ != nullptr; }

    /**
     * Encode `count` rows as one extent and append it. `sums_after`
     * holds the left-to-right running sum of every *additive* column
     * after these rows (additive-column order), i.e. exactly what an
     * in-memory accumulation has reached -- the writer stores, never
     * recomputes, so the footer is bit-faithful to the producer.
     */
    bool append_extent(const IntervalRow* rows, std::size_t count,
                       const double* sums_after);

    /**
     * Queue one quantile sketch for the file's sketch section (written
     * by finalize(), before the trailer). The sketch state is
     * serialized now, so later inserts into `sketch` do not change what
     * lands on disk. Discarded by reset().
     */
    void add_sketch(const std::string& name, const QuantileSketch& sketch);

    /** Write the sketch section + trailer and atomically commit. */
    bool finalize();

    /** Truncate back to just past the header (producer counter reset). */
    bool reset();

    bool ok() const { return ok_; }

    std::uint64_t rows_written() const { return rows_written_; }
    std::uint64_t extents_written() const { return extents_written_; }

  private:
    std::vector<std::string> columns_;
    std::vector<bool> additive_;
    std::size_t additive_count_ = 0;
    std::string path_;
    std::string temp_path_;
    std::FILE* file_ = nullptr;
    long header_end_ = 0;
    bool ok_ = true;
    std::uint64_t rows_written_ = 0;
    std::uint64_t extents_written_ = 0;
    std::string scratch_;        ///< reused extent build buffer
    std::string sketch_bytes_;   ///< serialized sketch-section payload
    std::uint32_t sketch_count_ = 0;
};

/**
 * Streaming decoder: yields one extent's rows at a time, verifying the
 * per-extent checksum and the footer running sums (recomputed
 * left-to-right over the decoded values) as it goes, and the trailer
 * counts at the end. Holds O(extent) memory.
 */
class ExtentReader
{
  public:
    ExtentReader() = default;
    ~ExtentReader();

    ExtentReader(const ExtentReader&) = delete;
    ExtentReader& operator=(const ExtentReader&) = delete;

    /** Open and parse the header. False (with error()) on failure. */
    bool open(const std::string& path);

    const std::vector<std::string>& columns() const { return columns_; }
    const std::vector<bool>& additive() const { return additive_; }

    /**
     * Decode the next extent into `*rows` (replacing its contents, row
     * indices continuing from the previous extent). Returns false at
     * the trailer (clean end, error() empty) or on corruption (error()
     * set). Checksum and running-sum verification happen here.
     */
    bool next_extent(std::vector<IntervalRow>* rows);

    /** True once the trailer was reached and verified. */
    bool at_end() const { return at_end_; }
    /** Sketches decoded from the sketch section (populated by the
        next_extent() call that crosses it, before at_end()). */
    const std::vector<PersistedSketch>& sketches() const
    {
        return sketches_;
    }
    std::uint64_t rows_read() const { return rows_read_; }
    std::uint64_t extents_read() const { return extents_read_; }
    /** Running additive-column sums after the last decoded extent. */
    const std::vector<double>& running_sums() const { return sums_; }

    const std::string& error() const { return error_; }

  private:
    bool fail(const std::string& message);
    bool read_exact(void* out, std::size_t n);

    std::vector<std::string> columns_;
    std::vector<bool> additive_;
    std::FILE* file_ = nullptr;
    bool at_end_ = false;
    /** Parse the sketch section (magic already consumed). */
    bool read_sketch_section();

    std::uint64_t rows_read_ = 0;
    std::uint64_t extents_read_ = 0;
    std::vector<double> sums_;
    std::vector<PersistedSketch> sketches_;
    std::string error_;
};

}  // namespace dcb::obs

#endif  // DCBENCH_OBS_EXTENT_H_
