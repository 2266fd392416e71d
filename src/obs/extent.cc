#include "obs/extent.h"

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "util/assert.h"
#include "util/atomic_file.h"

namespace dcb::obs {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr char kFileMagic[8] = {'D', 'C', 'X', 'T', 'E', 'L', 'E', '1'};
/** Counter columns larger than this fall back to raw encoding so the
    int64 delta arithmetic can never overflow. */
constexpr double kMaxExactInt = 4.611686018427387904e18;  // 2^62

void
put_u16(std::string* out, std::uint16_t v)
{
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void
put_u32(std::string* out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
put_u64(std::string* out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
load_u64(const unsigned char* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** True when every row's value survives a double->int64->double trip
    bit-for-bit (this is what makes kDeltaVarint lossless). */
bool
integer_valued(const IntervalRow* rows, std::size_t count,
               std::size_t col)
{
    for (std::size_t r = 0; r < count; ++r) {
        const double v = rows[r].values[col];
        if (!(std::fabs(v) < kMaxExactInt))  // also rejects NaN/inf
            return false;
        const double back =
            static_cast<double>(static_cast<std::int64_t>(v));
        if (std::bit_cast<std::uint64_t>(back) !=
            std::bit_cast<std::uint64_t>(v))
            return false;  // fractional, or -0.0
    }
    return true;
}

/** Append one column block (tag, varint length, payload) to `out`. */
void
put_block(std::string* out, ColumnEncoding enc, std::string&& payload)
{
    std::uint8_t tag = static_cast<std::uint8_t>(enc);
    std::string rle = rle_encode(payload);
    if (rle.size() < payload.size()) {
        tag |= kRleFlag;
        payload = std::move(rle);
    }
    out->push_back(static_cast<char>(tag));
    put_varint(out, payload.size());
    out->append(payload);
}

void
encode_u64_column(std::string* out, const std::uint64_t* values,
                  std::size_t count)
{
    std::string payload;
    std::int64_t prev = 0;
    for (std::size_t r = 0; r < count; ++r) {
        const auto cur = static_cast<std::int64_t>(values[r]);
        put_varint(&payload, zigzag_encode(cur - prev));
        prev = cur;
    }
    put_block(out, ColumnEncoding::kDeltaVarint, std::move(payload));
}

}  // namespace

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    return h;
}

void
put_varint(std::string* out, std::uint64_t v)
{
    while (v >= 0x80) {
        out->push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out->push_back(static_cast<char>(v));
}

const unsigned char*
get_varint(const unsigned char* p, const unsigned char* end,
           std::uint64_t* v)
{
    std::uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (p == end)
            return nullptr;
        const unsigned char byte = *p++;
        out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            *v = out;
            return p;
        }
    }
    return nullptr;  // overlong: more than 10 continuation bytes
}

std::string
rle_encode(std::string_view in)
{
    std::string out;
    std::size_t i = 0;
    std::size_t lit_start = 0;  // pending literal run [lit_start, i)
    const auto flush_literals = [&](std::size_t upto) {
        while (lit_start < upto) {
            const std::size_t n = std::min<std::size_t>(upto - lit_start,
                                                        128);
            out.push_back(static_cast<char>(n - 1));
            out.append(in.substr(lit_start, n));
            lit_start += n;
        }
    };
    while (i < in.size()) {
        std::size_t run = 1;
        while (i + run < in.size() && in[i + run] == in[i] && run < 130)
            ++run;
        if (run >= 3) {
            flush_literals(i);
            out.push_back(static_cast<char>(128 + run - 3));
            out.push_back(in[i]);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(in.size());
    return out;
}

bool
rle_decode(std::string_view in, std::string* out)
{
    out->clear();
    std::size_t i = 0;
    while (i < in.size()) {
        const auto c = static_cast<unsigned char>(in[i++]);
        if (c < 128) {
            const std::size_t n = c + 1;
            if (i + n > in.size())
                return false;
            out->append(in.substr(i, n));
            i += n;
        } else {
            if (i >= in.size())
                return false;
            out->append(static_cast<std::size_t>(c) - 125, in[i++]);
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// ExtentWriter
// ---------------------------------------------------------------------

ExtentWriter::ExtentWriter(std::vector<std::string> columns,
                           std::vector<bool> additive)
    : columns_(std::move(columns)), additive_(std::move(additive))
{
    DCB_EXPECTS(!columns_.empty());
    DCB_EXPECTS(additive_.size() == columns_.size());
    for (const bool a : additive_)
        additive_count_ += a ? 1 : 0;
}

ExtentWriter::~ExtentWriter()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        std::remove(temp_path_.c_str());
    }
}

bool
ExtentWriter::open(const std::string& path)
{
    DCB_EXPECTS(file_ == nullptr);
    path_ = path;
    file_ = util::open_file_atomic(path, &temp_path_);
    if (file_ == nullptr)
        return ok_ = false;
    std::string header(kFileMagic, sizeof kFileMagic);
    put_u32(&header, kExtentVersion);
    put_u32(&header, static_cast<std::uint32_t>(columns_.size()));
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        put_u16(&header, static_cast<std::uint16_t>(columns_[c].size()));
        header += columns_[c];
        header.push_back(additive_[c] ? 1 : 0);
    }
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size())
        return ok_ = false;
    header_end_ = static_cast<long>(header.size());
    return true;
}

bool
ExtentWriter::append_extent(const IntervalRow* rows, std::size_t count,
                            const double* sums_after)
{
    DCB_EXPECTS(file_ != nullptr);
    if (count == 0 || !ok_)
        return ok_;

    std::string& body = scratch_;
    body.clear();
    put_u32(&body, static_cast<std::uint32_t>(count));

    // first_op / op_count: always monotone-ish u64 counters.
    std::vector<std::uint64_t> ints(count);
    for (std::size_t r = 0; r < count; ++r)
        ints[r] = rows[r].first_op;
    encode_u64_column(&body, ints.data(), count);
    for (std::size_t r = 0; r < count; ++r)
        ints[r] = rows[r].op_count;
    encode_u64_column(&body, ints.data(), count);

    for (std::size_t c = 0; c < columns_.size(); ++c) {
        std::string payload;
        if (integer_valued(rows, count, c)) {
            std::int64_t prev = 0;
            for (std::size_t r = 0; r < count; ++r) {
                const auto cur =
                    static_cast<std::int64_t>(rows[r].values[c]);
                put_varint(&payload, zigzag_encode(cur - prev));
                prev = cur;
            }
            put_block(&body, ColumnEncoding::kDeltaVarint,
                      std::move(payload));
        } else {
            payload.reserve(count * 8);
            for (std::size_t r = 0; r < count; ++r)
                put_u64(&payload,
                        std::bit_cast<std::uint64_t>(rows[r].values[c]));
            put_block(&body, ColumnEncoding::kRaw64, std::move(payload));
        }
    }

    for (std::size_t a = 0; a < additive_count_; ++a)
        put_u64(&body, std::bit_cast<std::uint64_t>(sums_after[a]));
    put_u64(&body, fnv1a(body));

    std::string framed;
    put_u32(&framed, kExtentMagic);
    if (std::fwrite(framed.data(), 1, framed.size(), file_) !=
            framed.size() ||
        std::fwrite(body.data(), 1, body.size(), file_) != body.size())
        return ok_ = false;
    rows_written_ += count;
    ++extents_written_;
    return true;
}

void
ExtentWriter::add_sketch(const std::string& name,
                         const QuantileSketch& sketch)
{
    DCB_EXPECTS(name.size() <= 0xffff);
    put_u16(&sketch_bytes_, static_cast<std::uint16_t>(name.size()));
    sketch_bytes_ += name;
    put_u64(&sketch_bytes_, std::bit_cast<std::uint64_t>(sketch.epsilon()));
    put_u64(&sketch_bytes_, sketch.count());
    put_u64(&sketch_bytes_, std::bit_cast<std::uint64_t>(sketch.min()));
    put_u64(&sketch_bytes_, std::bit_cast<std::uint64_t>(sketch.max()));
    put_varint(&sketch_bytes_, sketch.tuples().size());
    for (const QuantileTuple& t : sketch.tuples()) {
        put_u64(&sketch_bytes_, std::bit_cast<std::uint64_t>(t.value));
        put_varint(&sketch_bytes_, t.g);
        put_varint(&sketch_bytes_, t.delta);
    }
    ++sketch_count_;
}

bool
ExtentWriter::finalize()
{
    DCB_EXPECTS(file_ != nullptr);
    if (ok_ && sketch_count_ > 0) {
        std::string section;
        put_u32(&section, kSketchMagic);
        std::string counted;
        put_u32(&counted, sketch_count_);
        counted += sketch_bytes_;
        section += counted;
        put_u64(&section, fnv1a(counted));
        if (std::fwrite(section.data(), 1, section.size(), file_) !=
            section.size())
            ok_ = false;
    }
    if (ok_) {
        std::string trailer;
        put_u32(&trailer, kTrailerMagic);
        std::string counted;
        put_u64(&counted, rows_written_);
        put_u64(&counted, extents_written_);
        trailer += counted;
        put_u64(&trailer, fnv1a(counted));
        if (std::fwrite(trailer.data(), 1, trailer.size(), file_) !=
            trailer.size())
            ok_ = false;
    }
    if (!ok_) {
        std::fclose(file_);
        std::remove(temp_path_.c_str());
        file_ = nullptr;
        return false;
    }
    const bool committed =
        util::commit_file_atomic(file_, temp_path_, path_);
    file_ = nullptr;
    return ok_ = committed;
}

bool
ExtentWriter::reset()
{
    rows_written_ = 0;
    extents_written_ = 0;
    sketch_bytes_.clear();
    sketch_count_ = 0;
    if (file_ == nullptr)
        return ok_;
    if (std::fflush(file_) != 0 ||
        std::fseek(file_, header_end_, SEEK_SET) != 0)
        return ok_ = false;
    // Shrink the temp file past the header so stale extents cannot
    // trail the new data if fewer extents are rewritten.
    if (ftruncate(fileno(file_), static_cast<off_t>(header_end_)) != 0)
        return ok_ = false;
    return ok_;
}

// ---------------------------------------------------------------------
// ExtentReader
// ---------------------------------------------------------------------

ExtentReader::~ExtentReader()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

bool
ExtentReader::fail(const std::string& message)
{
    error_ = message;
    return false;
}

bool
ExtentReader::read_exact(void* out, std::size_t n)
{
    return std::fread(out, 1, n, file_) == n;
}

bool
ExtentReader::open(const std::string& path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr)
        return fail("cannot open " + path);
    char magic[sizeof kFileMagic];
    if (!read_exact(magic, sizeof magic) ||
        std::memcmp(magic, kFileMagic, sizeof magic) != 0)
        return fail("bad file magic");
    unsigned char fixed[8];
    if (!read_exact(fixed, 8))
        return fail("truncated header");
    const std::uint32_t version = fixed[0] | (fixed[1] << 8) |
                                  (fixed[2] << 16) |
                                  (static_cast<std::uint32_t>(fixed[3])
                                   << 24);
    const std::uint32_t ncols = fixed[4] | (fixed[5] << 8) |
                                (fixed[6] << 16) |
                                (static_cast<std::uint32_t>(fixed[7])
                                 << 24);
    if (version != kExtentVersion)
        return fail("unsupported version " + std::to_string(version));
    if (ncols == 0 || ncols > 4096)
        return fail("implausible column count");
    for (std::uint32_t c = 0; c < ncols; ++c) {
        unsigned char len[2];
        if (!read_exact(len, 2))
            return fail("truncated column header");
        std::string name(static_cast<std::size_t>(len[0]) |
                             (static_cast<std::size_t>(len[1]) << 8),
                         '\0');
        unsigned char add = 0;
        if (!read_exact(name.data(), name.size()) ||
            !read_exact(&add, 1))
            return fail("truncated column header");
        columns_.push_back(std::move(name));
        additive_.push_back(add != 0);
    }
    std::size_t additive_count = 0;
    for (const bool a : additive_)
        additive_count += a ? 1 : 0;
    sums_.assign(additive_count, 0.0);
    return true;
}

bool
ExtentReader::next_extent(std::vector<IntervalRow>* rows)
{
    DCB_EXPECTS(file_ != nullptr);
    rows->clear();
    if (at_end_)
        return false;
    unsigned char magic_bytes[4];
    if (!read_exact(magic_bytes, 4))
        return fail("missing trailer (truncated file)");
    const std::uint32_t magic =
        magic_bytes[0] | (magic_bytes[1] << 8) | (magic_bytes[2] << 16) |
        (static_cast<std::uint32_t>(magic_bytes[3]) << 24);

    if (magic == kTrailerMagic) {
        unsigned char t[24];
        if (!read_exact(t, sizeof t))
            return fail("truncated trailer");
        const std::uint64_t total_rows = load_u64(t);
        const std::uint64_t total_extents = load_u64(t + 8);
        const std::uint64_t want = load_u64(t + 16);
        const std::uint64_t got = fnv1a(
            std::string_view(reinterpret_cast<const char*>(t), 16));
        if (got != want)
            return fail("trailer checksum mismatch");
        if (total_rows != rows_read_ || total_extents != extents_read_)
            return fail("trailer counts disagree with extents read");
        at_end_ = true;
        return false;  // clean end: error() stays empty
    }
    if (magic == kSketchMagic) {
        if (!read_sketch_section())
            return false;
        // The section sits between the last extent and the trailer;
        // recurse so the caller still sees a clean end at the trailer.
        return next_extent(rows);
    }
    if (magic != kExtentMagic)
        return fail("bad extent magic");

    unsigned char count_bytes[4];
    if (!read_exact(count_bytes, 4))
        return fail("truncated extent");
    const std::uint32_t count = count_bytes[0] | (count_bytes[1] << 8) |
                                (count_bytes[2] << 16) |
                                (static_cast<std::uint32_t>(
                                     count_bytes[3])
                                 << 24);
    if (count == 0 || count > (1u << 28))
        return fail("implausible extent row count");

    // Re-read the body into memory so the checksum can be verified over
    // the exact bytes before any of them are interpreted.
    std::string body(4, '\0');
    std::memcpy(body.data(), count_bytes, 4);
    const std::size_t ncols = columns_.size();
    std::size_t additive_count = sums_.size();

    rows->resize(count);
    for (std::uint32_t r = 0; r < count; ++r) {
        (*rows)[r].index = rows_read_ + r;
        (*rows)[r].values.resize(ncols);
    }

    std::string payload;
    std::string decoded;
    for (std::size_t c = 0; c < ncols + 2; ++c) {
        unsigned char tag;
        if (!read_exact(&tag, 1))
            return fail("truncated block tag");
        body.push_back(static_cast<char>(tag));
        // Varint length: read byte-by-byte (max 10).
        std::uint64_t len = 0;
        {
            int shift = 0;
            unsigned char b;
            do {
                if (shift >= 64 || !read_exact(&b, 1))
                    return fail("bad block length");
                body.push_back(static_cast<char>(b));
                len |= static_cast<std::uint64_t>(b & 0x7f) << shift;
                shift += 7;
            } while (b & 0x80);
        }
        if (len > (1ull << 32))
            return fail("implausible block length");
        payload.resize(static_cast<std::size_t>(len));
        if (!read_exact(payload.data(), payload.size()))
            return fail("truncated block payload");
        body += payload;

        std::string_view bytes = payload;
        if (tag & kRleFlag) {
            if (!rle_decode(bytes, &decoded))
                return fail("corrupt RLE stream");
            bytes = decoded;
        }
        const auto enc =
            static_cast<ColumnEncoding>(tag & ~kRleFlag);
        const auto* p =
            reinterpret_cast<const unsigned char*>(bytes.data());
        const auto* end = p + bytes.size();
        if (enc == ColumnEncoding::kDeltaVarint) {
            std::int64_t prev = 0;
            for (std::uint32_t r = 0; r < count; ++r) {
                std::uint64_t u = 0;
                p = get_varint(p, end, &u);
                if (p == nullptr)
                    return fail("corrupt varint stream");
                prev += zigzag_decode(u);
                if (c == 0)
                    (*rows)[r].first_op =
                        static_cast<std::uint64_t>(prev);
                else if (c == 1)
                    (*rows)[r].op_count =
                        static_cast<std::uint64_t>(prev);
                else
                    (*rows)[r].values[c - 2] =
                        static_cast<double>(prev);
            }
        } else if (enc == ColumnEncoding::kRaw64) {
            if (bytes.size() != static_cast<std::size_t>(count) * 8)
                return fail("raw block length mismatch");
            for (std::uint32_t r = 0; r < count; ++r) {
                const std::uint64_t u = load_u64(p + 8 * r);
                if (c == 0)
                    (*rows)[r].first_op = u;
                else if (c == 1)
                    (*rows)[r].op_count = u;
                else
                    (*rows)[r].values[c - 2] = std::bit_cast<double>(u);
            }
        } else {
            return fail("unknown column encoding");
        }
        if (p != end && enc == ColumnEncoding::kDeltaVarint)
            return fail("trailing bytes in varint block");
    }

    std::string sums_bytes(additive_count * 8 + 8, '\0');
    if (!read_exact(sums_bytes.data(), sums_bytes.size()))
        return fail("truncated extent footer");
    body.append(sums_bytes, 0, additive_count * 8);
    const auto* sp =
        reinterpret_cast<const unsigned char*>(sums_bytes.data());
    const std::uint64_t want = load_u64(sp + additive_count * 8);
    if (fnv1a(body) != want)
        return fail("extent checksum mismatch");

    // Re-accumulate and verify the running sums: this is the induction
    // step that proves additive columns still sum to the run totals
    // across extent boundaries.
    for (std::uint32_t r = 0; r < count; ++r) {
        std::size_t a = 0;
        for (std::size_t c = 0; c < ncols; ++c) {
            if (!additive_[c])
                continue;
            sums_[a] += (*rows)[r].values[c];
            ++a;
        }
    }
    for (std::size_t a = 0; a < additive_count; ++a) {
        const std::uint64_t stored = load_u64(sp + a * 8);
        if (std::bit_cast<std::uint64_t>(sums_[a]) != stored)
            return fail("footer running-sum mismatch (column sum "
                        "invariant violated)");
    }

    rows_read_ += count;
    ++extents_read_;
    return true;
}

bool
ExtentReader::read_sketch_section()
{
    unsigned char count_bytes[4];
    if (!read_exact(count_bytes, 4))
        return fail("truncated sketch section");
    const std::uint32_t count = count_bytes[0] | (count_bytes[1] << 8) |
                                (count_bytes[2] << 16) |
                                (static_cast<std::uint32_t>(
                                     count_bytes[3])
                                 << 24);
    if (count > (1u << 20))
        return fail("implausible sketch count");
    // Accumulate the exact section bytes for checksum verification.
    std::string body(4, '\0');
    std::memcpy(body.data(), count_bytes, 4);
    const auto read_into_body = [&](void* out, std::size_t n) {
        if (!read_exact(out, n))
            return false;
        body.append(static_cast<const char*>(out), n);
        return true;
    };
    const auto read_varint_into_body = [&](std::uint64_t* v) {
        *v = 0;
        int shift = 0;
        unsigned char b;
        do {
            if (shift >= 64 || !read_exact(&b, 1))
                return false;
            body.push_back(static_cast<char>(b));
            *v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            shift += 7;
        } while (b & 0x80);
        return true;
    };
    for (std::uint32_t s = 0; s < count; ++s) {
        PersistedSketch sketch;
        unsigned char len[2];
        if (!read_into_body(len, 2))
            return fail("truncated sketch name");
        sketch.name.resize(static_cast<std::size_t>(len[0]) |
                           (static_cast<std::size_t>(len[1]) << 8));
        unsigned char fixed[32];
        if (!read_into_body(sketch.name.data(), sketch.name.size()) ||
            !read_into_body(fixed, sizeof fixed))
            return fail("truncated sketch header");
        sketch.epsilon = std::bit_cast<double>(load_u64(fixed));
        sketch.count = load_u64(fixed + 8);
        sketch.min = std::bit_cast<double>(load_u64(fixed + 16));
        sketch.max = std::bit_cast<double>(load_u64(fixed + 24));
        std::uint64_t tuple_count = 0;
        if (!read_varint_into_body(&tuple_count) ||
            tuple_count > (1ull << 32))
            return fail("bad sketch tuple count");
        sketch.tuples.resize(static_cast<std::size_t>(tuple_count));
        std::uint64_t g_total = 0;
        for (QuantileTuple& t : sketch.tuples) {
            unsigned char value[8];
            if (!read_into_body(value, 8) ||
                !read_varint_into_body(&t.g) ||
                !read_varint_into_body(&t.delta))
                return fail("truncated sketch tuples");
            t.value = std::bit_cast<double>(load_u64(value));
            g_total += t.g;
        }
        // GK structural invariant: the g gaps partition the ranks.
        if (g_total != sketch.count)
            return fail("sketch rank gaps disagree with count");
        sketches_.push_back(std::move(sketch));
    }
    unsigned char want_bytes[8];
    if (!read_exact(want_bytes, 8))
        return fail("truncated sketch checksum");
    if (fnv1a(body) != load_u64(want_bytes))
        return fail("sketch section checksum mismatch");
    return true;
}

}  // namespace dcb::obs
