#include "obs/trace_writer.h"

#include <chrono>
#include <cstring>
#include <cstdio>

#include "obs/json.h"
#include "util/atomic_file.h"

namespace dcb::obs {

namespace {

std::uint64_t
steady_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

TraceWriter::TraceWriter() : epoch_ns_(steady_ns()) {}

double
TraceWriter::now_us() const
{
    return static_cast<double>(steady_ns() - epoch_ns_) / 1000.0;
}

std::uint32_t
TraceWriter::intern(std::string_view s)
{
    // The cache is consulted only for short strings (event names and
    // categories, usually literals with a stable address). A hit must
    // still byte-compare against the arena: a reused stack buffer can
    // alias a previous string's address with different content.
    const bool cacheable = !s.empty() && s.size() <= 32;
    InternSlot* slot = nullptr;
    if (cacheable) {
        const auto h = reinterpret_cast<std::uintptr_t>(s.data());
        slot = &intern_cache_[(h >> 4) % kInternSlots];
        if (slot->data == s.data() && slot->len == s.size() &&
            std::memcmp(arena_.data() + slot->off, s.data(),
                        s.size()) == 0)
            return slot->off;
    }
    const std::uint32_t off = static_cast<std::uint32_t>(arena_.size());
    arena_.append(s.data(), s.size());
    if (slot != nullptr) {
        slot->data = s.data();
        slot->len = static_cast<std::uint32_t>(s.size());
        slot->off = off;
    }
    return off;
}

TraceWriter::Record&
TraceWriter::append()
{
    if (chunks_.empty() || chunks_.back().size() == kChunkEvents) {
        chunks_.emplace_back();
        chunks_.back().reserve(kChunkEvents);
    }
    return chunks_.back().emplace_back();
}

void
TraceWriter::push(std::string_view name, std::string_view cat, char ph,
                  std::uint32_t pid, std::uint64_t tid, double ts_us,
                  double dur_us, std::string_view args_json)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Record& r = append();
    r.name_off = intern(name);
    r.name_len = static_cast<std::uint16_t>(name.size());
    r.cat_off = intern(cat);
    r.cat_len = static_cast<std::uint16_t>(cat.size());
    r.args_off = intern(args_json);
    r.args_len = static_cast<std::uint32_t>(args_json.size());
    r.pid = static_cast<std::uint8_t>(pid);
    r.ph = ph;
    r.tid = static_cast<std::uint32_t>(tid);
    r.ts_us = ts_us;
    r.dur_us = dur_us;
    ++event_count_;
}

void
TraceWriter::complete(std::string_view name, std::string_view cat,
                      std::uint32_t pid, std::uint64_t tid, double ts_us,
                      double dur_us, std::string_view args_json)
{
    push(name, cat, 'X', pid, tid, ts_us, dur_us < 0.0 ? 0.0 : dur_us,
         args_json);
}

void
TraceWriter::instant(std::string_view name, std::string_view cat,
                     std::uint32_t pid, std::uint64_t tid, double ts_us,
                     std::string_view args_json)
{
    push(name, cat, 'i', pid, tid, ts_us, 0.0, args_json);
}

void
TraceWriter::instants(std::string_view name, std::string_view cat,
                      std::uint32_t pid, double ts_us,
                      const std::uint64_t* tids, std::size_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Record& r = append();
    r.name_off = intern(name);
    r.name_len = static_cast<std::uint16_t>(name.size());
    r.cat_off = intern(cat);
    r.cat_len = static_cast<std::uint16_t>(cat.size());
    r.pid = static_cast<std::uint8_t>(pid);
    r.ph = 'i';
    r.tid = static_cast<std::uint32_t>(burst_tids_.size());
    r.burst = static_cast<std::uint32_t>(n);
    r.ts_us = ts_us;
    r.dur_us = 0.0;
    burst_tids_.insert(burst_tids_.end(), tids, tids + n);
    event_count_ += n;
}

void
TraceWriter::counter(std::string_view name, std::string_view cat,
                     std::uint32_t pid, std::uint64_t tid, double ts_us,
                     std::string_view series, double value)
{
    // Stored raw (series interned, value in dur_us) and rendered as
    // args {"<series>": <value>} by to_json: no formatting per sample.
    push(name, cat, 'C', pid, tid, ts_us, value, series);
}

void
TraceWriter::name_process(std::uint32_t pid, std::string_view name)
{
    const std::string args =
        "{\"name\": " + json_quote(std::string(name)) + "}";
    push("process_name", {}, 'M', pid, 0, 0.0, 0.0, args);
}

void
TraceWriter::name_thread(std::uint32_t pid, std::uint64_t tid,
                         std::string_view name)
{
    const std::string args =
        "{\"name\": " + json_quote(std::string(name)) + "}";
    push("thread_name", {}, 'M', pid, tid, 0.0, 0.0, args);
}

std::size_t
TraceWriter::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return event_count_;
}

std::size_t
TraceWriter::count_category(std::string_view cat) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const std::vector<Record>& chunk : chunks_)
        for (const Record& r : chunk)
            if (arena_view(r.cat_off, r.cat_len) == cat)
                n += r.burst > 0 ? r.burst : 1;
    return n;
}

std::string
TraceWriter::to_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"traceEvents\": [\n";
    std::size_t i = 0;
    const auto render = [&](const Record& r, std::uint32_t tid) {
        out += "  {\"name\": " +
               json_quote(std::string(arena_view(r.name_off, r.name_len)));
        if (r.cat_len > 0)
            out += ", \"cat\": " +
                   json_quote(std::string(arena_view(r.cat_off, r.cat_len)));
        out += ", \"ph\": \"";
        out += r.ph;
        out += "\", \"ts\": " + json_double(r.ts_us);
        if (r.ph == 'X')
            out += ", \"dur\": " + json_double(r.dur_us);
        if (r.ph == 'i')
            out += ", \"s\": \"t\"";  // instant scope: thread
        out += ", \"pid\": " + std::to_string(r.pid) +
               ", \"tid\": " + std::to_string(tid);
        if (r.ph == 'C') {
            out += ", \"args\": {" +
                   json_quote(std::string(arena_view(r.args_off, r.args_len))) +
                   ": " + json_double(r.dur_us) + "}";
        } else if (r.args_len > 0) {
            out += ", \"args\": ";
            out += arena_view(r.args_off, r.args_len);
        }
        out += "}";
        out += ++i < event_count_ ? ",\n" : "\n";
    };
    for (const std::vector<Record>& chunk : chunks_) {
        for (const Record& r : chunk) {
            if (r.burst == 0) {
                render(r, r.tid);
                continue;
            }
            for (std::uint32_t k = 0; k < r.burst; ++k)
                render(r, burst_tids_[r.tid + k]);
        }
    }
    out += "]}\n";
    return out;
}

bool
TraceWriter::write(const std::string& path) const
{
    return util::write_file_atomic(path, to_json());
}

}  // namespace dcb::obs
