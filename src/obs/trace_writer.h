#ifndef DCBENCH_OBS_TRACE_WRITER_H_
#define DCBENCH_OBS_TRACE_WRITER_H_

/**
 * @file
 * Chrome trace-event / Perfetto-compatible span collector.
 *
 * Every layer of a run narrates its lifecycle here -- the harness opens
 * a span per workload run, the core brackets its sampling segments
 * (warmup/skip/warm/window), and the cluster scheduler records task
 * attempts, retries, speculation, blacklisting and fault epochs -- so a
 * full suite run opens as one timeline in chrome://tracing or
 * ui.perfetto.dev.
 *
 * Two clock domains coexist as separate trace "processes": host wall
 * time (kHostPid, microseconds since the writer was created) for
 * everything the simulator actually executes, and simulated cluster
 * time (kClusterPid, simulated seconds scaled to microseconds) for the
 * discrete-event scheduler. The writer is thread-safe: parallel suite
 * workers append concurrently.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dcb::obs {

/**
 * Thread-safe collector of trace events with JSON export.
 *
 * The collector sits on the cluster scheduler's hot path (one instant
 * per task grant at 512-node scale is ~10^5 events per run), so events
 * are stored as fixed-size POD records whose text fields live in one
 * append-only arena: recording an event is a mutex acquire, three
 * small memcpys and a trivially-copyable push_back -- no per-event
 * heap allocation, and vector growth is a plain memcpy. JSON is
 * rendered only at write time.
 */
class TraceWriter
{
  public:
    /** Host-wall-time rows (harness, core sampling segments). */
    static constexpr std::uint32_t kHostPid = 1;
    /** Simulated-cluster-time rows (scheduler, fault epochs). */
    static constexpr std::uint32_t kClusterPid = 2;
    /** Retired-op-index rows (phase annotations: 1 op = 1 "us"). */
    static constexpr std::uint32_t kPhasePid = 3;

    TraceWriter();

    /** Microseconds of host wall time since this writer was created. */
    double now_us() const;

    /** Complete event (a span with a duration). `args_json` is a
        pre-rendered JSON object ("{...}"); empty = none. */
    void complete(std::string_view name, std::string_view cat,
                  std::uint32_t pid, std::uint64_t tid, double ts_us,
                  double dur_us, std::string_view args_json = {});

    /** Instant event (a point on the timeline). */
    void instant(std::string_view name, std::string_view cat,
                 std::uint32_t pid, std::uint64_t tid, double ts_us,
                 std::string_view args_json = {});

    /**
     * One instant per tid, all sharing the same name, category and
     * timestamp, appended under a single lock. This is the fair-share
     * grant burst: every grant in a barrier lands at the barrier time,
     * so batching turns ~10^5 locked pushes per run into one per
     * barrier. The burst is stored as one record plus its tids (4
     * bytes each, not a 48-byte record per instant) and renders exactly
     * as the same instants pushed one by one.
     */
    void instants(std::string_view name, std::string_view cat,
                  std::uint32_t pid, double ts_us,
                  const std::uint64_t* tids, std::size_t n);

    /**
     * Counter event (a sampled value the trace UI plots as a track):
     * `series` names the plotted variable inside the counter `name`.
     * Used for the cluster's uplink queue-depth tracks. The value is
     * kept as a double and formatted only by to_json.
     */
    void counter(std::string_view name, std::string_view cat,
                 std::uint32_t pid, std::uint64_t tid, double ts_us,
                 std::string_view series, double value);

    /** Name a process or thread lane in the trace UI. */
    void name_process(std::uint32_t pid, std::string_view name);
    void name_thread(std::uint32_t pid, std::uint64_t tid,
                     std::string_view name);

    std::size_t size() const;
    /** Events with category `cat` (test/checker convenience). */
    std::size_t count_category(std::string_view cat) const;

    /** The whole trace as `{"traceEvents": [...]}` JSON. */
    std::string to_json() const;

    /** Write to `path`; false when the file cannot be opened. */
    bool write(const std::string& path) const;

  private:
    /** One event; text fields are [offset, offset+len) into arena_.
        48 bytes, trivially copyable. A burst of `burst` > 0 instants
        keeps their tids in burst_tids_[tid, tid + burst). A counter
        ('C') keeps its series name in args and its value in dur_us. */
    struct Record
    {
        std::uint32_t name_off = 0;
        std::uint32_t cat_off = 0;
        std::uint32_t args_off = 0;
        std::uint32_t args_len = 0;
        std::uint16_t name_len = 0;
        std::uint16_t cat_len = 0;
        std::uint8_t pid = 1;
        char ph = 'X';  ///< X complete, i instant, C counter, M metadata
        std::uint8_t pad_[2] = {0, 0};
        std::uint32_t tid = 0;
        std::uint32_t burst = 0;
        double ts_us = 0.0;
        double dur_us = 0.0;  ///< complete: duration; counter: value
    };

    /** Append `s` to arena_ and return its offset (lock held). Repeat
        emissions of the same string literal (the hot case: "grant" /
        "sched" at every fair-share grant) hit a tiny pointer-keyed
        cache and share one arena entry. */
    std::uint32_t intern(std::string_view s);
    /** A new default record at the end of the last chunk (lock held). */
    Record& append();
    void push(std::string_view name, std::string_view cat, char ph,
              std::uint32_t pid, std::uint64_t tid, double ts_us,
              double dur_us, std::string_view args_json);
    std::string_view arena_view(std::uint32_t off,
                                std::uint32_t len) const
    {
        return std::string_view(arena_.data() + off, len);
    }

    mutable std::mutex mutex_;
    std::string arena_;  ///< all event text, append-only
    /** Intern cache: recently-seen (data pointer, length) -> offset.
        Literal call sites have a stable address, so repeats are free. */
    struct InternSlot
    {
        const char* data = nullptr;
        std::uint32_t len = 0;
        std::uint32_t off = 0;
    };
    static constexpr std::size_t kInternSlots = 16;
    InternSlot intern_cache_[kInternSlots];
    /** Events in fixed-size chunks: appends never relocate records. */
    static constexpr std::size_t kChunkEvents = 16384;
    std::vector<std::vector<Record>> chunks_;
    std::vector<std::uint32_t> burst_tids_;
    std::size_t event_count_ = 0;
    std::uint64_t epoch_ns_ = 0;  ///< steady_clock at construction
};

}  // namespace dcb::obs

#endif  // DCBENCH_OBS_TRACE_WRITER_H_
