#ifndef DCBENCH_BENCH_BENCH_COMMON_H_
#define DCBENCH_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared plumbing for the per-figure bench binaries: a full-suite run
 * with the paper's methodology (Table III machine, ramp-up discard,
 * whole-runtime collection) and helpers to print paper-vs-measured rows.
 *
 * Usage of every figure bench:
 *   ./figNN_xxx [ops-per-workload] [--ops N] [--jobs N]
 *               [--sample[=ratio]] [--sample-window N]
 *               [--sample-discard N] [--sample-warmup N]
 *               [--obs-interval N] [--obs-out PREFIX]
 *               [--obs-extent-rows N]
 *               [--obs-metrics-out FILE] [--obs-phase[=FILE]]
 *               [--trace-out FILE] [--manifest FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/dcbench.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"

namespace dcb::bench {

/**
 * Process-wide observability sinks, created on demand by the shared
 * --trace-out / --manifest / --obs-metrics-out / --obs-phase flags and
 * flushed once at process exit so a bench's every exit path (including
 * the CI-guard `return 1`s) still writes the files.
 */
struct ObsSinks
{
    std::unique_ptr<obs::TraceWriter> trace;
    std::string trace_path;
    obs::RunManifest manifest;
    std::string manifest_path;
    /** --obs-metrics-out: labeled registry whose Prometheus text lands
        in metrics_path and whose snapshot rows spill to
        metrics_path + ".dcx" (both atomic, written at exit). */
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::string metrics_path;
    /** --obs-phase=FILE: per-workload phase segmentation JSON. */
    std::string phase_path;
    bool flush_registered = false;
};

inline ObsSinks&
obs_sinks()
{
    static ObsSinks sinks;
    return sinks;
}

/**
 * The run manifest config_from_args fills with the effective
 * configuration. Benches embed it into their BENCH_*.json artifacts
 * (json_fragment) and may stamp extra facts before exit.
 */
inline obs::RunManifest&
manifest()
{
    return obs_sinks().manifest;
}

/** The --trace-out collector, nullptr when tracing is off. */
inline obs::TraceWriter*
trace_writer()
{
    return obs_sinks().trace.get();
}

/** The --obs-metrics-out registry, nullptr when metrics are off. */
inline obs::MetricsRegistry*
metrics_registry()
{
    return obs_sinks().metrics.get();
}

/** atexit hook: write trace, manifest and metrics files if requested. */
inline void
flush_obs_sinks()
{
    ObsSinks& sinks = obs_sinks();
    if (sinks.trace != nullptr && !sinks.trace_path.empty()) {
        if (sinks.trace->write(sinks.trace_path))
            std::printf("wrote %s (%zu trace events)\n",
                        sinks.trace_path.c_str(), sinks.trace->size());
        else
            std::fprintf(stderr, "error: cannot write %s\n",
                         sinks.trace_path.c_str());
    }
    if (sinks.metrics != nullptr && !sinks.metrics_path.empty()) {
        if (!sinks.metrics->finalize_snapshots())
            std::fprintf(stderr, "error: cannot write %s.dcx\n",
                         sinks.metrics_path.c_str());
        if (sinks.metrics->write_prometheus(sinks.metrics_path))
            std::printf("wrote %s (%zu series, %llu snapshots)\n",
                        sinks.metrics_path.c_str(),
                        sinks.metrics->series_count(),
                        static_cast<unsigned long long>(
                            sinks.metrics->snapshot_count()));
        else
            std::fprintf(stderr, "error: cannot write %s\n",
                         sinks.metrics_path.c_str());
    }
    if (!sinks.manifest_path.empty()) {
        if (sinks.manifest.write(sinks.manifest_path))
            std::printf("wrote %s\n", sinks.manifest_path.c_str());
        else
            std::fprintf(stderr, "error: cannot write %s\n",
                         sinks.manifest_path.c_str());
    }
}

/**
 * Stamp a parallel suite's worker utilization into the run manifest:
 * aggregate busy time, slot utilization, and the load-imbalance spread
 * (max/min busy worker), next to the host facts. The cluster bench
 * reports the analogous per-shard numbers in BENCH_cluster.json.
 */
inline void
stamp_pool_stats(const core::SuiteResult& suite)
{
    obs::RunManifest& m = manifest();
    m.set("pool_busy_seconds", suite.pool_busy_seconds);
    m.set("pool_utilization", suite.pool_utilization);
    m.set("pool_workers", std::uint64_t{suite.worker_tasks.size()});
    double busy_min = 0.0;
    double busy_max = 0.0;
    for (std::size_t i = 0; i < suite.worker_busy_seconds.size(); ++i) {
        const double b = suite.worker_busy_seconds[i];
        busy_min = i == 0 ? b : std::min(busy_min, b);
        busy_max = std::max(busy_max, b);
    }
    if (busy_min > 0.0)
        m.set("pool_imbalance", busy_max / busy_min);
}

/**
 * Peak resident-set size of this process in bytes (getrusage; Linux
 * reports ru_maxrss in KiB). The benches record it next to recorder
 * byte counts so telemetry memory regressions show up in BENCH_*.json.
 */
inline std::uint64_t
peak_rss_bytes()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

/** Default per-workload op budget for figure benches. */
inline constexpr std::uint64_t kDefaultBudget = 2'000'000;

/**
 * Ratio used by a bare `--sample` flag: the stall-share estimates need
 * this dense a window coverage far more than they need the (already
 * modest) extra speed of a sparser one.
 */
inline constexpr double kDefaultSampleRatio = 0.15;

/** Reject a command-line token: print why, naming it, and exit 2. */
[[noreturn]] inline void
usage_error(const char* why, const char* token)
{
    std::fprintf(stderr, "error: %s: %s\n", why, token);
    std::exit(2);
}

/** True when `text` is a nonempty run of decimal digits. */
inline bool
all_digits(const char* text)
{
    if (*text == '\0')
        return false;
    for (; *text != '\0'; ++text)
        if (*text < '0' || *text > '9')
            return false;
    return true;
}

/** `text` as a count for `flag`; exits 2 unless it parses completely. */
inline std::uint64_t
parse_count(const char* flag, const char* text)
{
    errno = 0;
    const unsigned long long v = std::strtoull(text, nullptr, 10);
    if (!all_digits(text) || errno == ERANGE)
        usage_error("value is not a whole number", flag);
    return v;
}

/** `text` as a real number for `flag`; exits 2 unless it parses
 *  completely to a finite value. */
inline double
parse_real(const char* flag, const char* text)
{
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v))
        usage_error("value is not a number", flag);
    return v;
}

/**
 * The value of `name N` or `name=N` at argv[i] (advancing i past a
 * separate value), or nullptr when argv[i] is not that flag or its
 * separate value is missing.
 */
inline const char*
flag_value(int argc, char** argv, int& i, const char* name)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(argv[i], name, len) != 0)
        return nullptr;
    if (argv[i][len] == '=')
        return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc)
        return argv[++i];
    return nullptr;
}

/**
 * Parse the shared bench flags:
 *   --ops N            per-workload op budget (also legacy positional N)
 *   --jobs N           suite worker threads (0 = one per hardware thread)
 *   --sample[=ratio]   interval sampling at `ratio` detailed coverage
 *                      (bare: kDefaultSampleRatio); every gap warms
 *   --sample-window N  detailed-window length in ops
 *   --sample-discard N per-window pipeline re-pressurization head
 *   --sample-warmup N  lead-in before the first period
 *   --obs-interval N   interval telemetry: snapshot every counter every
 *                      N retired ops (perf stat -I analogue); writes
 *                      <prefix><workload>.telemetry.{csv,json}
 *   --obs-out PREFIX   telemetry file prefix (default "obs/";
 *                      --obs-out= keeps telemetry in memory only)
 *   --obs-extent-rows N  rows buffered per columnar telemetry extent
 *                      before sealing to the .dcx spill file (0 keeps
 *                      every row in memory; default 4096)
 *   --obs-metrics-out FILE  labeled metrics registry: Prometheus text
 *                      to FILE, snapshot time series to FILE.dcx (both
 *                      written atomically at process exit)
 *   --obs-phase[=FILE] detect phases over the interval telemetry
 *                      (requires --obs-interval); with =FILE also
 *                      write the per-workload segmentation JSON
 *   --trace-out FILE   collect a Chrome trace-event / Perfetto JSON
 *                      timeline of the whole process into FILE
 *   --manifest FILE    write the run manifest (config echo, seeds,
 *                      build type, host parallelism) to FILE
 * Any other `--` token, a value that does not parse completely, or a
 * positional token that is not all digits exits 2 naming it.
 * Workloads are independent simulations, so results do not depend on
 * the jobs count. Prints the resolved budget so every bench states what
 * it actually ran. The manifest is always populated (see manifest());
 * trace and manifest files are flushed at process exit.
 */
inline core::HarnessConfig
config_from_args(int argc, char** argv)
{
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = kDefaultBudget;
    bool budget_seen = false;
    bool obs_out_seen = false;
    ObsSinks& sinks = obs_sinks();
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const char* v = nullptr;
        if ((v = flag_value(argc, argv, i, "--jobs"))) {
            config.jobs = static_cast<unsigned>(parse_count(arg, v));
        } else if ((v = flag_value(argc, argv, i, "--ops"))) {
            config.run.op_budget = parse_count(arg, v);
            budget_seen = true;
        } else if (std::strcmp(arg, "--sample") == 0) {
            config.sampling.ratio = kDefaultSampleRatio;
        } else if (std::strncmp(arg, "--sample=", 9) == 0) {
            config.sampling.ratio = parse_real(arg, arg + 9);
        } else if ((v = flag_value(argc, argv, i, "--sample-window"))) {
            config.sampling.window_ops = parse_count(arg, v);
        } else if ((v = flag_value(argc, argv, i, "--sample-discard"))) {
            config.sampling.window_discard_ops = parse_count(arg, v);
        } else if ((v = flag_value(argc, argv, i, "--sample-warmup"))) {
            config.sampling.warmup_ops = parse_count(arg, v);
        } else if ((v = flag_value(argc, argv, i, "--obs-interval"))) {
            config.telemetry.interval_ops = parse_count(arg, v);
        } else if ((v = flag_value(argc, argv, i, "--obs-extent-rows"))) {
            config.telemetry.extent_rows =
                static_cast<std::uint32_t>(parse_count(arg, v));
        } else if ((v = flag_value(argc, argv, i, "--obs-out"))) {
            config.telemetry.out_path = v;
            obs_out_seen = true;
        } else if ((v = flag_value(argc, argv, i, "--obs-metrics-out"))) {
            sinks.metrics_path = v;
        } else if (std::strcmp(arg, "--obs-phase") == 0) {
            config.detect_phases = true;
        } else if (std::strncmp(arg, "--obs-phase=", 12) == 0) {
            config.detect_phases = true;
            sinks.phase_path = arg + 12;
        } else if ((v = flag_value(argc, argv, i, "--trace-out"))) {
            sinks.trace_path = v;
        } else if ((v = flag_value(argc, argv, i, "--manifest"))) {
            sinks.manifest_path = v;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            usage_error("unknown flag or missing value", arg);
        } else if (budget_seen || !all_digits(arg)) {
            usage_error("unexpected argument (the op budget is one "
                        "all-digit token)",
                        arg);
        } else {
            config.run.op_budget = parse_count("op budget", arg);
            budget_seen = true;
        }
    }
    config.run.warmup_ops = config.run.op_budget / 4;
    if (config.telemetry.enabled() && !obs_out_seen)
        config.telemetry.out_path = "obs/";
    if (config.detect_phases && !config.telemetry.enabled()) {
        std::fprintf(stderr, "warning: --obs-phase needs "
                             "--obs-interval; phase detection off\n");
        config.detect_phases = false;
    }
    if (!sinks.trace_path.empty() && sinks.trace == nullptr)
        sinks.trace = std::make_unique<obs::TraceWriter>();
    config.trace = sinks.trace.get();
    if (sinks.trace != nullptr)
        sinks.trace->name_process(obs::TraceWriter::kHostPid,
                                  "harness (host time)");
    if (!sinks.metrics_path.empty() && sinks.metrics == nullptr) {
        sinks.metrics = std::make_unique<obs::MetricsRegistry>();
        sinks.metrics->set_snapshot_spill(sinks.metrics_path + ".dcx");
    }
    if (!sinks.flush_registered &&
        (sinks.trace != nullptr || sinks.metrics != nullptr ||
         !sinks.manifest_path.empty())) {
        std::atexit(&flush_obs_sinks);
        sinks.flush_registered = true;
    }

    // Every bench run carries its provenance: the effective config goes
    // into the shared manifest whether or not --manifest was given, so
    // benches can embed it into their committed JSON artifacts.
    obs::RunManifest& m = sinks.manifest;
    std::string cmdline = argv[0];
    for (int i = 1; i < argc; ++i)
        cmdline += std::string(" ") + argv[i];
    m.set("command_line", cmdline);
    m.set("op_budget", config.run.op_budget);
    m.set("warmup_ops", config.run.warmup_ops);
    m.set("jobs", static_cast<std::uint64_t>(config.jobs));
    m.set("seed", config.run.seed);
    m.set("sampling_enabled", config.sampling.enabled());
    if (config.sampling.enabled()) {
        m.set("sampling_ratio", config.sampling.ratio);
        m.set("sampling_window_ops", config.sampling.window_ops);
    }
    m.set("obs_interval_ops", config.telemetry.interval_ops);
    if (config.telemetry.enabled()) {
        m.set("obs_out", config.telemetry.out_path);
        m.set("obs_extent_rows",
              static_cast<std::uint64_t>(config.telemetry.extent_rows));
    }
    if (!sinks.trace_path.empty())
        m.set("trace_out", sinks.trace_path);
    if (!sinks.metrics_path.empty())
        m.set("obs_metrics_out", sinks.metrics_path);
    m.set("phase_detection", config.detect_phases);
    if (!sinks.phase_path.empty())
        m.set("obs_phase_out", sinks.phase_path);
    m.add_host_info();

    std::printf("op budget: %llu ops per workload",
                static_cast<unsigned long long>(config.run.op_budget));
    if (config.sampling.enabled()) {
        const sample::IntervalLayout resolved = sample::resolve_layout(
            config.sampling, config.run.op_budget, config.run.warmup_ops);
        std::printf("; sampling ratio %.3f, window %llu ops\n",
                    config.sampling.ratio,
                    static_cast<unsigned long long>(resolved.window_ops));
    }
    else
        std::printf("; exact (no sampling)\n");
    if (config.telemetry.enabled()) {
        if (config.sampling.enabled())
            std::printf("telemetry: ignored (sampled run decomposes "
                        "into windows already)\n");
        else
            std::printf(
                "telemetry: every %llu ops -> %s<workload>.telemetry."
                "{csv,json}\n",
                static_cast<unsigned long long>(
                    config.telemetry.interval_ops),
                config.telemetry.out_path.c_str());
    }
    return config;
}

/**
 * Export a suite's phase segmentation: stamps boundary totals into the
 * run manifest and, under --obs-phase=FILE, writes a
 * `{"signals": [...], "workloads": {name: segmentation}}` JSON
 * atomically. No-op for suites that ran without phase detection.
 */
inline void
stamp_phase_results(const core::SuiteResult& suite)
{
    const std::vector<std::string>& signals = core::phase_signal_names();
    std::uint64_t detected = 0;
    std::uint64_t boundaries = 0;
    std::string json = "{\n  \"signals\": [";
    for (std::size_t s = 0; s < signals.size(); ++s)
        json += (s > 0 ? ", \"" : "\"") + signals[s] + "\"";
    json += "],\n  \"workloads\": {\n";
    for (std::size_t i = 0; i < suite.runs.size(); ++i) {
        const std::shared_ptr<obs::PhaseDetector>& phases =
            suite.runs[i].phases;
        if (phases == nullptr)
            continue;
        if (detected > 0)
            json += ",\n";
        ++detected;
        boundaries += phases->phase_boundaries().size();
        json +=
            "    \"" + suite.names[i] + "\": " + phases->to_json(signals);
    }
    json += "\n  }\n}\n";
    if (detected == 0)
        return;
    manifest().set("phase_workloads", detected);
    manifest().set("phase_boundaries", boundaries);
    ObsSinks& sinks = obs_sinks();
    if (sinks.phase_path.empty())
        return;
    if (util::write_file_atomic(sinks.phase_path, json))
        std::printf("wrote %s (%llu workloads, %llu phase "
                    "boundaries)\n",
                    sinks.phase_path.c_str(),
                    static_cast<unsigned long long>(detected),
                    static_cast<unsigned long long>(boundaries));
    else
        std::fprintf(stderr, "error: cannot write %s\n",
                     sinks.phase_path.c_str());
}

/** Surface per-workload failures without aborting the bench. */
inline std::vector<cpu::CounterReport>
reports_or_warn(const core::SuiteResult& suite)
{
    for (std::size_t i = 0; i < suite.runs.size(); ++i) {
        if (!suite.runs[i].status.ok)
            std::fprintf(stderr, "warning: %s skipped: %s\n",
                         suite.names[i].c_str(),
                         suite.runs[i].status.error.c_str());
    }
    stamp_phase_results(suite);
    return suite.reports();
}

/** Run the full 26-workload suite in figure order. */
inline std::vector<cpu::CounterReport>
run_full_suite(const core::HarnessConfig& config)
{
    std::printf("running %zu workloads at %llu ops each "
                "(warmup %llu discarded)...\n\n",
                workloads::figure_order().size(),
                static_cast<unsigned long long>(config.run.op_budget),
                static_cast<unsigned long long>(config.run.warmup_ops));
    return reports_or_warn(
        core::run_suite(workloads::figure_order(), config));
}

/** Run only the eleven data-analysis workloads (Table I order). */
inline std::vector<cpu::CounterReport>
run_data_analysis_suite(const core::HarnessConfig& config)
{
    return reports_or_warn(core::run_suite(
        workloads::names_in_category(workloads::Category::kDataAnalysis),
        config));
}

/** Paper lookup for a metric field (negative if unavailable). */
template <typename Getter>
core::PaperGetter
paper_field(Getter getter)
{
    return [getter](const std::string& name) {
        const auto m = core::paper_metrics(name);
        return m ? getter(*m) : -1.0;
    };
}

/** Average of a measured metric over a category. */
inline double
category_average(const std::vector<cpu::CounterReport>& reports,
                 workloads::Category category,
                 const core::MetricGetter& metric)
{
    return core::class_average(reports,
                               workloads::names_in_category(category),
                               metric);
}

}  // namespace dcb::bench

#endif  // DCBENCH_BENCH_BENCH_COMMON_H_
