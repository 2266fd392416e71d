#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

/**
 * @file
 * Shared types of the performance benchmark: run options, the report a
 * workload fills (metrics, output checks, operation counts) and the
 * timing helpers. The benchmark only observes the simulator through its
 * public entry points; nothing here changes a simulated result.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_writer.h"

namespace perfbench {

namespace obs = dcb::obs;
using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of a non-empty sample (copies; samples are small). */
double median(std::vector<double> values);

/**
 * Worker threads of the suite pool and of the untimed N-thread engine
 * runs: 4, or the host's hardware threads when it has fewer.
 */
unsigned worker_threads();

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Per-layer mode: spans around every call plus the layer probes. */
    bool trace = false;
    /** Stop after set-up (the runner repeats set-up to take a median). */
    bool setup_only = false;
    /** Where the traced run writes its spans ("" = not written). */
    std::string trace_out;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/**
 * What one run measured. An operation is one unit the workload submits
 * (a workload run of a suite, a job of a fleet) or one output check;
 * `failed` counts failed runs and jobs plus failed checks.
 */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void metric(const std::string& name, double value,
                const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record an output check; a failed one counts as a failed op. */
    void check(const std::string& name, bool ok,
               const std::string& detail = "");
    /**
     * Record the per-layer metrics of a layer this workload does not
     * use, at 0. A traced run then names every per-layer metric, and
     * one a workload fails to report is caught as missing.
     */
    void unused(const std::vector<Metric>& layer_metrics)
    {
        metrics.insert(metrics.end(), layer_metrics.begin(),
                       layer_metrics.end());
    }
};

/**
 * The per-layer metrics, at 0, that only the suites report, only the
 * sampled suite, only the clusters, and only the armed chaos workload.
 */
extern const std::vector<Metric> kSuiteLayerMetrics;
extern const std::vector<Metric> kSampleLayerMetrics;
extern const std::vector<Metric> kClusterLayerMetrics;
extern const std::vector<Metric> kObsLayerMetrics;

/**
 * A prepared workload. Preparation is the set-up the benchmark times
 * (everything before the first timed call); measure() runs the timed
 * loop for `seconds`, then the untimed output checks, and fills `out`.
 * `trace` is the span collector of a traced run, nullptr otherwise.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void measure(Report& out, obs::TraceWriter* trace) = 0;
    /** Input size as JSON members ("key": value, ...) for provenance. */
    virtual std::string inputs() const = 0;
};

/** suite_exact / suite_sampled: the 26 figure workloads (suite.cc). */
std::unique_ptr<Workload> make_suite_workload(const Options& options,
                                              bool sampled);

/** cluster_fleet / cluster_chaos_obs: the sharded fleet (cluster.cc). */
std::unique_ptr<Workload> make_cluster_workload(const Options& options,
                                                bool chaos);

/**
 * Repeat `call` (which returns the seconds it timed) until `seconds`
 * have elapsed and at least `min_reps` calls ran.
 */
template <typename Call>
std::vector<double>
timed_loop(double seconds, int min_reps, Call&& call)
{
    std::vector<double> times;
    const auto start = Clock::now();
    while (static_cast<int>(times.size()) < min_reps ||
           seconds_since(start) < seconds)
        times.push_back(call());
    return times;
}

/** Record a host-time span [start_us, now) on the benchmark's lane. */
void span(obs::TraceWriter* trace, const std::string& name,
          const std::string& layer, double start_us);

/**
 * Start a new peak-resident-set window, so each timed call gets its own
 * peak (no-op where the kernel cannot reset it; the peak then covers
 * the whole process).
 */
void reset_peak_rss();

/** Peak resident set in MiB since the last reset_peak_rss(). */
double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
