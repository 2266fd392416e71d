#include "perfbench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

const std::vector<Metric> kSuiteLayerMetrics = {
    {"workloads.da_s", 0.0, "s"},
    {"workloads.service_s", 0.0, "s"},
    {"workloads.spec_s", 0.0, "s"},
    {"workloads.hpcc_s", 0.0, "s"},
    {"workloads.max_run_s", 0.0, "s"},
    {"core.pool_utilization", 0.0, "frac"},
    {"core.pool_imbalance", 0.0, "ratio"},
    {"sim.ops", 0.0, "count"},
    {"sim.cycles", 0.0, "count"},
    {"datagen.ns_per_op", 0.0, "ns"},
    {"trace.emit_ns_per_op", 0.0, "ns"},
    {"cpu.ns_per_op", 0.0, "ns"},
    {"cpu.warm_ns_per_op", 0.0, "ns"},
    {"mem.ns_per_access", 0.0, "ns"},
    {"ledger.residual_frac", 0.0, "frac"},
};

const std::vector<Metric> kSampleLayerMetrics = {
    {"sample.windows", 0.0, "count"},
    {"sample.detailed_frac", 0.0, "frac"},
    {"sample.ipc_stderr_max", 0.0, "frac"},
    {"sample.ipc_err", 0.0, "frac"},
    {"sample.stall_err", 0.0, "frac"},
};

const std::vector<Metric> kClusterLayerMetrics = {
    {"mapreduce.events", 0.0, "count"},
    {"mapreduce.epochs", 0.0, "count"},
    {"mapreduce.messages", 0.0, "count"},
    {"mapreduce.shard_busy_s", 0.0, "s"},
    {"mapreduce.steals", 0.0, "count"},
    {"mapreduce.serial_ref_s", 0.0, "s"},
    {"mapreduce.coordinator_s", 0.0, "s"},
    {"mapreduce.amdahl_bound", 0.0, "ratio"},
    {"mapreduce.sharded_speedup", 0.0, "ratio"},
    {"mapreduce.wasted_frac", 0.0, "frac"},
    {"fault.log_entries", 0.0, "count"},
    {"obs.sketch_tuples", 0.0, "count"},
};

const std::vector<Metric> kObsLayerMetrics = {
    {"obs.trace_events", 0.0, "count"},
    {"obs.metrics_series", 0.0, "count"},
    {"obs.snapshots", 0.0, "count"},
    {"obs.armed_overhead_frac", 0.0, "frac"},
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

unsigned
worker_threads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

void
Report::check(const std::string& name, bool ok, const std::string& detail)
{
    checks.push_back({name, ok, detail});
    ++attempted;
    if (!ok)
        ++failed;
}

void
span(obs::TraceWriter* trace, const std::string& name,
     const std::string& layer, double start_us)
{
    if (trace == nullptr)
        return;
    trace->complete(name, layer, obs::TraceWriter::kHostPid, 0, start_us,
                    trace->now_us() - start_us);
}

void
reset_peak_rss()
{
    // Return freed heap to the kernel first, so the window starts at the
    // live set rather than at whatever earlier calls left cached.
    malloc_trim(0);
    // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double
peak_rss_mb()
{
    double kib = 0.0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
                break;
        std::fclose(f);
    }
    struct rusage usage;
    if (kib == 0.0 && getrusage(RUSAGE_SELF, &usage) == 0)
        kib = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
    return kib / 1024.0;
}

}  // namespace perfbench
