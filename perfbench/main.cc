/**
 * @file
 * Benchmark driver: prepares one named workload (the timed set-up), runs
 * its timed loop and output checks, and prints one line per fact:
 *
 *   # provenance {...}          host, build and input facts
 *   SETUP <seconds>             process start to the first timed call
 *   METRIC <name> <value> <unit>
 *   CHECK <pass|FAIL> <name>[: detail]
 *   OPS <attempted> <failed>
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--t0-ns NS] [--setup-only] [--trace-out FILE]
 *
 * --t0-ns is CLOCK_MONOTONIC (steady_clock) when the caller spawned the
 * process, so set-up includes exec, loading and static initialisation.
 * Exits 0 when every check passed, 1 when one failed, 2 on bad usage or
 * a sanitizer build (whose timings would be meaningless).
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "perfbench.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"suite_exact", "suite_sampled",
                                  "cluster_fleet", "cluster_chaos_obs"};

std::string
compiler()
{
#if defined(__clang__)
    return "clang " + std::to_string(__clang_major__) + "." +
           std::to_string(__clang_minor__);
#elif defined(__GNUC__)
    return "gcc " + std::to_string(__GNUC__) + "." +
           std::to_string(__GNUC_MINOR__);
#else
    return "unknown";
#endif
}

std::unique_ptr<Workload>
prepare(const Options& options)
{
    if (options.workload == "suite_exact")
        return make_suite_workload(options, false);
    if (options.workload == "suite_sampled")
        return make_suite_workload(options, true);
    if (options.workload == "cluster_fleet")
        return make_cluster_workload(options, false);
    if (options.workload == "cluster_chaos_obs")
        return make_cluster_workload(options, true);
    return nullptr;
}

int
usage(const char* why)
{
    std::fprintf(stderr, "perfbench: %s\nworkloads:", why);
    for (const char* w : kWorkloads)
        std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto main_start = Clock::now();
#ifdef PERFBENCH_SANITIZED
    return usage("refusing to time a sanitizer build");
#endif
    Options options;
    std::int64_t t0_ns = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            options.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            options.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && has_value)
            options.trace = std::strcmp(argv[++i], "0") != 0;
        else if (arg == "--t0-ns" && has_value)
            t0_ns = std::strtoll(argv[++i], nullptr, 10);
        else if (arg == "--trace-out" && has_value)
            options.trace_out = argv[++i];
        else if (arg == "--setup-only")
            options.setup_only = true;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");

    std::unique_ptr<Workload> workload = prepare(options);
    if (workload == nullptr)
        return usage(("unknown workload '" + options.workload + "'").c_str());
    const auto ready = Clock::now();
    const std::int64_t ready_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            ready.time_since_epoch())
            .count();
    const double setup_s = t0_ns >= 0 ? 1e-9 * static_cast<double>(
                                                   ready_ns - t0_ns)
                                      : seconds_since(main_start);
    std::printf("SETUP %.9f\n", setup_s);
    if (options.setup_only)
        return 0;

    std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %ld, "
                "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
                "\"ndebug\": %s, \"compiler\": \"%s\", \"seconds\": %g, "
                "\"trace\": %s, %s}\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                "true",
#else
                "false",
#endif
                compiler().c_str(), options.seconds,
                options.trace ? "true" : "false", workload->inputs().c_str());
    std::fflush(stdout);

    std::unique_ptr<obs::TraceWriter> trace;
    if (options.trace)
        trace = std::make_unique<obs::TraceWriter>();
    const double run_start_us = trace != nullptr ? trace->now_us() : 0.0;
    Report report;
    workload->measure(report, trace.get());
    span(trace.get(), options.workload, "run", run_start_us);

    for (const Metric& m : report.metrics)
        std::printf("METRIC %s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    bool all_ok = true;
    for (const Check& c : report.checks) {
        all_ok = all_ok && c.ok;
        std::printf("CHECK %s %s%s%s\n", c.ok ? "pass" : "FAIL",
                    c.name.c_str(), c.detail.empty() ? "" : ": ",
                    c.detail.c_str());
    }
    std::printf("OPS %llu %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    if (trace != nullptr && !options.trace_out.empty() &&
        !trace->write(options.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     options.trace_out.c_str());
        return 1;
    }
    return all_ok ? 0 : 1;
}
