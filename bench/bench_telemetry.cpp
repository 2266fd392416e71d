/**
 * @file
 * Telemetry-pipeline microbenchmark and CI guard: measures the columnar
 * extent codec and the GK quantile sketch, and gates the invariants the
 * streaming telemetry store promises.
 *
 *  1. Encode throughput + compression: a synthetic 5-column recorder is
 *     streamed through the extent spill path at --rows rows; reports
 *     rows/sec, encoded vs raw bytes and the compression ratio.
 *  2. Sum parity: after spilling, every additive column's recorder sum
 *     must bit-equal the reference running sum kept by the generator.
 *  3. Streamed-vs-in-memory byte identity: one real workload runs twice
 *     with interval telemetry armed -- extent_rows=0 (everything in
 *     memory) vs a small extent -- and the exported CSV/JSON files must
 *     be byte-identical, with the streamed run's peak buffer bounded by
 *     one extent.
 *  4. Sketch accuracy: >=1M lognormal samples, sketch percentiles vs
 *     exact sorted-sample percentiles, rank error gated at epsilon.
 *  5. Sketch merge determinism: two independent constructions of the
 *     same 8-shard merge must produce byte-identical dump() text, and
 *     the merged sketch must honor its widened epsilon.
 *  6. Observability overhead: the serial 26-workload suite at a fixed
 *     300k ops (no warm-up), plain vs armed with interval telemetry
 *     every 3k ops plus a TraceWriter, as 5 adjacent pairs that
 *     alternate which side runs first. Every pair's reports must be
 *     bit-identical, and median armed / median plain - 1 must stay
 *     within 0.10.
 *
 * Writes BENCH_telemetry.json (atomic) with every number plus the run
 * manifest; exits nonzero when any gate fails, so CI can run it as-is.
 *
 * Usage: ./bench_telemetry [--ops N] [--rows N] [--sketch-samples N]
 *                          [--workload NAME] [--manifest FILE]
 * --ops sizes gate 3 only. An unknown flag or a malformed count exits 2
 * naming it.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/extent.h"
#include "obs/quantile.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace {

using namespace dcb;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Whole file as a string; ok=false when it cannot be read. */
std::string
slurp(const std::string& path, bool* ok)
{
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        *ok = false;
        return out;
    }
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    *ok = true;
    return out;
}

/** Rank error of `value` at rank fraction `phi` against sorted data. */
double
rank_error(const std::vector<double>& sorted, double phi, double value)
{
    const double n = static_cast<double>(sorted.size());
    const double target = std::ceil(phi * n);
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), value);
    const double lo_rank = static_cast<double>(lo - sorted.begin()) + 1.0;
    const double hi_rank = static_cast<double>(hi - sorted.begin());
    if (target < lo_rank)
        return (lo_rank - target) / n;
    if (target > hi_rank)
        return (target - hi_rank) / n;
    return 0.0;
}

/** The streamed run's extent size: small enough that the default 2M-op
    workload run crosses many extent boundaries. */
constexpr std::uint32_t kStreamExtentRows = 256;

/** Gate 6: per-workload budget, plain/armed pairs and overhead bound. */
constexpr std::uint64_t kObsOps = 300'000;
constexpr int kObsPairs = 5;
constexpr double kObsMaxOverhead = 0.10;

/** True when two suites ran the same workloads to bit-identical reports
    (op and cycle totals plus every figure metric). */
bool
suites_identical(const core::SuiteResult& a, const core::SuiteResult& b)
{
    if (a.runs.size() != b.runs.size())
        return false;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        const cpu::CounterReport& x = a.runs[i].report;
        const cpu::CounterReport& y = b.runs[i].report;
        if (a.runs[i].status.ok != b.runs[i].status.ok ||
            x.workload != y.workload || x.instructions != y.instructions ||
            x.cycles != y.cycles)
            return false;
        for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
            const auto metric = static_cast<cpu::ReportMetric>(m);
            if (cpu::report_metric(x, metric) !=
                cpu::report_metric(y, metric))
                return false;
        }
    }
    return true;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::uint64_t encode_rows = 1'000'000;
    std::uint64_t sketch_samples = 1'500'000;
    std::string workload_name = "Sort";
    std::vector<char*> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const char* v = nullptr;
        if ((v = bench::flag_value(argc, argv, i, "--rows")))
            encode_rows = bench::parse_count(arg, v);
        else if ((v = bench::flag_value(argc, argv, i, "--sketch-samples")))
            sketch_samples = bench::parse_count(arg, v);
        else if ((v = bench::flag_value(argc, argv, i, "--workload")))
            workload_name = v;
        else
            pass.push_back(argv[i]);  // shared flags; rejects the rest
    }
    core::HarnessConfig config = bench::config_from_args(
        static_cast<int>(pass.size()), pass.data());
    bool all_ok = true;

    // --- 1+2: synthetic encode throughput, compression, sum parity ---
    const std::vector<std::string> cols = {"instructions", "cycles",
                                           "l2_misses", "ipc",
                                           "rob_occupancy"};
    const std::vector<bool> additive = {true, true, true, false, false};
    obs::TimeSeriesRecorder rec(cols, additive);
    const std::string scratch = "bench_telemetry_scratch.telemetry.dcx";
    rec.enable_spill(scratch, 4096);

    util::Rng rng(42);
    // Reference running sums, accumulated left-to-right exactly like
    // the recorder does -- the bit-parity baseline.
    std::vector<double> ref_sums(cols.size(), 0.0);
    double cum_instr = 0.0;
    double cum_cycles = 0.0;
    double cum_l2 = 0.0;
    const auto encode_start = Clock::now();
    for (std::uint64_t i = 0; i < encode_rows; ++i) {
        double v[5];
        // Counters mimic real interval telemetry: near-constant
        // instruction deltas, fractional cycle accumulators, bursty
        // miss counts.
        const double instr = 10000.0;
        const double cycles = 6000.0 + 250.0 * rng.next_gaussian() +
                              0.125 * static_cast<double>(i % 8);
        const double l2 = std::floor(rng.next_exponential(1.0 / 40.0));
        v[0] = obs::TimeSeriesRecorder::fit_delta(cum_instr,
                                                  cum_instr + instr);
        v[1] = obs::TimeSeriesRecorder::fit_delta(cum_cycles,
                                                  cum_cycles + cycles);
        v[2] = obs::TimeSeriesRecorder::fit_delta(cum_l2, cum_l2 + l2);
        v[3] = v[1] > 0.0 ? v[0] / v[1] : 0.0;
        v[4] = 80.0 + 20.0 * rng.next_double();
        cum_instr += v[0];
        cum_cycles += v[1];
        cum_l2 += v[2];
        for (std::size_t c = 0; c < 5; ++c)
            ref_sums[c] += v[c];
        rec.add_row(i * 10000, 10000, v);
    }
    if (!rec.finalize_spill()) {
        std::fprintf(stderr, "FAIL: cannot commit %s\n", scratch.c_str());
        all_ok = false;
    }
    const double encode_seconds = seconds_since(encode_start);
    const double rows_per_sec =
        encode_seconds > 0.0
            ? static_cast<double>(encode_rows) / encode_seconds
            : 0.0;
    const std::uint64_t encoded = rec.spill_encoded_bytes();
    const std::uint64_t raw = rec.spill_raw_bytes();
    const double compression =
        encoded > 0 ? static_cast<double>(raw) /
                          static_cast<double>(encoded)
                    : 0.0;
    std::printf("encode: %llu rows x %zu cols in %.3f s "
                "(%.0f rows/s), %llu -> %llu bytes (%.2fx)\n",
                static_cast<unsigned long long>(encode_rows), cols.size(),
                encode_seconds, rows_per_sec,
                static_cast<unsigned long long>(raw),
                static_cast<unsigned long long>(encoded), compression);

    bool sum_parity = true;
    for (std::size_t c = 0; c < cols.size(); ++c) {
        if (!additive[c])
            continue;
        if (rec.sum(c) != ref_sums[c]) {
            std::fprintf(stderr,
                         "FAIL: column %s sum %.17g != reference %.17g\n",
                         cols[c].c_str(), rec.sum(c), ref_sums[c]);
            sum_parity = false;
        }
    }
    const std::uint64_t spilled_peak = rec.peak_buffered_rows();
    std::printf("sum parity (spilled vs reference): %s; "
                "peak buffer %llu rows\n",
                sum_parity ? "exact" : "BROKEN",
                static_cast<unsigned long long>(spilled_peak));
    if (!sum_parity || spilled_peak > 4096)
        all_ok = false;
    if (compression <= 1.0) {
        std::fprintf(stderr, "FAIL: compression ratio %.2f not > 1\n",
                     compression);
        all_ok = false;
    }
    std::remove(scratch.c_str());

    // --- 3: real workload, streamed vs in-memory byte identity -------
    const std::uint64_t interval =
        std::max<std::uint64_t>(config.run.op_budget / 2000, 500);
    core::HarnessConfig exact_cfg = config;
    exact_cfg.jobs = 1;
    exact_cfg.telemetry.interval_ops = interval;
    exact_cfg.telemetry.out_path = "obs_telemetry_exact/";
    exact_cfg.telemetry.extent_rows = 0;  // whole series in memory
    core::HarnessConfig stream_cfg = exact_cfg;
    stream_cfg.telemetry.out_path = "obs_telemetry_stream/";
    stream_cfg.telemetry.extent_rows = kStreamExtentRows;

    std::printf("\nworkload %s, %llu ops, telemetry every %llu ops: ",
                workload_name.c_str(),
                static_cast<unsigned long long>(config.run.op_budget),
                static_cast<unsigned long long>(interval));
    const core::RunResult exact_run =
        core::run_workload(workload_name, exact_cfg);
    const core::RunResult stream_run =
        core::run_workload(workload_name, stream_cfg);
    bool csv_identical = false;
    bool json_identical = false;
    std::uint64_t stream_rows = 0;
    std::uint64_t stream_peak_rows = 0;
    std::uint64_t exact_peak_bytes = 0;
    std::uint64_t stream_peak_bytes = 0;
    std::uint64_t stream_encoded = 0;
    std::uint64_t stream_raw = 0;
    if (!exact_run.status.ok || !stream_run.status.ok) {
        std::fprintf(stderr, "FAIL: workload run failed: %s\n",
                     (!exact_run.status.ok ? exact_run : stream_run)
                         .status.error.c_str());
        all_ok = false;
    } else {
        const std::string base = workload_name + ".telemetry.";
        bool ok_a = false;
        bool ok_b = false;
        csv_identical =
            slurp("obs_telemetry_exact/" + base + "csv", &ok_a) ==
                slurp("obs_telemetry_stream/" + base + "csv", &ok_b) &&
            ok_a && ok_b;
        json_identical =
            slurp("obs_telemetry_exact/" + base + "json", &ok_a) ==
                slurp("obs_telemetry_stream/" + base + "json", &ok_b) &&
            ok_a && ok_b;
        stream_rows = stream_run.telemetry->total_rows();
        stream_peak_rows = stream_run.telemetry->peak_buffered_rows();
        exact_peak_bytes = exact_run.telemetry->peak_buffered_bytes();
        stream_peak_bytes = stream_run.telemetry->peak_buffered_bytes();
        stream_encoded = stream_run.telemetry->spill_encoded_bytes();
        stream_raw = stream_run.telemetry->spill_raw_bytes();
        std::printf("%llu rows, %llu extents' worth spilled\n",
                    static_cast<unsigned long long>(stream_rows),
                    static_cast<unsigned long long>(
                        stream_rows / kStreamExtentRows));
        std::printf("  csv byte-identical: %s, json byte-identical: %s\n",
                    csv_identical ? "yes" : "NO -- BUG",
                    json_identical ? "yes" : "NO -- BUG");
        std::printf("  peak recorder buffer: %llu rows (%llu bytes) "
                    "streamed vs %llu bytes in-memory\n",
                    static_cast<unsigned long long>(stream_peak_rows),
                    static_cast<unsigned long long>(stream_peak_bytes),
                    static_cast<unsigned long long>(exact_peak_bytes));
        if (!csv_identical || !json_identical)
            all_ok = false;
        if (stream_run.telemetry->spilled() &&
            stream_peak_rows > kStreamExtentRows) {
            std::fprintf(stderr,
                         "FAIL: streamed peak %llu rows exceeds one "
                         "extent (%u)\n",
                         static_cast<unsigned long long>(stream_peak_rows),
                         kStreamExtentRows);
            all_ok = false;
        }
        if (stream_rows > kStreamExtentRows &&
            !stream_run.telemetry->spilled()) {
            std::fprintf(stderr, "FAIL: long run never spilled\n");
            all_ok = false;
        }
    }

    // --- 4: sketch accuracy against exact percentiles -----------------
    const double eps = obs::QuantileSketch::kDefaultEpsilon;
    obs::QuantileSketch sketch(eps);
    std::vector<double> samples;
    samples.reserve(sketch_samples);
    util::Rng srng(7);
    const auto sketch_start = Clock::now();
    for (std::uint64_t i = 0; i < sketch_samples; ++i) {
        const double v = std::exp(0.8 * srng.next_gaussian());
        sketch.insert(v);
        samples.push_back(v);
    }
    const double sketch_seconds = seconds_since(sketch_start);
    std::sort(samples.begin(), samples.end());
    const double phis[] = {0.5, 0.95, 0.99, 0.999};
    double errors[4];
    double exact_vals[4];
    double sketch_vals[4];
    double max_error = 0.0;
    for (int p = 0; p < 4; ++p) {
        const std::size_t idx = std::min(
            samples.size() - 1,
            static_cast<std::size_t>(
                std::ceil(phis[p] * static_cast<double>(samples.size()))) -
                1);
        exact_vals[p] = samples[idx];
        sketch_vals[p] = sketch.query(phis[p]);
        errors[p] = rank_error(samples, phis[p], sketch_vals[p]);
        max_error = std::max(max_error, errors[p]);
    }
    const double slack = 1.0 / static_cast<double>(sketch_samples);
    std::printf("\nsketch: %llu inserts in %.3f s (%.0f/s), %zu tuples "
                "kept (%.5f%% of samples)\n",
                static_cast<unsigned long long>(sketch_samples),
                sketch_seconds,
                static_cast<double>(sketch_samples) / sketch_seconds,
                sketch.tuples().size(),
                100.0 * static_cast<double>(sketch.tuples().size()) /
                    static_cast<double>(sketch_samples));
    for (int p = 0; p < 4; ++p)
        std::printf("  p%-5g exact %.6f sketch %.6f rank-error %.5f\n",
                    100.0 * phis[p], exact_vals[p], sketch_vals[p],
                    errors[p]);
    if (max_error > eps + slack) {
        std::fprintf(stderr,
                     "FAIL: sketch rank error %.5f above epsilon %.3f\n",
                     max_error, eps);
        all_ok = false;
    }

    // --- 5: sharded merge determinism ---------------------------------
    constexpr std::size_t kShards = 8;
    const auto build_merged = [&] {
        obs::QuantileSketch merged(eps / 2.0);
        for (std::size_t s = 0; s < kShards; ++s) {
            obs::QuantileSketch shard(eps / 2.0);
            util::Rng mrng(100 + s);
            for (std::uint64_t i = 0; i < sketch_samples / kShards; ++i)
                shard.insert(std::exp(0.8 * mrng.next_gaussian()));
            merged.merge(shard);
        }
        return merged;
    };
    const obs::QuantileSketch merged_a = build_merged();
    const obs::QuantileSketch merged_b = build_merged();
    const bool merge_identical = merged_a.dump() == merged_b.dump();
    std::printf("sharded merge (%zu shards at eps/2): byte-identical %s, "
                "merged epsilon %.4f, %zu tuples\n",
                kShards, merge_identical ? "yes" : "NO -- BUG",
                merged_a.epsilon(), merged_a.tuples().size());
    if (!merge_identical)
        all_ok = false;

    // --- 6: armed observability overhead on the serial suite ----------
    // Telemetry recorders stay in memory (no out_path). Adjacent pairs
    // that alternate the leading side let host drift hit both alike.
    core::HarnessConfig plain_cfg = core::bench_config();
    plain_cfg.run.op_budget = kObsOps;
    plain_cfg.run.warmup_ops = 0;
    plain_cfg.jobs = 1;
    const std::vector<std::string> names = workloads::figure_order();
    std::vector<double> plain_s;
    std::vector<double> armed_s;
    bool obs_identical = true;
    for (int pair = 0; pair < kObsPairs; ++pair) {
        obs::TraceWriter trace;
        core::HarnessConfig armed_cfg = plain_cfg;
        armed_cfg.telemetry.interval_ops = kObsOps / 100;
        armed_cfg.trace = &trace;
        core::SuiteResult suites[2];  // [0] plain, [1] armed
        for (int side = 0; side < 2; ++side) {
            const int armed = side ^ (pair % 2);
            const auto start = Clock::now();
            suites[armed] =
                core::run_suite(names, armed ? armed_cfg : plain_cfg);
            (armed ? armed_s : plain_s).push_back(seconds_since(start));
        }
        obs_identical =
            obs_identical && suites_identical(suites[0], suites[1]);
    }
    const double obs_overhead = median(armed_s) / median(plain_s) - 1.0;
    std::printf("\nobservability: %zu-workload serial suite at %llu ops, "
                "%d pairs: median %.3f s plain, %.3f s armed (%+.1f%%); "
                "reports bit-identical: %s\n",
                names.size(), static_cast<unsigned long long>(kObsOps),
                kObsPairs, median(plain_s), median(armed_s),
                100.0 * obs_overhead, obs_identical ? "yes" : "NO -- BUG");
    if (!obs_identical)
        all_ok = false;
    if (obs_overhead > kObsMaxOverhead) {
        std::fprintf(stderr,
                     "FAIL: observability overhead %.1f%% above allowed "
                     "%.1f%%\n",
                     100.0 * obs_overhead, 100.0 * kObsMaxOverhead);
        all_ok = false;
    }

    // --- JSON artifact -------------------------------------------------
    const char* json_path = "BENCH_telemetry.json";
    std::string temp;
    if (std::FILE* f = util::open_file_atomic(json_path, &temp)) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"encode_rows\": %llu,\n",
                     static_cast<unsigned long long>(encode_rows));
        std::fprintf(f, "  \"encode_columns\": %zu,\n", cols.size());
        std::fprintf(f, "  \"encode_seconds\": %.6f,\n", encode_seconds);
        std::fprintf(f, "  \"encode_rows_per_sec\": %.0f,\n", rows_per_sec);
        std::fprintf(f, "  \"encode_raw_bytes\": %llu,\n",
                     static_cast<unsigned long long>(raw));
        std::fprintf(f, "  \"encode_encoded_bytes\": %llu,\n",
                     static_cast<unsigned long long>(encoded));
        std::fprintf(f, "  \"compression_ratio\": %.4f,\n", compression);
        std::fprintf(f, "  \"sum_parity\": %s,\n",
                     sum_parity ? "true" : "false");
        std::fprintf(f, "  \"workload\": \"%s\",\n", workload_name.c_str());
        std::fprintf(f, "  \"workload_ops\": %llu,\n",
                     static_cast<unsigned long long>(config.run.op_budget));
        std::fprintf(f, "  \"interval_ops\": %llu,\n",
                     static_cast<unsigned long long>(interval));
        std::fprintf(f, "  \"stream_extent_rows\": %u,\n",
                     kStreamExtentRows);
        std::fprintf(f, "  \"stream_rows\": %llu,\n",
                     static_cast<unsigned long long>(stream_rows));
        std::fprintf(f, "  \"csv_identical\": %s,\n",
                     csv_identical ? "true" : "false");
        std::fprintf(f, "  \"json_identical\": %s,\n",
                     json_identical ? "true" : "false");
        std::fprintf(f, "  \"stream_peak_buffered_rows\": %llu,\n",
                     static_cast<unsigned long long>(stream_peak_rows));
        std::fprintf(f, "  \"stream_peak_buffered_bytes\": %llu,\n",
                     static_cast<unsigned long long>(stream_peak_bytes));
        std::fprintf(f, "  \"exact_peak_buffered_bytes\": %llu,\n",
                     static_cast<unsigned long long>(exact_peak_bytes));
        std::fprintf(f, "  \"stream_spill_encoded_bytes\": %llu,\n",
                     static_cast<unsigned long long>(stream_encoded));
        std::fprintf(f, "  \"stream_spill_raw_bytes\": %llu,\n",
                     static_cast<unsigned long long>(stream_raw));
        std::fprintf(f, "  \"sketch\": {\n");
        std::fprintf(f, "    \"samples\": %llu,\n",
                     static_cast<unsigned long long>(sketch_samples));
        std::fprintf(f, "    \"epsilon\": %.6f,\n", eps);
        std::fprintf(f, "    \"seconds\": %.6f,\n", sketch_seconds);
        std::fprintf(f, "    \"tuples\": %zu,\n", sketch.tuples().size());
        std::fprintf(f, "    \"percentiles\": [\n");
        for (int p = 0; p < 4; ++p)
            std::fprintf(f,
                         "      {\"phi\": %g, \"exact\": %.17g, "
                         "\"value\": %.17g, \"rank_error\": %.6f}%s\n",
                         phis[p], exact_vals[p], sketch_vals[p], errors[p],
                         p + 1 < 4 ? "," : "");
        std::fprintf(f, "    ],\n");
        std::fprintf(f, "    \"max_rank_error\": %.6f,\n", max_error);
        std::fprintf(f, "    \"merge_identical\": %s,\n",
                     merge_identical ? "true" : "false");
        std::fprintf(f, "    \"merged_epsilon\": %.6f\n",
                     merged_a.epsilon());
        std::fprintf(f, "  },\n");
        std::fprintf(f, "  \"obs_suite_ops\": %llu,\n",
                     static_cast<unsigned long long>(kObsOps));
        std::fprintf(f, "  \"obs_plain_seconds\": %.6f,\n",
                     median(plain_s));
        std::fprintf(f, "  \"obs_armed_seconds\": %.6f,\n",
                     median(armed_s));
        std::fprintf(f, "  \"obs_overhead\": %.4f,\n", obs_overhead);
        std::fprintf(f, "  \"obs_bit_identical\": %s,\n",
                     obs_identical ? "true" : "false");
        std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
                     static_cast<unsigned long long>(
                         bench::peak_rss_bytes()));
        std::fprintf(f, "  \"all_ok\": %s,\n", all_ok ? "true" : "false");
        std::fprintf(f, "  \"manifest\": %s\n",
                     bench::manifest().json_fragment(2).c_str());
        std::fprintf(f, "}\n");
        if (!util::commit_file_atomic(f, temp, json_path)) {
            std::fprintf(stderr, "error: cannot write %s\n", json_path);
            return 1;
        }
        std::printf("\nwrote %s\n", json_path);
    } else {
        std::fprintf(stderr, "error: cannot write %s\n", json_path);
        return 1;
    }
    if (!all_ok)
        std::fprintf(stderr, "FAIL: telemetry gates violated\n");
    return all_ok ? 0 : 1;
}
