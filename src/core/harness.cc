#include "core/harness.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <exception>

#include "obs/extent.h"
#include "obs/json.h"
#include "sample/controller.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace dcb::core {

namespace {

/** Workload name as a filesystem-safe fragment. */
std::string
sanitize_for_path(const std::string& name)
{
    std::string out = name;
    for (char& c : out) {
        const auto u = static_cast<unsigned char>(c);
        if (!std::isalnum(u) && c != '-' && c != '.')
            c = '_';
    }
    return out;
}

/**
 * Interval rows a telemetry recorder buffers before sealing them as one
 * columnar extent of `<out_path><name>.telemetry.dcx`; runs shorter
 * than one extent never touch the spill file.
 */
constexpr std::uint32_t kTelemetryExtentRows = 4096;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

/** The three phase-detection signals derived per interval row. */
constexpr std::size_t kPhaseSignals = 3;
const char* const kPhaseSignalNames[kPhaseSignals] = {
    "interval_ipc", "l3_mpki", "stall_share"};

/** Column indices the phase signals are computed from. */
struct PhaseColumns
{
    int ipc = -1;
    int inst = -1;
    int l3_miss = -1;
    int cycles = -1;
    int stalls[6] = {-1, -1, -1, -1, -1, -1};

    bool ok() const
    {
        if (ipc < 0 || inst < 0 || l3_miss < 0 || cycles < 0)
            return false;
        for (const int s : stalls)
            if (s < 0)
                return false;
        return true;
    }
};

PhaseColumns
resolve_phase_columns(const obs::TimeSeriesRecorder& rec)
{
    PhaseColumns c;
    c.ipc = rec.column_index("interval_ipc");
    c.inst = rec.column_index("inst_retired");
    c.l3_miss = rec.column_index("l3_miss");
    c.cycles = rec.column_index("cycles");
    static const char* const kStallCols[6] = {
        "fetch_stall",     "rat_stall",     "load_buf_stall",
        "store_buf_stall", "rs_full_stall", "rob_full_stall"};
    for (int i = 0; i < 6; ++i)
        c.stalls[i] = rec.column_index(kStallCols[i]);
    return c;
}

void
phase_signals_from_row(const PhaseColumns& c, const obs::IntervalRow& row,
                       double out[kPhaseSignals])
{
    const double inst = row.values[static_cast<std::size_t>(c.inst)];
    const double cycles = row.values[static_cast<std::size_t>(c.cycles)];
    double stall = 0.0;
    for (const int s : c.stalls)
        stall += row.values[static_cast<std::size_t>(s)];
    out[0] = row.values[static_cast<std::size_t>(c.ipc)];
    out[1] = inst > 0.0
                 ? row.values[static_cast<std::size_t>(c.l3_miss)] /
                       (inst / 1000.0)
                 : 0.0;
    out[2] = cycles > 0.0 ? stall / cycles : 0.0;
}

/**
 * Run phase detection over a finalized telemetry recorder: IPC / L3
 * MPKI / stall share per interval through the windowed mean-shift
 * change-point test. On a spilled recorder the rows stream back from
 * the extent file (O(extent) memory). Emits one span per phase on the
 * retired-op-index trace process when tracing is armed.
 */
std::shared_ptr<obs::PhaseDetector>
detect_run_phases(obs::TimeSeriesRecorder& rec,
                  const obs::PhaseConfig& config,
                  obs::TraceWriter* trace, std::uint64_t run_index,
                  const std::string& name)
{
    const PhaseColumns cols = resolve_phase_columns(rec);
    if (!cols.ok()) {
        util::warn("obs", "phase detection skipped: telemetry columns "
                          "missing for " + name);
        return nullptr;
    }
    auto detector =
        std::make_shared<obs::PhaseDetector>(kPhaseSignals, config);
    // Interval -> op-index mapping kept for the trace spans (1 retired
    // op = 1 "us" on kPhasePid).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    const auto feed = [&](const obs::IntervalRow& row) {
        double sig[kPhaseSignals];
        phase_signals_from_row(cols, row, sig);
        detector->observe(sig);
        spans.emplace_back(row.first_op, row.op_count);
    };
    if (!rec.spilled()) {
        for (const obs::IntervalRow& row : rec.rows())
            feed(row);
    } else {
        obs::ExtentReader reader;
        if (!reader.open(rec.spill_path())) {
            util::warn("obs", "phase detection skipped: cannot reopen "
                              "telemetry spill " + rec.spill_path());
            return nullptr;
        }
        std::vector<obs::IntervalRow> batch;
        while (reader.next_extent(&batch))
            for (const obs::IntervalRow& row : batch)
                feed(row);
        if (!reader.error().empty()) {
            util::warn("obs", "phase detection skipped: telemetry "
                              "spill decode failed: " + reader.error());
            return nullptr;
        }
    }
    detector->finish();
    if (trace != nullptr && !spans.empty()) {
        trace->name_thread(obs::TraceWriter::kPhasePid, run_index, name);
        const std::vector<obs::Phase>& phases = detector->phases();
        for (std::size_t p = 0; p < phases.size(); ++p) {
            const obs::Phase& ph = phases[p];
            const std::uint64_t begin_op = spans[ph.begin].first;
            const auto& last = spans[ph.end - 1];
            const std::uint64_t end_op = last.first + last.second;
            std::string args = "{\"entry_score\": " +
                               obs::json_double(ph.entry_score);
            for (std::size_t s = 0; s < kPhaseSignals; ++s)
                args += ", \"" + std::string(kPhaseSignalNames[s]) +
                        "\": " + obs::json_double(ph.means[s]);
            args += "}";
            trace->complete("phase " + std::to_string(p), "phase",
                            obs::TraceWriter::kPhasePid, run_index,
                            static_cast<double>(begin_op),
                            static_cast<double>(end_op - begin_op),
                            args);
        }
    }
    return detector;
}

}  // namespace

std::vector<cpu::CounterReport>
SuiteResult::reports() const
{
    std::vector<cpu::CounterReport> out;
    out.reserve(runs.size());
    for (const RunResult& run : runs)
        if (run.status.ok)
            out.push_back(run.report);
    return out;
}

std::size_t
SuiteResult::failure_count() const
{
    std::size_t n = 0;
    for (const RunResult& run : runs)
        if (!run.status.ok)
            ++n;
    return n;
}

cpu::CounterReport
run_workload(workloads::Workload& workload, const HarnessConfig& config,
             RunArtifacts* artifacts, std::uint64_t run_index)
{
    const auto start = std::chrono::steady_clock::now();
    cpu::Core core(config.core_config, config.memory_config);
    // The sampled lead-in defaults to the exact-mode ramp-up discard so
    // both modes measure the same span of the op stream.
    const sample::SamplingController sampler(
        config.sampling, config.run.op_budget, config.run.warmup_ops);
    if (sampler.active()) {
        // The sampling schedule owns warmup: the ExecCtx fast-forwards
        // the lead-in and the core resets at sampling_warmup_done(), so
        // the op-count reset trigger must stay off.
        core.set_sample_layout(sampler.layout());
    } else if (config.run.warmup_ops > 0) {
        DCB_CONFIG_CHECK(config.run.warmup_ops < config.run.op_budget,
                         "warmup must be shorter than the op budget");
        core.set_counter_reset_at(config.run.warmup_ops);
    }
    const std::string& name = workload.info().name;
    std::shared_ptr<obs::TimeSeriesRecorder> recorder;
    if (config.telemetry.enabled() && !sampler.active()) {
        // Telemetry decomposes the exact measured stream; a sampled run
        // already decomposes into windows with its own error model.
        recorder = std::make_shared<obs::TimeSeriesRecorder>(
            cpu::Core::telemetry_columns(),
            cpu::Core::telemetry_additive());
        if (!config.telemetry.out_path.empty()) {
            // Bounded-memory mode: rows spill to columnar extents once
            // the buffer fills.
            recorder->enable_spill(config.telemetry.out_path +
                                       sanitize_for_path(name) +
                                       ".telemetry.dcx",
                                   kTelemetryExtentRows);
        }
        core.set_telemetry(recorder.get(), config.telemetry.interval_ops);
    }
    double span_start_us = 0.0;
    if (config.trace != nullptr) {
        core.set_trace(config.trace, run_index);
        config.trace->name_thread(obs::TraceWriter::kHostPid, run_index,
                                  name);
        span_start_us = config.trace->now_us();
    }
    workload.run(core, config.run);
    core.finish_observation();
    cpu::CounterReport report =
        sampler.active() ? sampler.make_report(name, core)
                         : cpu::make_report(name, core);
    if (config.trace != nullptr) {
        const double now_us = config.trace->now_us();
        config.trace->complete(
            name, "workload", obs::TraceWriter::kHostPid, run_index,
            span_start_us, now_us - span_start_us,
            "{\"instructions\": " + obs::json_double(report.instructions) +
                ", \"ipc\": " + obs::json_double(report.ipc) + "}");
    }
    std::shared_ptr<obs::PhaseDetector> phases;
    if (recorder != nullptr) {
        recorder->set_source(name, config.telemetry.interval_ops);
        if (!recorder->finalize_spill())
            util::warn("obs", "cannot commit telemetry spill " +
                                  recorder->spill_path());
        if (!config.telemetry.out_path.empty()) {
            const std::string base = config.telemetry.out_path +
                                     sanitize_for_path(name) +
                                     ".telemetry";
            if (!recorder->write_csv(base + ".csv"))
                util::warn("obs", "cannot write " + base + ".csv");
            if (!recorder->write_json(base + ".json"))
                util::warn("obs", "cannot write " + base + ".json");
        }
        if (config.detect_phases)
            phases = detect_run_phases(*recorder, config.phase,
                                       config.trace, run_index, name);
    }
    if (artifacts != nullptr) {
        artifacts->telemetry = std::move(recorder);
        artifacts->phases = std::move(phases);
        artifacts->wall_seconds = seconds_since(start);
    }
    return report;
}

RunResult
run_workload(const std::string& name, const HarnessConfig& config,
             std::uint64_t run_index)
{
    RunResult result;
    auto workload = workloads::make_workload(name);
    if (workload == nullptr) {
        result.status.ok = false;
        result.status.error = "unknown workload '" + name +
                              "'; valid names:";
        for (const std::string& valid : workloads::figure_order())
            result.status.error += " '" + valid + "'";
        return result;
    }
    try {
        RunArtifacts artifacts;
        result.report = run_workload(*workload, config, &artifacts,
                                     run_index);
        result.telemetry = std::move(artifacts.telemetry);
        result.phases = std::move(artifacts.phases);
        result.wall_seconds = artifacts.wall_seconds;
    } catch (const std::exception& e) {
        result.status.ok = false;
        result.status.error = "workload '" + name +
                              "' failed mid-run: " + e.what();
    }
    return result;
}

SuiteResult
run_suite(const std::vector<std::string>& names,
          const HarnessConfig& config)
{
    SuiteResult out;
    out.names = names;
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t warn_mark = util::warning_sequence();
    const unsigned jobs =
        std::min<std::size_t>(util::effective_thread_count(config.jobs),
                              std::max<std::size_t>(names.size(), 1));
    out.jobs_used = jobs;
    if (jobs <= 1 || names.size() <= 1) {
        out.runs.reserve(names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
            out.runs.push_back(run_workload(names[i], config, i));
        out.wall_seconds = seconds_since(start);
        out.warnings = util::warnings_since(warn_mark);
        return out;
    }
    // Each task simulates a fully private machine and writes only its
    // own result slot, so the parallel suite is bit-identical to the
    // serial one and already in request order.
    out.runs.resize(names.size());
    util::ThreadPool pool(jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.submit([&out, &names, &config, i] {
            try {
                out.runs[i] = run_workload(names[i], config, i);
            } catch (const std::exception& e) {
                // Keep the failure on its own slot; the suite goes on.
                out.runs[i].status.ok = false;
                out.runs[i].status.error = e.what();
            } catch (...) {
                out.runs[i].status.ok = false;
                out.runs[i].status.error = "workload '" + names[i] +
                                           "' failed mid-run with a "
                                           "non-standard exception";
            }
        });
    }
    pool.wait_idle();
    // Belt and suspenders: anything that still escaped a task (the pool
    // captures instead of std::terminate) fails the suite cleanly.
    if (const std::exception_ptr escaped = pool.first_exception()) {
        std::string what = "unknown exception";
        try {
            std::rethrow_exception(escaped);
        } catch (const std::exception& e) {
            what = e.what();
        } catch (...) {
        }
        for (RunResult& run : out.runs) {
            if (run.status.ok && run.report.workload.empty()) {
                run.status.ok = false;
                run.status.error =
                    "suite worker raised outside the run: " + what;
            }
        }
        util::warn("harness", "pool task threw: " + what);
    }
    out.wall_seconds = seconds_since(start);
    out.pool_tasks = pool.tasks_completed();
    out.pool_busy_seconds = pool.busy_seconds();
    if (out.wall_seconds > 0.0)
        out.pool_utilization = out.pool_busy_seconds /
                               (static_cast<double>(jobs) *
                                out.wall_seconds);
    for (const util::ThreadPool::WorkerStats& w : pool.worker_stats())
        out.worker_busy_seconds.push_back(w.busy_seconds);
    out.warnings = util::warnings_since(warn_mark);
    return out;
}

const std::vector<std::string>&
phase_signal_names()
{
    static const std::vector<std::string> names(
        kPhaseSignalNames, kPhaseSignalNames + kPhaseSignals);
    return names;
}

HarnessConfig
bench_config()
{
    HarnessConfig config;
    config.run.op_budget = kBenchOpBudget;
    config.run.warmup_ops = kBenchWarmupOps;
    return config;
}

}  // namespace dcb::core
