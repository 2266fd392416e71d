#ifndef DCBENCH_CORE_HARNESS_H_
#define DCBENCH_CORE_HARNESS_H_

/**
 * @file
 * The DCBench-Repro run harness: instantiates the Table III machine,
 * applies the paper's methodology (ramp-up discard, then exact
 * always-on counts of every event; perf-style multiplexing is not
 * modelled) and produces a CounterReport per workload.
 *
 * Runs are isolated: an unknown workload name or a workload that throws
 * mid-run is reported as a per-run RunStatus instead of aborting the
 * process, so a suite always returns the results it did collect.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/config.h"
#include "cpu/perf.h"
#include "mem/config.h"
#include "obs/phase.h"
#include "obs/time_series.h"
#include "obs/trace_writer.h"
#include "sample/plan.h"
#include "workloads/registry.h"

namespace dcb::core {

/** Everything configurable about a measured run. */
struct HarnessConfig
{
    workloads::RunConfig run{};
    cpu::CoreConfig core_config = cpu::westmere_core_config();
    mem::MemoryConfig memory_config = mem::westmere_memory_config();
    /**
     * Worker threads for run_suite (0 = one per hardware thread). Each
     * workload runs on its own fully private simulated machine, so a
     * parallel suite is bit-identical to a serial one; results are
     * returned in request order either way.
     */
    unsigned jobs = 1;
    /**
     * Interval-sampling plan. Disabled by default (ratio 0): the run is
     * exact and bit-identical to pre-sampling builds. When enabled the
     * run alternates functional fast-forward with detailed windows and
     * the report is extrapolated, with per-metric standard errors. A
     * plan warmup_ops of 0 borrows run.warmup_ops.
     */
    sample::SamplePlan sampling{};
    /**
     * Interval counter telemetry (perf stat -I analogue). Exact-mode
     * runs only: a sampled run already decomposes into measurement
     * windows, so the harness arms telemetry only when sampling is off.
     * Each run's recorder rides back on its RunResult; with a non-empty
     * out_path the harness also writes
     * `<out_path><workload>.telemetry.{csv,json}` per workload.
     */
    obs::TelemetryConfig telemetry{};
    /**
     * Optional trace-event collector, borrowed (one writer may span
     * many runs, benches and the cluster scheduler). When set, every
     * workload run becomes a host-time span on its own lane and the
     * core brackets its sampling segments. nullptr = no tracing, zero
     * cost.
     */
    obs::TraceWriter* trace = nullptr;
    /**
     * Online phase detection over the telemetry interval stream
     * (requires telemetry enabled; no effect otherwise). After each
     * run the harness feeds interval IPC, L3 MPKI and stall share into
     * a windowed mean-shift change-point detector (obs/phase.h); the
     * detector rides back on RunResult::phases and, when tracing is
     * armed, each phase becomes a span on the retired-op-index trace
     * process (TraceWriter::kPhasePid).
     */
    bool detect_phases = false;
    obs::PhaseConfig phase{};
};

/** Why a run produced no report. */
struct RunStatus
{
    bool ok = true;
    std::string error;  ///< empty when ok
};

/** One workload run: a report when ok, a diagnostic when not. */
struct RunResult
{
    cpu::CounterReport report;  ///< meaningful only when status.ok
    RunStatus status;
    /** Interval telemetry when enabled (exact mode), else null. */
    std::shared_ptr<obs::TimeSeriesRecorder> telemetry;
    /** Phase detector (finished) when detect_phases ran, else null.
        phase_boundaries() / phases() give the segmentation. */
    std::shared_ptr<obs::PhaseDetector> phases;
    double wall_seconds = 0.0;  ///< host wall time of this run
};

/** Results of a suite run, failures isolated per workload. */
struct SuiteResult
{
    std::vector<RunResult> runs;      ///< one per requested name
    std::vector<std::string> names;   ///< the requested names

    // Self-metrics: how the suite itself executed (run manifests and
    // bench JSON embed these).
    double wall_seconds = 0.0;       ///< whole-suite host wall time
    unsigned jobs_used = 1;          ///< resolved worker count
    std::uint64_t pool_tasks = 0;    ///< tasks run on the pool (0 = serial)
    double pool_busy_seconds = 0.0;  ///< summed in-task worker time
    /** Busy fraction of pool slots: busy / (jobs x wall); 0 = serial. */
    double pool_utilization = 0.0;
    /** Per-worker busy seconds (empty for serial runs): the spread
        across entries is the pool's load imbalance. */
    std::vector<double> worker_busy_seconds;
    /** util::warn messages issued during the suite (bounded ring). */
    std::vector<std::string> warnings;

    /** Reports of the successful runs, in request order. */
    std::vector<cpu::CounterReport> reports() const;
    std::size_t failure_count() const;
    bool all_ok() const { return failure_count() == 0; }
};

/** Observability artifacts of one run (outputs of run_workload). */
struct RunArtifacts
{
    std::shared_ptr<obs::TimeSeriesRecorder> telemetry;
    std::shared_ptr<obs::PhaseDetector> phases;
    double wall_seconds = 0.0;
};

/**
 * Run one workload instance on a fresh core. `run_index` labels the
 * run's trace lane (suite position); `artifacts` receives telemetry
 * and timing when non-null.
 */
cpu::CounterReport run_workload(workloads::Workload& workload,
                                const HarnessConfig& config,
                                RunArtifacts* artifacts = nullptr,
                                std::uint64_t run_index = 0);

/**
 * Construct by name and run. Unknown names are a recoverable error: the
 * result's status lists the valid registry names instead of aborting.
 */
RunResult run_workload(const std::string& name,
                       const HarnessConfig& config,
                       std::uint64_t run_index = 0);

/**
 * Run a list of workloads, one fresh core each. A workload that fails
 * does not abort the suite; its RunStatus carries the diagnostic and
 * the remaining workloads still run. With config.jobs != 1 the
 * workloads run on a thread pool; the result is bit-identical to the
 * serial run and ordered by request position.
 */
SuiteResult run_suite(const std::vector<std::string>& names,
                      const HarnessConfig& config);

/**
 * Names of the phase-detection signals the harness feeds, in detector
 * signal order (PhaseDetector::to_json wants them back).
 */
const std::vector<std::string>& phase_signal_names();

/** Default op budget used by the bench binaries. */
inline constexpr std::uint64_t kBenchOpBudget = 6'000'000;
/** Default warm-up discarded before measurement. */
inline constexpr std::uint64_t kBenchWarmupOps = 500'000;

/** HarnessConfig preset used by the figure benches. */
HarnessConfig bench_config();

}  // namespace dcb::core

#endif  // DCBENCH_CORE_HARNESS_H_
