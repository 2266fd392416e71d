#ifndef DCBENCH_WORKLOADS_WORKLOAD_H_
#define DCBENCH_WORKLOADS_WORKLOAD_H_

/**
 * @file
 * The benchmark-workload interface: everything the harness can run on a
 * simulated core, spanning the paper's four workload classes (data
 * analysis, service, SPEC CPU2006, HPCC).
 */

#include <cstdint>
#include <string>

#include "cpu/core.h"
#include "mapreduce/cluster.h"

namespace dcb::workloads {

/** The paper's workload classes. */
enum class Category : std::uint8_t {
    kDataAnalysis,  ///< the eleven Table I workloads
    kService,       ///< CloudSuite services + SPECweb2005
    kSpecCpu,       ///< SPECINT / SPECFP group models
    kHpcc,          ///< HPCC 1.4 micro-kernels
};

const char* category_name(Category c);

/** Static description of a workload. */
struct WorkloadInfo
{
    std::string name;
    Category category = Category::kDataAnalysis;
    /** Provenance, mirroring Table I's Source column ("Hadoop example",
        "mahout", ...) or "model:" for behavioural baselines. */
    std::string source;
    /** Table I input size (GB); 0 when not applicable. */
    double paper_input_gb = 0.0;
    /** Table I retired instructions (billions); 0 when not applicable. */
    double paper_instructions_g = 0.0;
    /** Cluster-model job parameters (Figure 2/5); unused otherwise. */
    mapreduce::JobSpec cluster_spec;
};

/** Knobs for one measured run. */
struct RunConfig
{
    /** Approximate micro-ops to retire (runs stop at the first natural
        boundary past the budget). */
    std::uint64_t op_budget = 2'000'000;
    /** Determinism seed (generator streams, layouts). */
    std::uint64_t seed = 42;
    /** Warm-up ops before counters are (externally) reset; the harness
        uses this to mimic the paper's ramp-up discard. */
    std::uint64_t warmup_ops = 0;
};

/** A runnable workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const WorkloadInfo& info() const = 0;

    /** Drive the workload's op stream into `core` per `config`. */
    virtual void run(cpu::Core& core, const RunConfig& config) = 0;

    /**
     * Simulated input bytes consumed by the last run() (0 when the
     * workload has no notion of input, e.g. the service models).
     */
    virtual std::uint64_t last_input_bytes() const { return 0; }
};

}  // namespace dcb::workloads

#endif  // DCBENCH_WORKLOADS_WORKLOAD_H_
