#include "workloads/registry.h"

#include "workloads/kernels.h"

namespace dcb::workloads {

namespace {

/**
 * One workload of the suite: what it is, how its run is set up, and the
 * kernel that drives it. Every run builds an Env from the setup fields,
 * then calls the kernel.
 */
struct WorkloadRow
{
    const char* name;
    Category category;
    const char* source;
    FootprintClass footprint;
    trace::ExecProfile (*exec_profile)();
    std::uint64_t rng_salt;  ///< the run's Rng is seeded seed ^ rng_salt
    bool owns_os;            ///< issues syscalls through an OsModel
    Kernel kernel;
    // Data-analysis rows only: Table I input (GB) and retired
    // instructions (billions), then the cluster-model job parameters.
    double input_gb = 0.0;
    double instructions_g = 0.0;
    double map_output_ratio = 0.0;
    double output_ratio = 0.0;
    double reduce_fraction = 0.0;
    std::uint32_t iterations = 0;
    double serial_fraction = 0.0;
};

using enum Category;
using enum FootprintClass;

constexpr const char* kRequestLoop =
    "model: synthetic request loop (see DESIGN.md)";

/**
 * The 26 measured workloads, each category in registry order (data
 * analysis in Table I order). A data-analysis row ends with its Table I
 * input GB and instructions, then its map output ratio, output ratio,
 * reduce share of compute, iterations and serial fraction.
 */
constexpr WorkloadRow kWorkloads[] = {
    {"Sort", kDataAnalysis, "Hadoop example", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::sort,
     150, 4578, 1.0, 1.0, 0.4, 1, 0.06},
    {"WordCount", kDataAnalysis, "Hadoop example", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::word_count,
     154, 3533, 0.05, 0.02, 0.1, 1, 0.035},
    {"Grep", kDataAnalysis, "Hadoop example", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::grep,
     154, 1499, 0.002, 0.002, 0.05, 1, 0.17},
    {"Naive Bayes", kDataAnalysis, "mahout", kJvmCompact,
     data_analysis_exec_profile, 0xD0D0, true, kernels::naive_bayes,
     147, 68131, 0.1, 0.01, 0.15, 1, 0.02},
    {"SVM", kDataAnalysis, "our implementation", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::svm,
     148, 2051, 0.02, 0.001, 0.1, 1, 0.015},
    {"K-means", kDataAnalysis, "mahout", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::kmeans,
     150, 3227, 0.01, 0.005, 0.1, 3, 0.01},
    {"Fuzzy K-means", kDataAnalysis, "mahout", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::fuzzy_kmeans,
     150, 15470, 0.01, 0.005, 0.1, 3, 0.008},
    {"IBCF", kDataAnalysis, "mahout", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::ibcf,
     147, 32340, 0.3, 0.05, 0.3, 1, 0.004},
    {"HMM", kDataAnalysis, "our implementation", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::hmm,
     147, 1841, 0.01, 0.01, 0.05, 1, 0.055},
    {"PageRank", kDataAnalysis, "mahout", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::pagerank,
     187, 18470, 0.5, 0.1, 0.3, 6, 0.035},
    {"Hive-bench", kDataAnalysis, "Hivebench", kJvmFramework,
     data_analysis_exec_profile, 0xD0D0, true, kernels::hive,
     156, 3659, 0.2, 0.05, 0.2, 3, 0.05},

    // Software Testing is compute-bound: no syscalls, SPEC-style code.
    {"Software Testing", kService,
     "model: symbolic-execution state explorer", kJvmFramework,
     spec_exec_profile, 0xC10D, false, kernels::software_testing},
    {"Media Streaming", kService, kRequestLoop, kMediaStack,
     service_exec_profile, 0xFACE, true, kernels::media_streaming},
    {"Data Serving", kService, kRequestLoop, kServiceStack,
     service_exec_profile, 0xFACE, true, kernels::data_serving},
    {"Web Search", kService, kRequestLoop, kServiceStack,
     service_exec_profile, 0xFACE, true, kernels::web_search},
    {"Web Serving", kService, kRequestLoop, kServiceStack,
     service_exec_profile, 0xFACE, true, kernels::web_serving},
    {"SPECWeb", kService, kRequestLoop, kServiceStack,
     service_exec_profile, 0xFACE, true, kernels::specweb},

    // SPECFP draws no random numbers; its salt is unused.
    {"SPECFP", kSpecCpu, "model: dense FP composite (stencil/blas style)",
     kStaticCompute, spec_exec_profile, 0, false, kernels::specfp},
    {"SPECINT", kSpecCpu,
     "model: integer composite (chase/compress/branch)", kStaticCompute,
     spec_exec_profile, 0x1217, false, kernels::specint},

    {"HPCC-COMM", kHpcc, "HPCC 1.4", kTightKernel, hpcc_exec_profile,
     0xBEEF, true, kernels::comm},
    {"HPCC-DGEMM", kHpcc, "HPCC 1.4", kTightKernel, hpcc_exec_profile,
     0xBEEF, true, kernels::dgemm},
    {"HPCC-FFT", kHpcc, "HPCC 1.4", kTightKernel, hpcc_exec_profile,
     0xBEEF, true, kernels::fft},
    {"HPCC-HPL", kHpcc, "HPCC 1.4", kTightKernel, hpcc_exec_profile,
     0xBEEF, true, kernels::hpl},
    {"HPCC-PTRANS", kHpcc, "HPCC 1.4", kTightKernel, hpcc_exec_profile,
     0xBEEF, true, kernels::ptrans},
    {"HPCC-RandomAccess", kHpcc, "HPCC 1.4", kTightKernel,
     hpcc_exec_profile, 0xBEEF, true, kernels::random_access},
    {"HPCC-STREAM", kHpcc, "HPCC 1.4", kTightKernel, hpcc_exec_profile,
     0xBEEF, true, kernels::stream},
};

/** Runs one row of the table. */
class TableWorkload final : public Workload
{
  public:
    explicit TableWorkload(const WorkloadRow& row) : row_(row)
    {
        info_.name = row.name;
        info_.category = row.category;
        info_.source = row.source;
        if (row.category != kDataAnalysis)
            return;
        info_.paper_input_gb = row.input_gb;
        info_.paper_instructions_g = row.instructions_g;
        mapreduce::JobSpec& spec = info_.cluster_spec;
        spec.name = row.name;
        spec.input_gb = row.input_gb;
        spec.total_instructions_g = row.instructions_g;
        spec.map_output_ratio = row.map_output_ratio;
        spec.output_ratio = row.output_ratio;
        spec.reduce_fraction = row.reduce_fraction;
        spec.iterations = row.iterations;
        spec.serial_fraction = row.serial_fraction;
    }

    const WorkloadInfo& info() const override { return info_; }

    void
    run(cpu::Core& core, const RunConfig& config) override
    {
        Env env(core, row_.footprint, row_.exec_profile(), config.seed,
                row_.rng_salt, row_.owns_os);
        row_.kernel(env, config, info_);
        // Only the data-analysis workloads read an input data set.
        if (row_.category == kDataAnalysis)
            last_input_bytes_ = env.disk.bytes_read();
    }

    std::uint64_t last_input_bytes() const override
    {
        return last_input_bytes_;
    }

  private:
    const WorkloadRow& row_;
    WorkloadInfo info_;
    std::uint64_t last_input_bytes_ = 0;
};

}  // namespace

const char*
category_name(Category c)
{
    switch (c) {
      case kDataAnalysis: return "data-analysis";
      case kService: return "service";
      case kSpecCpu: return "spec-cpu";
      case kHpcc: return "hpcc";
    }
    return "unknown";
}

std::unique_ptr<Workload>
make_workload(const std::string& name)
{
    for (const WorkloadRow& row : kWorkloads)
        if (name == row.name)
            return std::make_unique<TableWorkload>(row);
    return nullptr;
}

const std::vector<std::string>&
figure_order()
{
    static const std::vector<std::string> kOrder = {
        "Naive Bayes", "SVM", "Grep", "WordCount", "K-means",
        "Fuzzy K-means", "PageRank", "Sort", "Hive-bench", "IBCF", "HMM",
        "Software Testing", "Media Streaming", "Data Serving",
        "Web Search", "Web Serving", "SPECFP", "SPECINT", "SPECWeb",
        "HPCC-COMM", "HPCC-DGEMM", "HPCC-FFT", "HPCC-HPL", "HPCC-PTRANS",
        "HPCC-RandomAccess", "HPCC-STREAM",
    };
    return kOrder;
}

std::vector<std::string>
names_in_category(Category category)
{
    std::vector<std::string> names;
    for (const WorkloadRow& row : kWorkloads)
        if (row.category == category)
            names.emplace_back(row.name);
    return names;
}

}  // namespace dcb::workloads
