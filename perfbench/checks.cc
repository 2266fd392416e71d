#include "checks.h"

#include <algorithm>
#include <cstring>

#include "core/report.h"
#include "mapreduce/scheduler.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using dcb::cpu::CounterReport;
using dcb::workloads::Category;
using dcb::workloads::names_in_category;

/** A metric of one named workload of a complete suite. */
double
of(const std::vector<CounterReport>& reports, const std::string& name,
   double CounterReport::*field)
{
    for (const CounterReport& r : reports)
        if (r.workload == name)
            return r.*field;
    return 0.0;
}

double
avg(const std::vector<CounterReport>& reports, Category category,
    double CounterReport::*field)
{
    return dcb::core::class_average(
        reports, names_in_category(category),
        [field](const CounterReport& r) { return r.*field; });
}

}  // namespace

std::vector<ShapeCheck>
paper_shape_checks(const std::vector<CounterReport>& reports)
{
    const auto ipc = &CounterReport::ipc;
    const auto l1i = &CounterReport::l1i_mpki;
    const auto l2 = &CounterReport::l2_mpki;
    const auto l3 = &CounterReport::l3_service_ratio;
    const auto br = &CounterReport::branch_misprediction_ratio;
    const auto kern = &CounterReport::kernel_instr_fraction;
    const std::vector<std::string> da_names =
        names_in_category(Category::kDataAnalysis);

    double da_ipc_min = 1e9;
    double da_ipc_max = 0.0;
    double da_kern_rest = 0.0;
    for (const std::string& name : da_names) {
        da_ipc_min = std::min(da_ipc_min, of(reports, name, ipc));
        da_ipc_max = std::max(da_ipc_max, of(reports, name, ipc));
        if (name != "Sort")
            da_kern_rest += of(reports, name, kern);
    }
    da_kern_rest /= static_cast<double>(da_names.size() - 1);
    double svc_kern_min = 1.0;
    for (const char* name : {"Media Streaming", "Data Serving", "Web Search",
                             "Web Serving", "SPECWeb"})
        svc_kern_min = std::min(svc_kern_min, of(reports, name, kern));

    const double da = avg(reports, Category::kDataAnalysis, ipc);
    const double svc = avg(reports, Category::kService, ipc);
    const double da_l1i = avg(reports, Category::kDataAnalysis, l1i);
    const double da_l2 = avg(reports, Category::kDataAnalysis, l2);
    const double da_br = avg(reports, Category::kDataAnalysis, br);
    std::vector<ShapeCheck> checks = {
        {"F1 DA average IPC above the service average", da > svc},
        {"F1 HPCC-DGEMM IPC above every DA workload",
         of(reports, "HPCC-DGEMM", ipc) > da_ipc_max},
        {"F1 Naive Bayes IPC below the DA average",
         of(reports, "Naive Bayes", ipc) < da},
        {"F1 services below the DA class", svc < da_ipc_min + 0.2},
        {"F3 DA L1I MPKI far above HPCC",
         da_l1i > 5 * avg(reports, Category::kHpcc, l1i)},
        {"F3 Naive Bayes is the DA L1I exception",
         of(reports, "Naive Bayes", l1i) < da_l1i / 3},
        {"F3 Media Streaming L1I is the extreme",
         of(reports, "Media Streaming", l1i) > 1.7 * da_l1i},
        {"F4 DA L2 MPKI below the services",
         da_l2 < avg(reports, Category::kService, l2)},
        {"F4 HPCC-DGEMM L2 MPKI near zero",
         of(reports, "HPCC-DGEMM", l2) < 2.0},
        {"F4 L3 serves over 70% of DA L2 misses",
         avg(reports, Category::kDataAnalysis, l3) > 0.70},
        {"F4 L3 serves over 70% of service L2 misses",
         avg(reports, Category::kService, l3) > 0.70},
        {"F4 STREAM defeats the L3", of(reports, "HPCC-STREAM", l3) < 0.4},
        {"F4 RandomAccess defeats the L3",
         of(reports, "HPCC-RandomAccess", l3) < 0.7},
        {"F5 DA branch mispredictions below the services",
         da_br < avg(reports, Category::kService, br)},
        {"F5 DA branch mispredictions below SPECINT",
         da_br < of(reports, "SPECINT", br)},
        {"F5 HPCC branch mispredictions lowest",
         avg(reports, Category::kHpcc, br) < da_br},
        {"F6 request services above 40% kernel", svc_kern_min > 0.40},
        {"F6 Sort is the DA kernel-share outlier",
         of(reports, "Sort", kern) > 3 * da_kern_rest},
        {"F6 RandomAccess is the HPCC kernel-share outlier",
         of(reports, "HPCC-RandomAccess", kern) > 0.15},
    };
    // Every claim needs the whole suite: a missing workload fails all.
    for (const std::string& name : dcb::workloads::figure_order())
        if (std::none_of(reports.begin(), reports.end(),
                         [&](const CounterReport& r) {
                             return r.workload == name;
                         }))
            for (ShapeCheck& c : checks)
                c.held = false;
    return checks;
}

bool
reports_identical(const CounterReport& a, const CounterReport& b)
{
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    bool stderr_same = true;
    for (std::size_t i = 0; i < a.metric_stderr.size(); ++i)
        stderr_same = stderr_same &&
                      same(a.metric_stderr[i], b.metric_stderr[i]);
    return a.workload == b.workload && same(a.instructions, b.instructions) &&
           same(a.cycles, b.cycles) && same(a.ipc, b.ipc) &&
           same(a.kernel_instr_fraction, b.kernel_instr_fraction) &&
           same(a.stalls.fetch, b.stalls.fetch) &&
           same(a.stalls.rat, b.stalls.rat) &&
           same(a.stalls.load, b.stalls.load) &&
           same(a.stalls.store, b.stalls.store) &&
           same(a.stalls.rs, b.stalls.rs) && same(a.stalls.rob, b.stalls.rob) &&
           same(a.l1i_mpki, b.l1i_mpki) &&
           same(a.itlb_walk_pki, b.itlb_walk_pki) &&
           same(a.l2_mpki, b.l2_mpki) &&
           same(a.l3_service_ratio, b.l3_service_ratio) &&
           same(a.dtlb_walk_pki, b.dtlb_walk_pki) &&
           same(a.branch_misprediction_ratio, b.branch_misprediction_ratio) &&
           a.sampled == b.sampled && a.sample_windows == b.sample_windows &&
           stderr_same;
}

std::vector<std::string>
job_failures(const dcb::mapreduce::MultiJobResult& result,
             const std::vector<dcb::mapreduce::JobSubmission>& fleet,
             const dcb::mapreduce::ClusterConfig& cluster)
{
    std::vector<std::string> out;
    if (!result.ok || result.jobs.size() != fleet.size()) {
        out.push_back("run: " + (result.ok ? std::string("job count differs")
                                           : result.error));
        return out;
    }
    for (std::size_t j = 0; j < fleet.size(); ++j) {
        const dcb::mapreduce::JobOutcome& job = result.jobs[j];
        if (!job.completed) {
            out.push_back(job.name + ": not completed (" + job.error + ")");
            continue;
        }
        const dcb::mapreduce::TaskCounts want =
            dcb::mapreduce::expected_task_counts(fleet[j].spec, cluster);
        if (job.maps_completed != want.maps ||
            job.reduces_completed != want.reduces)
            out.push_back(job.name + ": " +
                          std::to_string(job.maps_completed) + " maps, " +
                          std::to_string(job.reduces_completed) +
                          " reduces; expected " + std::to_string(want.maps) +
                          ", " + std::to_string(want.reduces));
    }
    return out;
}

}  // namespace perfbench
