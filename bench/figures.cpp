/**
 * @file
 * Figures 3-12: one run of the 26-workload suite, every per-op figure
 * of the paper printed and written as CSV (fig03_ipc.csv,
 * fig04_kernel.csv, fig06_stalls.csv ... fig12_branch.csv), each
 * followed by its class averages and the verdicts of its rows of the
 * paper-findings table (core/findings.h).
 *
 * Usage: see bench_common.h.
 */

#include "bench_common.h"

#include "core/findings.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace dcb;
using Reports = std::vector<cpu::CounterReport>;

/**
 * One figure: a measured-vs-paper bar of `metric` per workload. Figure
 * 6 has six stall columns instead and is drawn by print_stall_figure.
 */
struct Figure
{
    int number;
    const char* title;
    const char* header;
    const char* csv_path;
    cpu::ReportMetric metric;
    double scale;  ///< printed value = scale x metric (100 for percent)
    int decimals;
    double core::PaperMetrics::*paper;
};

const Figure kFigures[] = {
    {3, "Figure 3: Instructions per cycle (IPC)", "IPC", "fig03_ipc.csv",
     cpu::ReportMetric::kIpc, 1.0, 2, &core::PaperMetrics::ipc},
    {4, "Figure 4: kernel-mode instruction fraction", "kernel%",
     "fig04_kernel.csv", cpu::ReportMetric::kKernelFraction, 100.0, 1,
     &core::PaperMetrics::kernel_frac},
    {6, "Figure 6: pipeline stall breakdown (normalized)", nullptr,
     "fig06_stalls.csv", cpu::ReportMetric::kCount, 100.0, 0, nullptr},
    {7, "Figure 7: L1 instruction-cache misses per thousand instructions",
     "L1I MPKI", "fig07_l1i.csv", cpu::ReportMetric::kL1iMpki, 1.0, 1,
     &core::PaperMetrics::l1i_mpki},
    {8, "Figure 8: ITLB-miss completed page walks per thousand "
        "instructions",
     "ITLB walks PKI", "fig08_itlb.csv", cpu::ReportMetric::kItlbWalkPki,
     1.0, 3, &core::PaperMetrics::itlb_walk_pki},
    {9, "Figure 9: L2 cache misses per thousand instructions", "L2 MPKI",
     "fig09_l2.csv", cpu::ReportMetric::kL2Mpki, 1.0, 1,
     &core::PaperMetrics::l2_mpki},
    {10, "Figure 10: ratio of L2 misses satisfied by the L3 (Equation 1)",
     "L3 ratio %", "fig10_l3ratio.csv", cpu::ReportMetric::kL3ServiceRatio,
     100.0, 1, &core::PaperMetrics::l3_ratio},
    {11, "Figure 11: DTLB-miss completed page walks per thousand "
         "instructions",
     "DTLB walks PKI", "fig11_dtlb.csv", cpu::ReportMetric::kDtlbWalkPki,
     1.0, 3, &core::PaperMetrics::dtlb_walk_pki},
    {12, "Figure 12: branch misprediction ratio", "mispredict %",
     "fig12_branch.csv", cpu::ReportMetric::kBranchMispredictionRatio,
     100.0, 2, &core::PaperMetrics::br_mispred},
};

/** One line of class means, measured (paper), over the four classes. */
void
print_class_averages(const Reports& reports,
                     const core::MetricGetter& measured,
                     const core::PaperGetter& paper, int decimals)
{
    std::printf("class averages, measured (paper):");
    for (const workloads::Category c :
         {workloads::Category::kDataAnalysis, workloads::Category::kService,
          workloads::Category::kSpecCpu, workloads::Category::kHpcc}) {
        const std::vector<std::string> names =
            workloads::names_in_category(c);
        double paper_sum = 0.0;
        for (const std::string& name : names)
            paper_sum += paper(name);
        std::printf(" %s %.*f (%.*f)", workloads::category_name(c),
                    decimals, core::class_average(reports, names, measured),
                    decimals, paper_sum / static_cast<double>(names.size()));
    }
    std::printf("\n\n");
}

/** A single-metric figure: its table, CSV and class means. */
void
print_figure(const Figure& f, const Reports& reports)
{
    const auto measured = [&f](const cpu::CounterReport& r) {
        return f.scale * cpu::report_metric(r, f.metric);
    };
    const auto paper = [&f](const std::string& name) {
        const auto m = core::paper_metrics(name);
        return m ? f.scale * (*m).*f.paper : -1.0;
    };
    core::print_figure_table(f.title, reports, f.header, measured, paper,
                             f.decimals, f.csv_path, f.metric, f.scale);
    print_class_averages(reports, measured, paper, f.decimals);
}

/** Figure 6: the six normalized stall shares per workload. */
void
print_stall_figure(const Figure& f, const Reports& reports)
{
    using util::format_double;
    util::Table table({"workload", "fetch%", "rat%", "load%", "store%",
                       "rs%", "rob%", "ooo% (paper rs+rob)"});
    table.set_title(f.title);
    util::CsvWriter csv({"workload", "fetch", "rat", "load", "store",
                         "rs", "rob"});
    double worst_fetch_stderr = -1.0;
    for (const auto& r : reports) {
        const auto m = core::paper_metrics(r.workload);
        const double paper_ooo = m ? 100 * (m->stall_rs + m->stall_rob)
                                   : -1;
        table.add_row(
            {r.workload, format_double(100 * r.stalls.fetch, 0),
             format_double(100 * r.stalls.rat, 0),
             format_double(100 * r.stalls.load, 0),
             format_double(100 * r.stalls.store, 0),
             format_double(100 * r.stalls.rs, 0),
             format_double(100 * r.stalls.rob, 0),
             format_double(100 * r.stalls.out_of_order_part(), 0) + " (" +
                 format_double(paper_ooo, 0) + ")"});
        csv.add_row({r.workload, format_double(r.stalls.fetch, 4),
                     format_double(r.stalls.rat, 4),
                     format_double(r.stalls.load, 4),
                     format_double(r.stalls.store, 4),
                     format_double(r.stalls.rs, 4),
                     format_double(r.stalls.rob, 4)});
        if (r.sampled)
            worst_fetch_stderr =
                std::max(worst_fetch_stderr,
                         r.stderr_of(cpu::ReportMetric::kStallFetch));
    }
    table.print();
    csv.write_file(f.csv_path);
    std::printf("\n");
    if (worst_fetch_stderr >= 0.0)
        std::printf("(sampled: stall shares carry per-window stderr; "
                    "e.g. fetch stderr up to %.4f across the suite)\n\n",
                    worst_fetch_stderr);
    std::printf("out-of-order (rs+rob) share, ");
    print_class_averages(
        reports,
        [&f](const cpu::CounterReport& r) {
            return f.scale * r.stalls.out_of_order_part();
        },
        [&f](const std::string& name) {
            const auto m = core::paper_metrics(name);
            return m ? f.scale * (m->stall_rs + m->stall_rob) : -1.0;
        },
        f.decimals);
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto config = bench::config_from_args(argc, argv);
    const Reports reports = bench::run_full_suite(config);

    const std::vector<core::Finding>& findings = core::paper_findings();
    const std::vector<bool> held = core::check_findings(reports);
    for (const Figure& f : kFigures) {
        if (f.number == 6)
            print_stall_figure(f, reports);
        else
            print_figure(f, reports);
        for (std::size_t i = 0; i < findings.size(); ++i)
            if (findings[i].figure == f.number)
                core::shape_check(std::string(findings[i].id) + " " +
                                      findings[i].claim,
                                  held[i]);
        std::printf("\n");
    }
    std::printf("%zu of %zu paper findings held\n",
                static_cast<std::size_t>(
                    std::count(held.begin(), held.end(), true)),
                held.size());
    return 0;
}
