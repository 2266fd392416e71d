/**
 * @file
 * Full-suite characterization: run all 26 workloads (or a category) and
 * print the complete per-workload metric matrix plus the verdict of
 * every paper finding on it.
 *
 *   ./characterize [ops-per-workload] [category]
 *   category: all | data-analysis | service | spec-cpu | hpcc
 */

#include <cstdio>
#include <string>

#include "core/dcbench.h"
#include "util/string_util.h"
#include "util/table.h"

int
main(int argc, char** argv)
{
    using dcb::util::format_double;

    dcb::core::HarnessConfig config = dcb::core::bench_config();
    if (argc > 1) {
        const auto budget = dcb::util::parse_count(argv[1]);
        if (!budget) {
            std::fprintf(stderr, "error: op budget is not a whole number: "
                                 "%s\n", argv[1]);
            return 2;
        }
        config.run.op_budget = *budget;
    }
    const std::string category = argc > 2 ? argv[2] : "all";

    std::vector<std::string> names;
    if (category == "all") {
        names = dcb::workloads::figure_order();
    } else if (category == "data-analysis") {
        names = dcb::workloads::names_in_category(
            dcb::workloads::Category::kDataAnalysis);
    } else if (category == "service") {
        names = dcb::workloads::names_in_category(
            dcb::workloads::Category::kService);
    } else if (category == "spec-cpu") {
        names = dcb::workloads::names_in_category(
            dcb::workloads::Category::kSpecCpu);
    } else if (category == "hpcc") {
        names = dcb::workloads::names_in_category(
            dcb::workloads::Category::kHpcc);
    } else {
        std::fprintf(stderr, "unknown category: %s\n", category.c_str());
        return 1;
    }

    dcb::util::Table table({"workload", "IPC", "kern%", "L1I", "iTLB",
                            "L2", "L3r%", "dTLB", "brm%", "fe%", "rat%",
                            "ld%", "st%", "rs%", "rob%"});
    table.set_title("DCBench-Repro characterization (" +
                    std::to_string(config.run.op_budget) +
                    " ops/workload)");
    std::vector<dcb::cpu::CounterReport> reports;
    for (const auto& name : names) {
        const auto result = dcb::core::run_workload(name, config);
        if (!result.status.ok) {
            std::fprintf(stderr, "warning: %s\n",
                         result.status.error.c_str());
            continue;
        }
        const auto& r = result.report;
        reports.push_back(r);
        table.add_row({r.workload, format_double(r.ipc, 2),
                       format_double(100 * r.kernel_instr_fraction, 1),
                       format_double(r.l1i_mpki, 1),
                       format_double(r.itlb_walk_pki, 3),
                       format_double(r.l2_mpki, 1),
                       format_double(100 * r.l3_service_ratio, 1),
                       format_double(r.dtlb_walk_pki, 3),
                       format_double(100 * r.branch_misprediction_ratio, 2),
                       format_double(100 * r.stalls.fetch, 0),
                       format_double(100 * r.stalls.rat, 0),
                       format_double(100 * r.stalls.load, 0),
                       format_double(100 * r.stalls.store, 0),
                       format_double(100 * r.stalls.rs, 0),
                       format_double(100 * r.stalls.rob, 0)});
    }
    table.print();

    if (category == "all") {
        std::printf("\npaper findings (src/core/findings.cc):\n");
        const std::vector<bool> held = dcb::core::check_findings(reports);
        for (std::size_t i = 0; i < held.size(); ++i) {
            const dcb::core::Finding& f = dcb::core::paper_findings()[i];
            dcb::core::shape_check(std::string(f.id) + " Figure " +
                                       std::to_string(f.figure) + ": " +
                                       f.claim,
                                   held[i]);
        }
    }
    return 0;
}
