/**
 * @file
 * Ablation: LLC capacity sweep behind the Section IV-D implication that
 * "optimizing the LLC capacity properly will improve the
 * energy-efficiency of processor and save the die area".
 *
 * Sweeps the L3 from 3 MB to 24 MB under a representative data-analysis
 * workload and a service model, reporting the L3 service ratio
 * (Equation 1): the knee shows how much capacity those workloads
 * actually use.
 */

#include <cstdio>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/table.h"

int
main(int argc, char** argv)
{
    using namespace dcb;
    const std::uint64_t budget =
        bench::budget_from_args(argc, argv, 1'500'000);

    util::Table table({"L3 size", "PageRank L3 ratio",
                       "PageRank L2->mem MPKI", "Web Serving L3 ratio"});
    table.set_title("ablation: L3 capacity sweep (Equation 1 ratio)");

    for (std::uint64_t mb : {3, 6, 12, 24}) {
        core::HarnessConfig config = core::bench_config();
        config.run.op_budget = budget;
        config.run.warmup_ops = budget / 4;
        config.memory_config.l3.size_bytes = mb << 20;
        const auto pr = core::run_workload("PageRank", config).report;
        const auto web =
            core::run_workload("Web Serving", config).report;
        table.add_row(
            {std::to_string(mb) + " MB",
             util::format_double(100 * pr.l3_service_ratio, 1) + "%",
             util::format_double(pr.l2_mpki * (1 - pr.l3_service_ratio),
                                 1),
             util::format_double(100 * web.l3_service_ratio, 1) + "%"});
    }
    table.print();
    std::printf("\nReading: once the L3 covers the hot working set, extra"
                "\ncapacity buys little -- the paper's die-area argument.\n");
    return 0;
}
