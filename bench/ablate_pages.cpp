/**
 * @file
 * Ablation: page size vs TLB behaviour.
 *
 * Our Figures 8 and 11 reproduce the paper's *orderings* but at higher
 * absolute walk rates (EXPERIMENTS.md): with strictly 4 KB pages, multi-
 * MB code and data working sets exceed the 512-entry L2 TLB's 2 MB
 * reach. This sweep reruns TLB-heavy workloads with 2 MB pages (the
 * transparent-huge-page behaviour of the paper-era CentOS kernels) and
 * shows the walk rates collapse toward the paper's scale, supporting
 * that reading of the deviation.
 */

#include <cstdio>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

dcb::cpu::CounterReport
run_with_pages(const std::string& name, std::uint32_t page_bytes,
               std::uint64_t budget)
{
    using namespace dcb;
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = budget;
    config.run.warmup_ops = budget / 4;
    config.memory_config.page_bytes = page_bytes;
    return core::run_workload(name, config).report;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace dcb;
    const std::uint64_t budget =
        bench::budget_from_args(argc, argv, 1'500'000);

    util::Table table({"workload", "page", "ITLB walks PKI",
                       "DTLB walks PKI", "IPC"});
    table.set_title("ablation: 4 KB vs 2 MB pages");

    bool all_collapse = true;
    for (const std::string name :
         {"Hive-bench", "Media Streaming", "HPCC-RandomAccess"}) {
        const auto small = run_with_pages(name, 4096, budget);
        const auto huge = run_with_pages(name, 2 << 20, budget);
        table.add_row({name, "4 KB",
                       util::format_double(small.itlb_walk_pki, 3),
                       util::format_double(small.dtlb_walk_pki, 3),
                       util::format_double(small.ipc, 2)});
        table.add_row({name, "2 MB",
                       util::format_double(huge.itlb_walk_pki, 3),
                       util::format_double(huge.dtlb_walk_pki, 3),
                       util::format_double(huge.ipc, 2)});
        all_collapse &= huge.dtlb_walk_pki < small.dtlb_walk_pki / 4 +
                                                 0.01;
    }
    table.print();
    std::printf("\n");
    core::shape_check("huge pages collapse the page-walk rates",
                      all_collapse);
    return 0;
}
