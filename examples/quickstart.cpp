/**
 * @file
 * Quickstart: run one data-analysis workload on the simulated Westmere
 * machine and print the counter-derived metrics the paper reports.
 *
 *   ./quickstart [workload-name] [op-budget]
 */

#include <cstdio>
#include <string>

#include "core/dcbench.h"
#include "util/string_util.h"

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 2);
    const std::string name = argc > 1 ? argv[1] : "WordCount";
    dcb::core::HarnessConfig config = dcb::core::bench_config();
    if (argc > 2) {
        const auto budget = dcb::util::parse_count(argv[2]);
        if (!budget) {
            std::fprintf(stderr, "error: op budget is not a whole number: "
                                 "%s\n", argv[2]);
            return 2;
        }
        config.run.op_budget = *budget;
    }

    auto workload = dcb::workloads::make_workload(name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload: %s\navailable:\n",
                     name.c_str());
        for (const auto& n : dcb::workloads::figure_order())
            std::fprintf(stderr, "  %s\n", n.c_str());
        return 2;
    }

    std::printf("DCBench-Repro quickstart: %s (%s)\n", name.c_str(),
                workload->info().source.c_str());
    const dcb::cpu::CounterReport r =
        dcb::core::run_workload(*workload, config);

    std::printf("instructions retired : %.0f\n", r.instructions);
    std::printf("cycles               : %.0f\n", r.cycles);
    std::printf("IPC                  : %.3f\n", r.ipc);
    std::printf("kernel instructions  : %.1f%%\n",
                100.0 * r.kernel_instr_fraction);
    std::printf("L1I MPKI             : %.2f\n", r.l1i_mpki);
    std::printf("ITLB walks PKI       : %.4f\n", r.itlb_walk_pki);
    std::printf("L2 MPKI              : %.2f\n", r.l2_mpki);
    std::printf("L3 service ratio     : %.1f%%\n",
                100.0 * r.l3_service_ratio);
    std::printf("DTLB walks PKI       : %.4f\n", r.dtlb_walk_pki);
    std::printf("branch mispredict    : %.2f%%\n",
                100.0 * r.branch_misprediction_ratio);
    std::printf("stalls: fetch %.0f%% rat %.0f%% load %.0f%% store %.0f%% "
                "rs %.0f%% rob %.0f%%\n",
                100.0 * r.stalls.fetch, 100.0 * r.stalls.rat,
                100.0 * r.stalls.load, 100.0 * r.stalls.store,
                100.0 * r.stalls.rs, 100.0 * r.stalls.rob);
    return 0;
}
