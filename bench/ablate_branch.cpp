/**
 * @file
 * Ablation: predictor complexity (Section IV-E's "a simpler branch
 * predictor may be preferred so as to save power and die area").
 *
 * Reruns representative workloads with gshare (the default), bimodal and
 * static-taken predictors. For the data-analysis workloads the simple
 * predictors give up little; for the branchy service models they give
 * up much more.
 */

#include <cstdio>

#include "bench_common.h"
#include "cpu/branch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

/** Run one workload with a chosen predictor; returns the report. */
dcb::cpu::CounterReport
run_with_predictor(const std::string& name, int predictor,
                   std::uint64_t budget)
{
    using namespace dcb;
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = budget;
    config.run.warmup_ops = budget / 4;
    cpu::Core core(config.core_config, config.memory_config);
    if (predictor == 1) {
        core.set_direction_predictor(
            std::make_unique<cpu::BimodalPredictor>(14));
    } else if (predictor == 2) {
        core.set_direction_predictor(
            std::make_unique<cpu::StaticTakenPredictor>());
    } else if (predictor == 3) {
        core.set_direction_predictor(
            std::make_unique<cpu::LocalHistoryPredictor>(10, 12));
    }
    core.set_counter_reset_at(config.run.warmup_ops);
    auto workload = workloads::make_workload(name);
    workload->run(core, config.run);
    return cpu::make_report(name, core);
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace dcb;
    const std::uint64_t budget =
        bench::budget_from_args(argc, argv, 1'500'000);

    util::Table table({"workload", "gshare miss%", "local miss%",
                       "bimodal miss%", "static miss%",
                       "IPC loss bimodal", "IPC loss static"});
    table.set_title("ablation: branch predictor complexity");

    double da_loss = 0.0;
    double svc_loss = 0.0;
    for (const std::string name : {"K-means", "WordCount", "PageRank",
                                   "Web Serving", "SPECWeb"}) {
        const auto g = run_with_predictor(name, 0, budget);
        const auto l = run_with_predictor(name, 3, budget);
        const auto b = run_with_predictor(name, 1, budget);
        const auto s = run_with_predictor(name, 2, budget);
        const double loss_b = (g.ipc - b.ipc) / g.ipc;
        const double loss_s = (g.ipc - s.ipc) / g.ipc;
        table.add_row(
            {name,
             util::format_double(100 * g.branch_misprediction_ratio, 2),
             util::format_double(100 * l.branch_misprediction_ratio, 2),
             util::format_double(100 * b.branch_misprediction_ratio, 2),
             util::format_double(100 * s.branch_misprediction_ratio, 2),
             util::format_double(100 * loss_b, 1) + "%",
             util::format_double(100 * loss_s, 1) + "%"});
        if (name == "Web Serving" || name == "SPECWeb")
            svc_loss += loss_b / 2;
        else
            da_loss += loss_b / 3;
    }
    table.print();
    std::printf("\nbimodal IPC loss: data analysis %.1f%%, services "
                "%.1f%%\n\n",
                100 * da_loss, 100 * svc_loss);
    core::shape_check(
        "data-analysis workloads tolerate a simpler predictor better "
        "than the branchy services",
        da_loss < svc_loss);
    return 0;
}
