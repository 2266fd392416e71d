/**
 * @file
 * Ablation: out-of-order window sizing. Section IV-B finds data-analysis
 * workloads stalled on RS/ROB capacity; this sweep shows their IPC
 * responds to window size while the front-end-bound service models
 * barely move -- the architectural lever the finding points at.
 */

#include <cstdio>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

dcb::cpu::CounterReport
run_with_window(const std::string& name, std::uint32_t rob,
                std::uint32_t rs, std::uint64_t budget)
{
    using namespace dcb;
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = budget;
    config.run.warmup_ops = budget / 4;
    config.core_config.rob_entries = rob;
    config.core_config.rs_entries = rs;
    return core::run_workload(name, config).report;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace dcb;
    const std::uint64_t budget =
        bench::budget_from_args(argc, argv, 1'500'000);

    util::Table table({"ROB/RS", "PageRank IPC", "K-means IPC",
                       "Web Serving IPC"});
    table.set_title("ablation: out-of-order window size sweep");

    double bayes_small = 0.0;
    double bayes_big = 0.0;
    double web_small = 0.0;
    double web_big = 0.0;
    const std::uint32_t robs[] = {32, 64, 128, 256};
    const std::uint32_t rss[] = {9, 18, 36, 72};
    for (int i = 0; i < 4; ++i) {
        const auto bayes = run_with_window("PageRank", robs[i], rss[i],
                                           budget);
        const auto kmeans = run_with_window("K-means", robs[i], rss[i],
                                            budget);
        const auto web = run_with_window("Web Serving", robs[i], rss[i],
                                         budget);
        table.add_row({std::to_string(robs[i]) + "/" +
                           std::to_string(rss[i]),
                       util::format_double(bayes.ipc, 2),
                       util::format_double(kmeans.ipc, 2),
                       util::format_double(web.ipc, 2)});
        if (i == 0) {
            bayes_small = bayes.ipc;
            web_small = web.ipc;
        }
        if (i == 3) {
            bayes_big = bayes.ipc;
            web_big = web.ipc;
        }
    }
    table.print();
    std::printf("\n");
    const double bayes_gain = bayes_big / bayes_small - 1.0;
    const double web_gain = web_big / web_small - 1.0;
    std::printf("window 32->256: PageRank +%.0f%%, Web Serving "
                "+%.0f%%\n\n",
                100 * bayes_gain, 100 * web_gain);
    core::shape_check("OoO-bound analytics benefit more from a bigger "
                      "window than front-end-bound services",
                      bayes_gain > web_gain);
    return 0;
}
