/**
 * @file
 * Ablation: does binary size drive the front-end pressure? (Section
 * IV-C's claim that high-level languages and third-party libraries
 * enlarge the binary and aggravate L1I/ITLB inefficiency.)
 *
 * Runs the same analytics workload with its JVM-scale code layout versus
 * an HPCC-style tight-kernel layout. Everything else (algorithm, data,
 * machine) is identical, so the L1I/ITLB difference isolates the
 * footprint effect.
 */

#include <cstdio>

#include "bench_common.h"
#include "datagen/text.h"
#include "analytics/word_count.h"
#include "os/syscalls.h"
#include "trace/exec_ctx.h"
#include "util/table.h"
#include "util/string_util.h"
#include "workloads/profiles.h"

namespace {

dcb::cpu::CounterReport
run_wordcount_with_layout(dcb::workloads::FootprintClass footprint,
                          const char* label, std::uint64_t budget)
{
    using namespace dcb;
    cpu::Core core(cpu::westmere_core_config(),
                   mem::westmere_memory_config());
    trace::ExecCtx ctx(
        core, workloads::make_code_layout(footprint,
                                          workloads::kUserCodeBase, 42),
        os::kernel_code_layout(workloads::kKernelCodeBase, 43),
        workloads::data_analysis_exec_profile(), 42);
    mem::AddressSpace space;
    datagen::TextGenerator text(30'000, 1.0, 44);
    analytics::WordCounter counter(ctx, space, 1 << 16);
    core.set_counter_reset_at(budget / 4);
    while (ctx.counts().total() < budget)
        counter.add_document(text.next_document(120).words);
    return cpu::make_report(label, core);
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace dcb;
    const std::uint64_t budget =
        bench::budget_from_args(argc, argv, 2'000'000);

    const auto jvm = run_wordcount_with_layout(
        workloads::FootprintClass::kJvmFramework, "jvm-scale binary",
        budget);
    const auto tight = run_wordcount_with_layout(
        workloads::FootprintClass::kTightKernel, "tight kernel binary",
        budget);

    util::Table table({"layout", "L1I MPKI", "ITLB walks PKI",
                       "fetch-stall share", "IPC"});
    table.set_title("ablation: identical WordCount, different binaries");
    for (const auto& r : {jvm, tight}) {
        table.add_row({r.workload, util::format_double(r.l1i_mpki, 2),
                       util::format_double(r.itlb_walk_pki, 4),
                       util::format_double(100 * r.stalls.fetch, 0) + "%",
                       util::format_double(r.ipc, 2)});
    }
    table.print();
    std::printf("\n");
    core::shape_check("large binary => order-of-magnitude more L1I misses",
                      jvm.l1i_mpki > 10 * tight.l1i_mpki);
    core::shape_check("large binary => more ITLB walks",
                      jvm.itlb_walk_pki > tight.itlb_walk_pki);
    core::shape_check("large binary => lower IPC", jvm.ipc < tight.ipc);
    return 0;
}
