/**
 * @file
 * Ablation: programming-model effects (the paper's Section V notes "the
 * significant effects of different programming models, e.g., MPI vs
 * MapReduce, on the application behaviors" as beyond its scope; DCBench
 * ships both implementations).
 *
 * Runs K-means two ways on the same data and machine:
 *
 *   Hadoop style -- the built-in workload: every Lloyd iteration re-reads
 *   its input from HDFS and writes centers back (Mahout's driver);
 *   MPI style    -- data stays resident; each iteration ends with a
 *   center allreduce (small messages through the socket stack).
 *
 * The contrast shows where the data-analysis class's kernel time and
 * framework overhead come from.
 */

#include <cstdio>

#include "analytics/kmeans.h"
#include "bench_common.h"
#include "datagen/vectors.h"
#include "mem/address_space.h"
#include "os/syscalls.h"
#include "trace/exec_ctx.h"
#include "util/string_util.h"
#include "util/table.h"
#include "workloads/profiles.h"

namespace {

/** MPI-style K-means: resident data, allreduce per iteration. */
dcb::cpu::CounterReport
run_mpi_kmeans(std::uint64_t budget)
{
    using namespace dcb;
    cpu::Core core(cpu::westmere_core_config(),
                   mem::westmere_memory_config());
    core.set_counter_reset_at(budget / 4);
    trace::ExecCtx ctx(
        core,
        workloads::make_code_layout(workloads::FootprintClass::kTightKernel,
                                    workloads::kUserCodeBase, 42),
        os::kernel_code_layout(workloads::kKernelCodeBase, 43),
        workloads::hpcc_exec_profile(), 42);
    mem::AddressSpace space;
    os::Disk disk;
    os::Network net;
    os::OsModel os(ctx, space, disk, net);

    constexpr std::uint32_t kDims = 16;
    constexpr std::uint32_t kCenters = 16;
    constexpr std::size_t kPoints = 24'000;
    datagen::VectorGenerator gen(kDims, kCenters, 1.5, 44);
    std::vector<double> points;
    std::vector<double> p;
    for (std::size_t i = 0; i < kPoints; ++i) {
        gen.next_point(p);
        points.insert(points.end(), p.begin(), p.end());
    }
    analytics::Kmeans kmeans(ctx, space, points, kPoints, kDims, kCenters);
    const mem::Region msg = space.alloc(kCenters * kDims * 8, "allreduce");

    while (ctx.counts().total() < budget) {
        kmeans.begin_pass();
        for (std::size_t q = 0; q < kPoints; q += 2048) {
            kmeans.assign_block(q, 2048);
            if (ctx.counts().total() >= budget)
                break;
        }
        kmeans.finish_pass();
        // Allreduce of the center sums: one small exchange per peer.
        for (int peer = 0; peer < 3; ++peer) {
            os.sys_send(msg.base, kCenters * kDims * 8);
            os.sys_recv(msg.base, kCenters * kDims * 8);
        }
    }
    return cpu::make_report("K-means (MPI style)", core);
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace dcb;
    const std::uint64_t budget =
        bench::budget_from_args(argc, argv, 2'000'000);

    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = budget;
    config.run.warmup_ops = budget / 4;
    const auto hadoop = core::run_workload("K-means", config).report;
    const auto mpi = run_mpi_kmeans(budget);

    util::Table table({"implementation", "IPC", "kernel%", "L1I MPKI",
                       "L2 MPKI", "fetch-stall share"});
    table.set_title(
        "ablation: programming model (same algorithm, same data)");
    for (const auto& r : {hadoop, mpi}) {
        table.add_row({r.workload, util::format_double(r.ipc, 2),
                       util::format_double(100 * r.kernel_instr_fraction,
                                           1),
                       util::format_double(r.l1i_mpki, 1),
                       util::format_double(r.l2_mpki, 1),
                       util::format_double(100 * r.stalls.fetch, 0) +
                           "%"});
    }
    table.print();
    std::printf("\n");
    core::shape_check("MapReduce/JVM stack costs front-end misses",
                      hadoop.l1i_mpki > 4 * mpi.l1i_mpki);
    core::shape_check("MPI version spends less time in the kernel",
                      mpi.kernel_instr_fraction <
                          hadoop.kernel_instr_fraction + 0.02);
    core::shape_check("MPI version is faster on the same core",
                      mpi.ipc > hadoop.ipc);
    return 0;
}
