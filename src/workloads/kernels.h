#ifndef DCBENCH_WORKLOADS_KERNELS_H_
#define DCBENCH_WORKLOADS_KERNELS_H_

/**
 * @file
 * The run environment every workload kernel drives, and the kernels of
 * the 26 measured workloads. A kernel is a free function that emits its
 * workload's op stream into `env.ctx` until `config.op_budget` is
 * reached; the workload table (registry.cc) pairs each with its name,
 * footprint, exec profile and paper metadata. Internal to
 * src/workloads: callers reach workloads through registry.h.
 */

#include <cstdint>
#include <optional>

#include "mem/address_space.h"
#include "os/syscalls.h"
#include "trace/exec_ctx.h"
#include "util/rng.h"
#include "workloads/profiles.h"
#include "workloads/workload.h"

namespace dcb::workloads {

/** Everything one run needs around the core. */
struct Env
{
    mem::AddressSpace space;
    trace::ExecCtx ctx;
    os::Disk disk;
    os::Network net;
    /** Engaged for the workloads that issue syscalls. Its constructor
        allocates the kernel bounce buffer, so engaging it moves every
        later allocation in `space`. */
    std::optional<os::OsModel> os;
    util::Rng rng;

    Env(cpu::Core& core, FootprintClass footprint,
        const trace::ExecProfile& profile, std::uint64_t seed,
        std::uint64_t rng_salt, bool owns_os)
        : ctx(core, make_code_layout(footprint, kUserCodeBase, seed),
              os::kernel_code_layout(kKernelCodeBase, seed ^ 0x5A5A),
              profile, seed),
          rng(seed ^ rng_salt)
    {
        if (owns_os)
            os.emplace(ctx, space, disk, net);
    }

    std::uint64_t ops() const { return ctx.counts().total(); }
};

/** One workload's op-stream generator. */
using Kernel = void (*)(Env& env, const RunConfig& config,
                        const WorkloadInfo& info);

namespace kernels {

// The eleven Table I data-analysis workloads (data_analysis.cc).
void sort(Env&, const RunConfig&, const WorkloadInfo&);
void word_count(Env&, const RunConfig&, const WorkloadInfo&);
void grep(Env&, const RunConfig&, const WorkloadInfo&);
void naive_bayes(Env&, const RunConfig&, const WorkloadInfo&);
void svm(Env&, const RunConfig&, const WorkloadInfo&);
void kmeans(Env&, const RunConfig&, const WorkloadInfo&);
void fuzzy_kmeans(Env&, const RunConfig&, const WorkloadInfo&);
void ibcf(Env&, const RunConfig&, const WorkloadInfo&);
void hmm(Env&, const RunConfig&, const WorkloadInfo&);
void pagerank(Env&, const RunConfig&, const WorkloadInfo&);
void hive(Env&, const RunConfig&, const WorkloadInfo&);

// The service models (services.cc).
void software_testing(Env&, const RunConfig&, const WorkloadInfo&);
void media_streaming(Env&, const RunConfig&, const WorkloadInfo&);
void data_serving(Env&, const RunConfig&, const WorkloadInfo&);
void web_search(Env&, const RunConfig&, const WorkloadInfo&);
void web_serving(Env&, const RunConfig&, const WorkloadInfo&);
void specweb(Env&, const RunConfig&, const WorkloadInfo&);

// The SPEC CPU2006 group models (spec.cc).
void specint(Env&, const RunConfig&, const WorkloadInfo&);
void specfp(Env&, const RunConfig&, const WorkloadInfo&);

// The HPCC 1.4 micro-kernels (hpcc.cc).
void hpl(Env&, const RunConfig&, const WorkloadInfo&);
void dgemm(Env&, const RunConfig&, const WorkloadInfo&);
void stream(Env&, const RunConfig&, const WorkloadInfo&);
void ptrans(Env&, const RunConfig&, const WorkloadInfo&);
void random_access(Env&, const RunConfig&, const WorkloadInfo&);
void fft(Env&, const RunConfig&, const WorkloadInfo&);
void comm(Env&, const RunConfig&, const WorkloadInfo&);

}  // namespace kernels

}  // namespace dcb::workloads

#endif  // DCBENCH_WORKLOADS_KERNELS_H_
