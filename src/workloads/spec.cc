/**
 * @file
 * SPEC CPU2006 group models (Section III-C1 reports SPECINT and SPECFP
 * as run-averages of the official suites). These are behavioural
 * composites -- "model:" sources -- reproducing the groups' counter
 * signatures: SPECINT mixes pointer chasing, compression-style loops and
 * data-dependent branches; SPECFP is loop-parallel dense FP with regular
 * control flow.
 */

#include "workloads/kernels.h"

namespace dcb::workloads::kernels {

void
specint(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    trace::ExecCtx& ctx = env.ctx;
    mem::AddressSpace& space = env.space;
    util::Rng& rng = env.rng;

    const std::uint64_t pool_bytes = 3ULL << 20;
    const mem::Region pool = space.alloc(pool_bytes, "specint_pool");
    const mem::Region window = space.alloc(256 << 10, "specint_window");

    while (ctx.counts().total() < config.op_budget) {
        // Pointer-chase phase (mcf/xalancbmk style): the chase loop
        // itself is predictable; the node-type dispatch is not.
        for (int i = 0; i < 24; ++i) {
            const std::uint64_t addr =
                pool.base + (rng.next_u64() & (pool_bytes - 1) & ~7ULL);
            // Several independent node visits per dependent hop
            // (breadth in the working set hides most chase latency).
            if (i % 8 == 0)
                ctx.chase_load(addr);
            else
                ctx.load(addr);
            ctx.alu(9);
            ctx.branch(0x1217A0 + (i % 11), true);  // loop back-edge
            if ((i & 3) == 0)
                ctx.branch(0x1217C0, rng.next_bool(0.62));
        }
        // Compression-style window loop (bzip2/gcc style): streaming
        // loads over a small window with occasional match hits.
        for (int i = 0; i < 96; ++i) {
            ctx.load(window.base + ((i * 8) & 0x3FFF8));
            ctx.alu(7);
            const bool match = rng.next_bool(0.11);
            ctx.branch(0x1217B0 + (i % 13), match);
            ctx.branch(0x1217D0, i + 1 < 96);  // loop back-edge
            if (match)
                ctx.store(window.base + ((i * 16) & 0x3FFF8));
        }
}
}

void
specfp(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    trace::ExecCtx& ctx = env.ctx;
    mem::AddressSpace& space = env.space;

    const std::uint64_t n = 384ULL << 10;  // 3 MB arrays
    const mem::Region a = space.alloc(n * 8, "specfp_a");
    const mem::Region b = space.alloc(n * 8, "specfp_b");
    const mem::Region c = space.alloc(n * 8, "specfp_c");

    std::uint64_t i = 0;
    while (ctx.counts().total() < config.op_budget) {
        // Stencil-style sweep: unit stride, two loads + two FP + store.
        const std::uint64_t idx = (i % (n - 2)) * 8;
        ctx.load(a.base + idx);
        ctx.load(b.base + idx);
        ctx.fpu(2);
        ctx.store(c.base + idx);
        ctx.alu(2);
        if ((i & 15) == 15)
            ctx.branch(0xF9A0, true);
        ++i;
}
}

}  // namespace dcb::workloads::kernels
