/**
 * @file
 * Behavioural models of the comparison service workloads: the five
 * CloudSuite benchmarks the paper deploys (Software Testing, Media
 * Streaming, Data Serving, Web Search, Web Serving) and SPECweb2005.
 *
 * These are *models*, not reimplementations of Cassandra/Darwin/Nutch/
 * Olio (DESIGN.md §2): each is a request-processing loop whose op mix --
 * kernel-heavy socket/disk I/O, random loads over a memcached-style heap,
 * large flat instruction footprints, partial-register-dense legacy code
 * and indirect dispatch -- is set to reproduce the counter signature the
 * paper reports for that workload. Their `source` field is prefixed
 * "model:" so no output can be mistaken for a real-system measurement.
 */

#include "workloads/kernels.h"

namespace dcb::workloads::kernels {

namespace {

/** Behavioural parameters of one service model. */
struct ServiceParams
{
    std::uint64_t heap_mb = 10;        ///< random-access data working set
    double heap_load_frac = 0.10;      ///< share of user ops hitting it
    std::uint32_t parse_ops = 3000;    ///< user compute per request
    std::uint32_t fp_ops = 0;          ///< FP work per request (scoring)
    std::uint32_t indirects = 4;       ///< indirect dispatches per request
    std::uint32_t indirect_targets = 8;
    double branch_entropy = 0.18;      ///< share of hard-to-predict branches
    std::uint64_t recv_bytes = 512;
    std::uint64_t send_bytes = 16 * 1024;
    std::uint64_t disk_read_bytes = 0;
    std::uint64_t disk_write_bytes = 0;
    double sequential_scan_frac = 0.0;  ///< streaming (index scan) loads
};

/** Generic request loop driven by ServiceParams. */
void
serve_requests(Env& env, const RunConfig& config,
               const ServiceParams& params)
{
    trace::ExecCtx& ctx = env.ctx;
    mem::AddressSpace& space = env.space;
    os::OsModel& os = *env.os;
    util::Rng& rng = env.rng;

    // The heap splits into a hot object set (bigger than the L2,
    // TLB-covered, L3-resident -- the source of the services' ~60
    // L2 MPKI with a ~95% L3 service ratio) and a cold tail touched
    // rarely (the source of their modest but nonzero page walks).
    const std::uint64_t hot_bytes = 768ULL << 10;
    const std::uint64_t heap_bytes = params.heap_mb << 20;
    const mem::Region heap = space.alloc(heap_bytes, "service_heap");
    const mem::Region index = space.alloc(8 << 20, "service_index");
    const mem::Region iobuf = space.alloc(1 << 20, "service_iobuf");

    std::uint64_t scan_cursor = 0;
    std::uint64_t request = 0;
    while (ctx.counts().total() < config.op_budget) {
        ++request;
        os.sys_recv(iobuf.base, params.recv_bytes);

        // Indirect dispatch through handler tables / vtables.
        for (std::uint32_t i = 0; i < params.indirects; ++i) {
            ctx.indirect_branch(
                0x5E000 + i,
                rng.next_below(params.indirect_targets));
            ctx.alu(6);
        }

        // Request parsing / business logic, interleaving heap and
        // stack traffic with control flow.
        const std::uint32_t chunks = params.parse_ops / 8;
        for (std::uint32_t i = 0; i < chunks; ++i) {
            ctx.alu(4);
            if (rng.next_double() < params.heap_load_frac * 8.0) {
                // Object lookup: mostly the hot set, occasionally
                // the cold tail (drives the DTLB walks).
                const bool cold = rng.next_bool(0.01);
                const std::uint64_t span = cold ? heap_bytes
                                                : hot_bytes;
                const std::uint64_t addr =
                    heap.base + (rng.next_u64() % span & ~7ULL);
                // Each lookup is a short chase; distinct lookups are
                // independent of each other.
                if ((i & 1) == 0)
                    ctx.chase_load(addr);
                else
                    ctx.load(addr);
                ctx.alu(1);
            } else if (rng.next_double() <
                       params.sequential_scan_frac * 8.0) {
                // Posting-list style sequential scan.
                ctx.load(index.base + (scan_cursor & ((8 << 20) - 1)));
                scan_cursor += 8;
                if (params.fp_ops)
                    ctx.fpu(1);
            } else {
                ctx.load(iobuf.base + ((i * 24) & 0xFFF8));
            }
            // Most branches are structured control flow; a minority
            // are data-dependent and effectively unpredictable.
            const bool hard = rng.next_double() <
                              params.branch_entropy;
            const bool taken = hard ? rng.next_bool(0.55)
                                    : (i & 3) != 3;
            ctx.branch(0x5E100 + (i % 31), taken);
            ctx.store(iobuf.base + ((i * 40) & 0xFFF8));
        }
        for (std::uint32_t f = 0; f < params.fp_ops; f += 4)
            ctx.fpu(4);

        if (params.disk_read_bytes)
            os.sys_read(iobuf.base, params.disk_read_bytes);
        if (params.disk_write_bytes &&
            (request & 3) == 0) {
            os.sys_write(iobuf.base, params.disk_write_bytes);
        }
        os.sys_send(iobuf.base, params.send_bytes);
        if ((request & 7) == 0)
            os.sys_sched();
    }
}

}  // namespace

/** Software Testing (Cloud9): compute-bound symbolic execution. */
void
software_testing(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    trace::ExecCtx& ctx = env.ctx;
    mem::AddressSpace& space = env.space;
    util::Rng& rng = env.rng;

    const std::uint64_t graph_bytes = 6ULL << 20;
    const std::uint64_t hot_bytes = 640ULL << 10;
    const mem::Region graph = space.alloc(graph_bytes, "c9_states");

    while (ctx.counts().total() < config.op_budget) {
        // Explore one path: chase constraint nodes, evaluate the
        // expression DAG (ALU-heavy), occasionally fork a state.
        for (int d = 0; d < 48; ++d) {
            const bool cold = rng.next_bool(0.04);
            const std::uint64_t span = cold ? graph_bytes : hot_bytes;
            ctx.chase_load(graph.base +
                           (rng.next_u64() % span & ~7ULL));
            ctx.alu(18);
            ctx.load(graph.base + ((d * 256) & (hot_bytes - 1)));
            ctx.alu(8);
            const bool fork = rng.next_bool(0.12);
            ctx.branch(0xC9000 + (d % 17), fork);
            ctx.branch(0xC9100 + (d % 7), true);  // DAG walk loop
            if (fork) {
                ctx.store(graph.base +
                          (rng.next_u64() % hot_bytes & ~7ULL));
                ctx.alu(3);
            }
        }
    }
}

void
media_streaming(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    ServiceParams p;
    p.heap_mb = 8;
    p.heap_load_frac = 0.06;
    p.parse_ops = 5600;
    p.send_bytes = 64 * 1024;  // streaming media chunks
    p.recv_bytes = 256;
    p.disk_read_bytes = 0;  // served from page cache
    p.indirects = 3;
    p.branch_entropy = 0.10;
    serve_requests(env, config, p);
}

void
data_serving(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    ServiceParams p;
    p.heap_mb = 10;
    p.heap_load_frac = 0.13;
    p.parse_ops = 4800;
    p.recv_bytes = 512;
    p.send_bytes = 4 * 1024;
    p.disk_read_bytes = 4 * 1024;
    p.disk_write_bytes = 8 * 1024;  // 50:50 read/update YCSB mix
    p.indirects = 5;
    p.branch_entropy = 0.13;
    serve_requests(env, config, p);
}

void
web_search(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    ServiceParams p;
    p.heap_mb = 8;
    p.heap_load_frac = 0.05;
    p.sequential_scan_frac = 0.10;  // posting-list scans
    p.parse_ops = 5200;
    p.fp_ops = 64;  // scoring
    p.recv_bytes = 256;
    p.send_bytes = 8 * 1024;
    p.disk_read_bytes = 8 * 1024;  // index segments
    p.indirects = 3;
    p.branch_entropy = 0.10;
    serve_requests(env, config, p);
}

void
web_serving(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    ServiceParams p;
    p.heap_mb = 10;
    p.heap_load_frac = 0.10;
    p.parse_ops = 4600;  // PHP interpretation
    p.recv_bytes = 768;
    p.send_bytes = 40 * 1024;
    p.indirects = 24;  // interpreter dispatch
    p.indirect_targets = 48;
    p.branch_entropy = 0.16;
    serve_requests(env, config, p);
}

void
specweb(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    ServiceParams p;
    p.heap_mb = 9;
    p.heap_load_frac = 0.11;
    p.parse_ops = 4600;
    p.recv_bytes = 512;
    p.send_bytes = 28 * 1024;
    p.indirects = 6;
    p.branch_entropy = 0.13;
    serve_requests(env, config, p);
}

}  // namespace dcb::workloads::kernels
