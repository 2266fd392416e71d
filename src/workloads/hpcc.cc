/**
 * @file
 * The kernels of the seven HPCC 1.4 benchmarks (Section III-C1), real
 * narrated micro-kernels: HPL (LU factorization with partial pivoting),
 * DGEMM (register-blocked matrix multiply), STREAM (triad), PTRANS
 * (blocked matrix transpose), RandomAccess (64-bit table updates,
 * including the copy_user-heavy exchange phase the paper calls out in
 * Figure 4), FFT (iterative radix-2) and COMM (latency/bandwidth
 * ping-pong through the socket stack).
 */

#include <cmath>
#include <complex>

#include "analytics/simdata.h"
#include "workloads/kernels.h"

namespace dcb::workloads::kernels {

namespace {

using analytics::SimVec;

constexpr std::uint64_t kLoopSite = 0x48504301;
constexpr std::uint64_t kPivotSite = 0x48504302;

}  // namespace

// ---------------------------------------------------------------------
// HPL: LU factorization with partial pivoting, repeated on fresh
// right-hand sides. Unit-stride panel updates, FP-dominated.
// ---------------------------------------------------------------------
void
hpl(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    constexpr std::size_t n = 96;
    SimVec<double> a(env.space, n * n, "hpl_matrix");
    while (env.ops() < config.op_budget) {
        for (std::size_t i = 0; i < n * n; ++i)
            a[i] = env.rng.next_double() + 0.1;
        for (std::size_t k = 0; k < n; ++k) {
            // Partial pivot search down column k.
            std::size_t pivot = k;
            double best = std::fabs(a[k * n + k]);
            for (std::size_t i = k + 1; i < n; ++i) {
                env.ctx.load(a.addr(i * n + k));
                const double v = std::fabs(a[i * n + k]);
                const bool better = v > best;
                env.ctx.fpu(1);
                env.ctx.branch(kPivotSite, better);
                if (better) {
                    best = v;
                    pivot = i;
                }
            }
            if (pivot != k) {
                for (std::size_t j = k; j < n; ++j) {
                    env.ctx.load(a.addr(k * n + j));
                    env.ctx.load(a.addr(pivot * n + j));
                    std::swap(a[k * n + j], a[pivot * n + j]);
                    env.ctx.store(a.addr(k * n + j));
                    env.ctx.store(a.addr(pivot * n + j));
                }
            }
            const double inv = 1.0 / a[k * n + k];
            env.ctx.fpu(1);
            for (std::size_t i = k + 1; i < n; ++i) {
                env.ctx.load(a.addr(i * n + k));
                const double l = a[i * n + k] * inv;
                a[i * n + k] = l;
                env.ctx.fpu(1);
                env.ctx.store(a.addr(i * n + k));
                // Rank-1 update of the trailing row (unit stride).
                for (std::size_t j = k + 1; j < n; ++j) {
                    env.ctx.load(a.addr(i * n + j));
                    env.ctx.load(a.addr(k * n + j));
                    a[i * n + j] -= l * a[k * n + j];
                    env.ctx.fpu(1, false, 6);  // FMA, SW-pipelined
                    env.ctx.store(a.addr(i * n + j));
                    if ((j & 7) == 0)
                        env.ctx.branch(kLoopSite, j + 1 < n);
                }
            }
            if (env.ops() >= config.op_budget)
                return;
        }
    }
}

// ---------------------------------------------------------------------
// DGEMM: register-blocked C += A*B; four independent accumulator chains
// per inner step keep FP ports busy.
// ---------------------------------------------------------------------
void
dgemm(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    constexpr std::size_t n = 128;
    SimVec<double> a(env.space, n * n, "dgemm_a");
    SimVec<double> b(env.space, n * n, "dgemm_b");
    SimVec<double> c(env.space, n * n, 0.0, "dgemm_c");
    for (std::size_t i = 0; i < n * n; ++i) {
        a[i] = env.rng.next_double();
        b[i] = env.rng.next_double();
    }
    while (env.ops() < config.op_budget) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; j += 4) {
                double acc0 = 0.0;
                double acc1 = 0.0;
                double acc2 = 0.0;
                double acc3 = 0.0;
                for (std::size_t k = 0; k < n; ++k) {
                    env.ctx.load(a.addr(i * n + k));
                    env.ctx.load(b.addr(k * n + j));
                    acc0 += a[i * n + k] * b[k * n + j];
                    acc1 += a[i * n + k] * b[k * n + j + 1];
                    acc2 += a[i * n + k] * b[k * n + j + 2];
                    acc3 += a[i * n + k] * b[k * n + j + 3];
                    // Four FMA chains (register blocking): each op
                    // depends on its own accumulator one k-step back.
                    env.ctx.fpu(4, false, 7);
                    if ((k & 15) == 15)
                        env.ctx.branch(kLoopSite, k + 1 < n);
                }
                c[i * n + j] += acc0;
                c[i * n + j + 1] += acc1;
                c[i * n + j + 2] += acc2;
                c[i * n + j + 3] += acc3;
                env.ctx.fpu(4);
                env.ctx.store(c.addr(i * n + j));
                env.ctx.store(c.addr(i * n + j + 2));
            }
            if (env.ops() >= config.op_budget)
                return;
        }
    }
}

// ---------------------------------------------------------------------
// STREAM: triad a = b + s*c over arrays far larger than the L3.
// ---------------------------------------------------------------------
void
stream(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    constexpr std::size_t n = 3 * 1024 * 1024;  // 24 MB per array
    SimVec<double> a(env.space, n, "stream_a");
    SimVec<double> b(env.space, n, "stream_b");
    SimVec<double> c(env.space, n, "stream_c");
    for (std::size_t i = 0; i < n; i += 64)
        b[i] = c[i] = 1.0;
    const double s = 3.0;
    while (env.ops() < config.op_budget) {
        for (std::size_t i = 0; i < n; ++i) {
            env.ctx.load(b.addr(i));
            env.ctx.load(c.addr(i));
            a[i] = b[i] + s * c[i];
            env.ctx.fpu(1);
            env.ctx.store(a.addr(i));
            if ((i & 15) == 15) {
                env.ctx.branch(kLoopSite, i + 1 < n);
                if (env.ops() >= config.op_budget)
                    return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// PTRANS: A = A^T + B; one side of every element access is a large
// power-of-two stride that defeats both caches and prefetchers.
// ---------------------------------------------------------------------
void
ptrans(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    constexpr std::size_t n = 1024;    // 8 MB matrices
    constexpr std::size_t kBlock = 32;  // HPCC PTRANS is blocked
    SimVec<double> a(env.space, n * n, "ptrans_a");
    SimVec<double> bm(env.space, n * n, "ptrans_b");
    while (env.ops() < config.op_budget) {
        for (std::size_t bi = 0; bi < n; bi += kBlock) {
            for (std::size_t bj = bi; bj < n; bj += kBlock) {
                for (std::size_t i = bi; i < bi + kBlock; ++i) {
                    for (std::size_t j = std::max(bj, i + 1);
                         j < bj + kBlock; ++j) {
                        env.ctx.load(a.addr(i * n + j));
                        env.ctx.load(a.addr(j * n + i));  // strided
                        env.ctx.load(bm.addr(i * n + j));
                        const double t = a[j * n + i] + bm[i * n + j];
                        a[j * n + i] = a[i * n + j] + bm[j * n + i];
                        a[i * n + j] = t;
                        env.ctx.fpu(2);
                        env.ctx.store(a.addr(i * n + j));
                        env.ctx.store(a.addr(j * n + i));
                        if ((j & 7) == 0)
                            env.ctx.branch(kLoopSite,
                                           j + 1 < bj + kBlock);
                    }
                }
                if (env.ops() >= config.op_budget)
                    return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// RandomAccess: GUPS updates of a 64 MB table, plus the bucketized
// exchange phase whose copy_user calls give it ~31% kernel instructions
// (Figure 4).
// ---------------------------------------------------------------------
void
random_access(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    constexpr std::size_t n = 8 * 1024 * 1024;  // 64 MB table
    SimVec<std::uint64_t> table(env.space, n, "ra_table");
    mem::Region exchange = env.space.alloc(1 << 20, "ra_exchange");
    std::uint64_t x = 0x123456789ABCDEFULL;
    std::uint64_t updates = 0;
    while (env.ops() < config.op_budget) {
        // HPCC polynomial update stream.
        x = (x << 1) ^ (static_cast<std::int64_t>(x) < 0
                            ? 0x0000000000000007ULL
                            : 0);
        const std::size_t idx = x & (n - 1);
        // Address generation plus local bucketization of the update
        // stream (HPCC RandomAccess batches updates into per-rank
        // buckets before applying/exchanging them).
        env.ctx.alu(10);
        env.ctx.store(exchange.base + ((updates * 8) & 0xFFFF8));
        env.ctx.load(table.addr(idx));
        table[idx] ^= x;
        env.ctx.alu(1);
        env.ctx.store(table.addr(idx));
        ++updates;
        // Bucket exchange: every 512 updates, ship a bucket to a
        // remote rank (the kernel copy path dominates).
        if ((updates & 1023) == 0) {
            env.os->sys_send(exchange.base, 32 * 1024);
            env.os->sys_recv(exchange.base, 32 * 1024);
        }
    }
}

// ---------------------------------------------------------------------
// FFT: iterative radix-2 over 2^19 complex doubles (8 MB), real data.
// ---------------------------------------------------------------------
void
fft(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    constexpr std::size_t kLogN = 17;
    constexpr std::size_t n = 1ULL << kLogN;
    SimVec<std::complex<double>> data(env.space, n, "fft_data");
    for (std::size_t i = 0; i < n; ++i)
        data[i] = {env.rng.next_double(), 0.0};

    while (env.ops() < config.op_budget) {
        // Bit-reversal permutation.
        for (std::size_t i = 1, j = 0; i < n; ++i) {
            std::size_t bit = n >> 1;
            for (; j & bit; bit >>= 1) {
                j ^= bit;
                env.ctx.alu(2);
            }
            j ^= bit;
            env.ctx.alu(2);
            if (i < j) {
                env.ctx.load(data.addr(i));
                env.ctx.load(data.addr(j));
                std::swap(data[i], data[j]);
                env.ctx.store(data.addr(i));
                env.ctx.store(data.addr(j));
            }
            env.ctx.branch(kLoopSite, i + 1 < n);
        }
        // Butterfly stages.
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const double ang = -2.0 * M_PI /
                               static_cast<double>(len);
            const std::complex<double> wl(std::cos(ang), std::sin(ang));
            for (std::size_t i = 0; i < n; i += len) {
                std::complex<double> w(1.0, 0.0);
                for (std::size_t k = 0; k < len / 2; ++k) {
                    const std::size_t u_i = i + k;
                    const std::size_t v_i = i + k + len / 2;
                    env.ctx.load(data.addr(u_i));
                    env.ctx.load(data.addr(v_i));
                    const std::complex<double> u = data[u_i];
                    const std::complex<double> v = data[v_i] * w;
                    data[u_i] = u + v;
                    data[v_i] = u - v;
                    w *= wl;
                    env.ctx.fpu(16);  // complex mul + add/sub + twiddle update
                    env.ctx.store(data.addr(u_i));
                    env.ctx.store(data.addr(v_i));
                    if ((k & 7) == 0)
                        env.ctx.branch(kLoopSite, k + 1 < len / 2);
                }
                if (env.ops() >= config.op_budget)
                    return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// COMM: b_eff-style latency/bandwidth ping-pong through the socket
// stack with light user-mode verification between messages.
// ---------------------------------------------------------------------
void
comm(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    mem::Region buf = env.space.alloc(1 << 20, "comm_buffer");
    const std::uint64_t sizes[] = {1024, 8192, 65536, 262144};
    std::size_t s = 0;
    while (env.ops() < config.op_budget) {
        const std::uint64_t bytes = sizes[s];
        s = (s + 1) % 4;
        env.os->sys_send(buf.base, bytes);
        env.os->sys_recv(buf.base, bytes);
        // User-side packing/verification of the buffer.
        for (std::uint64_t off = 0; off < bytes; off += 64) {
            env.ctx.load(buf.base + off);
            env.ctx.alu(6, true);  // checksum chain
            env.ctx.alu(6);   // pack/unpack
            if ((off & 511) == 0)
                env.ctx.branch(kLoopSite, off + 64 < bytes);
        }
    }
}

}  // namespace dcb::workloads::kernels
